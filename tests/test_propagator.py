"""Trajectory evolution, Monte Carlo process maps, closed-form dephasing."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from ttmkit.liouville import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    apply_superop,
    min_choi_eigenvalue,
    trace_preservation_defect,
    unitary_superop,
    vec,
)
from ttmkit.noisegen import NoiseModel, NoisePath, sample_paths
from ttmkit.presets import dd_demo_model, revival_demo_model
from ttmkit.propagator import (
    SystemModel,
    _chunk_map_sums,
    dephasing_map,
    dephasing_map_series,
    evolve_trajectory,
    free_evolution_superop,
    simulate_process,
    simulate_pulsed_process,
)

from conftest import (
    dephasing_coherence,
    double_integral_correlation,
    map_distance,
    random_density,
    toggled_variance,
)


def _z_model(coupling=4.0, kappa=1.0, omega_c=0.0, bias=0.1):
    return SystemModel(h_system=bias * SIGMA_Z, couplings=(SIGMA_Z,),
                       noise=NoiseModel.single(coupling, kappa, omega=omega_c))


def test_system_model_validation():
    noise = NoiseModel.single(1.0, 1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        SystemModel(h_system=np.array([[0.0, 1.0], [0.0, 0.0]]),
                    couplings=(SIGMA_Z,), noise=noise)
    with pytest.raises(ValueError, match="per noise channel"):
        SystemModel(h_system=SIGMA_Z, couplings=(), noise=noise)
    model = _z_model()
    assert model.dim == 2 and model.is_diagonal
    assert not SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_X,),
                           noise=noise).is_diagonal


def test_free_evolution_superop():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = 0.5 * (h + h.conj().T)
    rho = random_density(3, rng)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * 0.7)) @ v.conj().T
    npt.assert_allclose(apply_superop(free_evolution_superop(h, 0.7), rho),
                        u @ rho @ u.conj().T, atol=1e-12)


def test_evolve_trajectory_is_unitary_per_path():
    model = _z_model()
    path = sample_paths(model.noise, 0.2, 25, seed=5)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    states = evolve_trajectory(model, path, rho0)
    assert states.shape == (25, 2, 2)
    for rho in states:
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12  # purity kept


def test_evolve_trajectory_constant_path_phase():
    # frozen B just shifts the precession frequency; rho_10 advances with
    # the positive phase 2(bias + B) t under sigma_z = diag(1, -1)
    bias, b = 0.1, 0.35
    model = _z_model(bias=bias)
    dt, n = 0.2, 12
    path = NoisePath(dt, np.full((1, n), b))
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    states = evolve_trajectory(model, path, rho0)
    for k, rho in enumerate(states, start=1):
        want = 0.5 * np.exp(2j * (bias + b) * k * dt)
        assert abs(rho[1, 0] - want) < 1e-12


def test_evolve_trajectory_validation():
    model = _z_model()
    path = sample_paths(model.noise, 0.2, 4, seed=1)
    with pytest.raises(ValueError, match="dimension"):
        evolve_trajectory(model, path, np.eye(3) / 3)
    two = NoisePath(0.2, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="channel count"):
        evolve_trajectory(model, two, np.eye(2) / 2)


def test_evolve_trajectory_matches_expm_products_off_the_diagonal():
    # a transverse qubit (quaternion kernel) and a non-diagonal pair
    # (eigh kernel) against per-step expm products applied to rho0
    rng = np.random.default_rng(17)
    eye = np.eye(2)
    qubit = SystemModel(h_system=0.3 * SIGMA_Z, couplings=(SIGMA_X, SIGMA_Y),
                        noise=NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                                         cross=np.eye(2)))
    pair = SystemModel(h_system=0.1 * np.kron(SIGMA_Z, eye) + 0.2 * np.kron(eye, SIGMA_Z)
                       + 0.05 * np.kron(SIGMA_Z, SIGMA_Z),
                       couplings=(np.kron(SIGMA_X, eye), np.kron(eye, SIGMA_Y)),
                       noise=NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0),
                                        cross=np.array([[1.0, 0.5], [0.5, 1.0]])))
    for model in (qubit, pair):
        d = model.dim
        dt, n_steps = 0.15, 9
        path = NoisePath(dt, rng.normal(scale=2.0, size=(2, n_steps)))
        rho0 = random_density(d, rng)
        states = evolve_trajectory(model, path, rho0)
        u = np.eye(d, dtype=complex)
        for k in range(n_steps):
            h = model.h_system + sum(path.values[a, k] * c
                                     for a, c in enumerate(model.couplings))
            u = expm(-1.0j * h * dt) @ u
            npt.assert_allclose(states[k], u @ rho0 @ u.conj().T, rtol=0, atol=1e-12)


def test_pulsed_process_without_pulses_matches_simulate_process():
    # one pulse-free segment per cycle is the plain map grid: both drivers
    # must draw the same noise chunk by chunk and give the same maps
    for model in (dd_demo_model(), revival_demo_model()):
        for dt, n_steps, substeps in ((0.2, 6, 4), (0.5, 3, 2)):
            plain = simulate_process(model, dt, n_steps, n_traj=600, substeps=substeps,
                                     seed=21, chunk_size=256)
            pulsed = simulate_pulsed_process(model, [(dt, None)], n_steps, n_traj=600,
                                             substeps=substeps, seed=21, chunk_size=256)
            npt.assert_allclose(np.stack(pulsed), np.stack(plain), rtol=0, atol=1e-12)


def test_dephasing_map_matches_independent_construction():
    bias = 0.1
    for lam, kappa, wc in ((4.0, 1.0, 0.0), (1.0, 0.5, 2.0)):
        model = _z_model(lam, kappa, wc, bias=bias)
        for t in (0.2, 1.0, 3.0):
            sop = dephasing_map(model, t)
            coh = dephasing_coherence(lam, kappa, wc, t)
            # rho_01 sits at vec index 1, rho_10 at index 2
            assert abs(sop[1, 1] - coh * np.exp(-2j * bias * t)) < 1e-12
            assert abs(sop[2, 2] - coh * np.exp(+2j * bias * t)) < 1e-12
            assert abs(sop[0, 0] - 1.0) < 1e-14
            assert abs(sop[3, 3] - 1.0) < 1e-14
            assert trace_preservation_defect(sop) < 1e-12


def test_dephasing_map_rejects_transverse_models():
    model = SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_X,),
                        noise=NoiseModel.single(1.0, 1.0))
    with pytest.raises(ValueError, match="diagonal"):
        dephasing_map(model, 0.5)


def test_two_qubit_dephasing_map_elementwise():
    # correlated two-channel model checked against a by-hand element formula
    z1 = np.kron(SIGMA_Z, np.eye(2))
    z2 = np.kron(np.eye(2), SIGMA_Z)
    h = 0.1 * z1 + 0.1 * z2
    cross = np.array([[1.0, 0.4], [0.4, 0.8]])
    noise = NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0), cross=cross)
    model = SystemModel(h_system=h, couplings=(z1, z2), noise=noise)
    t = 0.7
    sop = dephasing_map(model, t)
    hdiag = np.real(np.diag(h))
    zdiag = np.stack([np.real(np.diag(z1)), np.real(np.diag(z2))])
    phi = np.array([[double_integral_correlation(cross[a, b],
                                                 0.5 * (noise.kappas[a] + noise.kappas[b]),
                                                 0.0, t)
                     for b in range(2)] for a in range(2)])
    for r in range(4):
        for c in range(4):
            dz = zdiag[:, r] - zdiag[:, c]
            want = np.exp(-1j * (hdiag[r] - hdiag[c]) * t - 0.5 * dz @ phi @ dz)
            assert abs(sop[4 * r + c, 4 * r + c] - want) < 1e-12
    off = sop - np.diag(np.diag(sop))
    assert np.max(np.abs(off)) < 1e-14


def test_simulate_process_zero_noise_is_free_evolution():
    model = _z_model(coupling=0.0)
    maps = simulate_process(model, 0.3, 4, n_traj=8, seed=0)
    for k, sop in enumerate(maps, start=1):
        npt.assert_allclose(sop, free_evolution_superop(model.h_system, k * 0.3),
                            atol=1e-12)


def test_simulate_process_deterministic_given_seed():
    model = _z_model(1.0, 1.0)
    a = simulate_process(model, 0.2, 3, n_traj=64, seed=9)
    b = simulate_process(model, 0.2, 3, n_traj=64, seed=9)
    for x, y in zip(a, b):
        npt.assert_array_equal(x, y)
    c = simulate_process(model, 0.2, 3, n_traj=64, seed=10)
    assert map_distance(a[0], c[0]) > 1e-4


def test_simulate_process_converges_to_dephasing_series():
    model = _z_model(4.0, 1.0)
    dt, n_steps = 0.2, 8
    maps = simulate_process(model, dt, n_steps, n_traj=20_000, seed=21,
                            antithetic=True)
    exact = dephasing_map_series(model, dt, n_steps)
    worst = max(map_distance(a, b) for a, b in zip(maps, exact))
    assert worst < 0.05  # ~4 sigma for this trajectory count
    for sop in maps:
        assert trace_preservation_defect(sop) < 1e-12
        assert min_choi_eigenvalue(sop) > -1e-10  # average of unitary maps


def test_antithetic_pairs_cancel_odd_orders():
    model = _z_model(2.0, 1.0, bias=0.0)
    maps = simulate_process(model, 0.2, 3, n_traj=256, seed=4, antithetic=True)
    # with B -> -B included the coherence average is a real cosine mean
    for sop in maps:
        assert abs(sop[1, 1].imag) < 1e-14
        assert abs(sop[2, 2].imag) < 1e-14
    with pytest.raises(ValueError, match="even"):
        simulate_process(model, 0.2, 3, n_traj=257, antithetic=True)


def test_control_variate_cuts_weak_coupling_error():
    model = _z_model(0.01, 1.0)
    dt, n_steps, n = 0.2, 6, 2000
    exact = dephasing_map_series(model, dt, n_steps)
    raw = simulate_process(model, dt, n_steps, n_traj=n, seed=12, antithetic=True)
    cv = simulate_process(model, dt, n_steps, n_traj=n, seed=12, antithetic=True,
                          control_variate=True)
    raw_err = max(map_distance(a, b) for a, b in zip(raw, exact))
    cv_err = max(map_distance(a, b) for a, b in zip(cv, exact))
    assert cv_err < raw_err / 20.0
    # what survives the variate is the fourth-moment phase fluctuation,
    # about 0.4 Var^2 / sqrt(n) here
    assert cv_err < 1e-4
    for sop in cv:
        assert trace_preservation_defect(sop) < 1e-10


def test_control_variate_transverse_channel():
    # same variance subtraction must hold off the diagonal fast path
    model = SystemModel(h_system=0.02 * SIGMA_Z, couplings=(SIGMA_X,),
                        noise=NoiseModel.single(0.01, 1.0))
    dt, n_steps, n = 0.2, 5, 2000
    ref = simulate_process(model, dt, n_steps, n_traj=200_000, seed=77,
                           antithetic=True, control_variate=True)
    raw = simulate_process(model, dt, n_steps, n_traj=n, seed=13, antithetic=True)
    cv = simulate_process(model, dt, n_steps, n_traj=n, seed=13, antithetic=True,
                          control_variate=True)
    raw_err = max(map_distance(a, b) for a, b in zip(raw, ref))
    cv_err = max(map_distance(a, b) for a, b in zip(cv, ref))
    assert cv_err < raw_err / 10.0


def test_su2_kernel_matches_per_path_expm_products():
    # transverse qubit with a global-phase term: the kernel's summed maps
    # must equal the sum of per-path superoperators of expm step products,
    # on boundaries that leave segments of odd and even length
    noise = NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0), cross=np.eye(2))
    model = SystemModel(h_system=0.3 * SIGMA_Z + 0.2 * np.eye(2),
                        couplings=(SIGMA_X, SIGMA_Y + 0.5 * np.eye(2)), noise=noise)
    rng = np.random.default_rng(3)
    n_paths, n_sub, dt_sub = 12, 12, 0.15
    b = rng.normal(scale=2.0, size=(n_paths, 2, n_sub))
    boundary = np.array([2, 5, 6, 11])
    want = np.zeros((boundary.size, 4, 4), dtype=complex)
    for p in range(n_paths):
        u = np.eye(2, dtype=complex)
        for j in range(n_sub):
            h = model.h_system + sum(b[p, a, j] * c for a, c in enumerate(model.couplings))
            u = expm(-1.0j * h * dt_sub) @ u
            if j in boundary:
                want[list(boundary).index(j)] += unitary_superop(u)
    got = _chunk_map_sums(model, b, dt_sub, boundary)
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_chunk_means_average_to_the_estimate():
    model = _z_model(1.0, 1.0)
    maps, chunks = simulate_process(model, 0.2, 4, n_traj=4096, seed=8,
                                    chunk_size=1024, collect_chunk_means=True)
    assert chunks.shape == (4, 4, 4, 4)
    npt.assert_allclose(chunks.mean(axis=0), np.stack(maps), atol=1e-12)


def test_ensemble_average_of_trajectories_matches_maps():
    model = _z_model(4.0, 1.0)
    dt, n_steps, n = 0.2, 5, 3000
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    paths = sample_paths(model.noise, dt, n_steps, seed=31, n_paths=n)
    acc = np.zeros((n_steps, 2, 2), dtype=complex)
    for p in range(n):
        acc += evolve_trajectory(model, NoisePath(dt, paths[p]), rho0)
    mean_states = acc / n
    exact = dephasing_map_series(model, dt, n_steps)
    for k in range(n_steps):
        want = apply_superop(exact[k], rho0)
        assert np.max(np.abs(mean_states[k] - want)) < 0.05


def test_pulsed_process_spin_echo_oracle():
    # H = 0, z noise, one cycle = evolve-X-evolve-X; the toggling frame
    # sign pattern is (+, -) per cycle and the coherence follows the exact
    # Gaussian variance of the signed phase integral
    lam, kappa, seg = 0.8, 0.7, 0.5
    noise = NoiseModel.single(lam, kappa)
    model = SystemModel(h_system=np.zeros((2, 2)), couplings=(SIGMA_Z,),
                        noise=noise)
    segments = [(seg, SIGMA_X), (seg, SIGMA_X)]
    n_cycles = 2
    maps = simulate_pulsed_process(model, segments, n_cycles, n_traj=40_000,
                                   substeps=8, seed=41)
    for n in range(1, n_cycles + 1):
        signs = [+1.0, -1.0] * n
        want = np.exp(-0.5 * toggled_variance(signs, seg, lam, kappa))
        got = abs(maps[n - 1][1, 1])
        assert abs(got - want) < 0.01
        assert trace_preservation_defect(maps[n - 1]) < 1e-12


def test_pulsed_xy4_suppresses_static_noise():
    # slow noise: XY4 coherence after one cycle should far exceed free decay
    lam, kappa = 0.5, 0.05
    noise = NoiseModel.single(lam, kappa)
    model = SystemModel(h_system=np.zeros((2, 2)), couplings=(SIGMA_Z,),
                        noise=noise)
    q = 0.5
    segments = [(q, SIGMA_X), (q, SIGMA_Y), (q, SIGMA_X), (q, SIGMA_Y)]
    dd = simulate_pulsed_process(model, segments, 1, n_traj=20_000,
                                 substeps=8, seed=43)
    # X and Y both anticommute with the z coupling, so the toggling signs
    # alternate every quarter period
    want = np.exp(-0.5 * toggled_variance([1, -1, 1, -1], q, lam, kappa))
    got = abs(dd[0][1, 1])
    assert abs(got - want) < 0.01
    free = dephasing_coherence(lam, kappa, 0.0, 4 * q)
    assert free < 0.05 < 0.9 < want  # an order of magnitude of protection
