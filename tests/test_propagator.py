"""Trajectory evolution, Monte Carlo process maps, closed-form dephasing."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from ttmkit.liouville import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _free_superops,
    min_choi_eigenvalue,
    trace_preservation_defect,
    unitary_superop,
    unvec,
    vec,
)
from ttmkit.noisegen import GaussianPathSampler, NoiseModel
from ttmkit.presets import (
    dd_demo_model,
    revival_demo_model,
    transverse_noise_model,
    two_qubit_dephasing,
)
from ttmkit.propagator import (
    _TAYLOR_THETA,
    SystemModel,
    _chunk_map_sums,
    _chunks,
    _cv_corrections,
    _cv_generators,
    dephasing_map,
    dephasing_map_series,
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
    times = [0.0, 0.7, 2.5]
    for sop, t in zip(_free_superops(h, times), times):
        npt.assert_allclose(sop, unitary_superop(expm(-1j * h * t)), rtol=0, atol=1e-12)


def _draw_paths(model, dt, n_steps, seed, n_paths):
    """Noise values (n_paths, n_channels, n_steps) at the step midpoints."""
    sampler = GaussianPathSampler(model.noise, (np.arange(n_steps) + 0.5) * dt)
    return sampler.sample(np.random.default_rng(seed), n_paths)


def _mean_states(model, b, dt, rho0):
    """Path-averaged states at every step of the noise values b (P, n_ch, n_steps).

    The diagonal kernel takes each step's noise integral, b dt for one value
    per step."""
    if model.is_diagonal:
        b = b * dt
    maps = _chunk_map_sums(model, b, dt, np.arange(b.shape[-1])) / b.shape[0]
    return (maps @ vec(rho0)).reshape(-1, model.dim, model.dim)


def test_evolve_trajectory_is_unitary_per_path():
    # one path through the ensemble kernel, a map boundary at every step
    model = _z_model()
    b = _draw_paths(model, 0.2, 25, seed=5, n_paths=1)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    states = _mean_states(model, b, 0.2, rho0)
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
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    states = _mean_states(model, np.full((1, 1, n), b), dt, rho0)
    for k, rho in enumerate(states, start=1):
        want = 0.5 * np.exp(2j * (bias + b) * k * dt)
        assert abs(rho[1, 0] - want) < 1e-12


def _random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def _random_unitary(d, rng):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def test_evolve_trajectory_matches_expm_products_off_the_diagonal():
    # a transverse qubit (quaternion kernel), a non-diagonal pair and a
    # strongly driven qutrit whose steps take several squarings (Taylor
    # kernel) against per-step expm products applied to rho0
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
    qutrit = SystemModel(h_system=_random_hermitian(3, rng),
                         couplings=(10.0 * _random_hermitian(3, rng),
                                    10.0 * _random_hermitian(3, rng)),
                         noise=pair.noise)
    for model in (qubit, pair, qutrit):
        d = model.dim
        dt, n_steps = 0.15, 9
        values = rng.normal(scale=2.0, size=(2, n_steps))
        rho0 = random_density(d, rng)
        states = _mean_states(model, values[None], dt, rho0)
        u = np.eye(d, dtype=complex)
        for k in range(n_steps):
            h = model.h_system + sum(values[a, k] * c
                                     for a, c in enumerate(model.couplings))
            u = expm(-1.0j * h * dt) @ u
            npt.assert_allclose(states[k], u @ rho0 @ u.conj().T, rtol=0, atol=1e-12)


def test_pulsed_process_without_pulses_matches_simulate_process():
    # one pulse-free segment per cycle is the plain map grid: both simulators
    # run the same segments through one driver, so the maps are bit-equal
    for model in (dd_demo_model(), revival_demo_model(), transverse_noise_model()):
        for dt, n_steps, substeps in ((0.2, 6, 4), (0.5, 3, 2)):
            plain = simulate_process(model, dt, n_steps, n_traj=600, substeps=substeps,
                                     seed=21, chunk_size=256)
            pulsed = simulate_pulsed_process(model, [(dt, None)], n_steps, n_traj=600,
                                             substeps=substeps, seed=21, chunk_size=256)
            npt.assert_array_equal(np.stack(pulsed), np.stack(plain))


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
        npt.assert_allclose(sop, unitary_superop(expm(-1j * model.h_system * k * 0.3)),
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


def test_control_variate_helpers_match_written_out_sums():
    # two qubits with x noise on qubit 1 and y noise on qubit 2: generators
    # g[a, j] = dt_sub S(s_j)^H L_a S(s_j) and the time-ordered second-order
    # sum, taken pair by pair, on three uneven boundaries
    eye = np.eye(2)
    h = 0.3 * np.kron(SIGMA_Z, eye) - 0.7 * np.kron(eye, SIGMA_Z)
    ops = (np.kron(SIGMA_X, eye), np.kron(eye, SIGMA_Y))
    model = SystemModel(h_system=h, couplings=ops,
                        noise=NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                                         cross=np.diag([1.0, 0.5])))
    n_ch, n_sub, dt_sub, dt = 2, 12, 0.05, 0.2
    midpoints = (np.arange(n_sub) + 0.5) * dt_sub
    boundary = np.array([2, 3, 11])
    rng = np.random.default_rng(8)
    dm = rng.normal(size=(n_ch * n_sub, n_ch * n_sub))
    dm = (dm + dm.T).reshape(n_ch, n_sub, n_ch, n_sub)
    bbar = rng.normal(size=(n_ch, n_sub))

    def s_free(t):
        return unitary_superop(expm(-1.0j * h * t))

    lv = [-1.0j * (np.kron(c, np.eye(4)) - np.kron(np.eye(4), c.T)) for c in ops]
    g_want = np.array([[dt_sub * s_free(s).conj().T @ lv[a] @ s_free(s) for s in midpoints]
                       for a in range(n_ch)])
    g = _cv_generators(model, dt_sub, midpoints)
    npt.assert_allclose(g, g_want, rtol=0, atol=1e-13)

    want = np.zeros((boundary.size, 16, 16), dtype=complex)
    for pos, end in enumerate(boundary):
        acc = np.zeros((16, 16), dtype=complex)
        for a in range(n_ch):
            for j in range(end + 1):
                acc += bbar[a, j] * g_want[a, j]
                for a2 in range(n_ch):
                    for j2 in range(j + 1):
                        weight = 0.5 if j2 == j else 1.0
                        acc += weight * dm[a, j, a2, j2] * g_want[a, j] @ g_want[a2, j2]
        want[pos] = s_free(dt * (pos + 1)) @ acc
    got = _cv_corrections(model, g, bbar, dm.copy(), boundary, dt)
    npt.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("antithetic", [False, True])
def test_diagonal_control_variate_equals_substep_correction(antithetic):
    # a diagonal run corrects on its drawn step integrals with constant
    # generators; that must equal the time-ordered substep-level correction
    # on the substep draws of the same chunk generators
    model = two_qubit_dephasing(bias1=0.3, bias2=-0.2, zz=0.15, couplings=(1.0, 0.6),
                                cross=0.4, kappas=(1.0, 2.0))
    dt, n_steps, substeps, n_traj, seed, chunk = 0.2, 5, 4, 600, 9, 128
    n_ch, n_sub, dt_sub = 2, n_steps * substeps, dt / substeps
    midpoints = (np.arange(n_sub) + 0.5) * dt_sub
    boundary = substeps * np.arange(1, n_steps + 1) - 1

    def correction(sampler, g, boundary):
        draws = np.concatenate([d for d, _ in _chunks(sampler, n_traj, seed, chunk,
                                                      antithetic)])
        flat = draws.reshape(draws.shape[0], -1)
        n_col = flat.shape[1] // n_ch
        gram = (2.0 if antithetic else 1.0) * flat.T @ flat
        bbar = np.zeros(flat.shape[1]) if antithetic else flat.sum(axis=0)
        dm = (gram / n_traj - sampler.covariance()).reshape(n_ch, n_col, n_ch, n_col)
        return _cv_corrections(model, g, (bbar / n_traj).reshape(n_ch, n_col), dm,
                               boundary, dt)

    want = correction(GaussianPathSampler(model.noise, midpoints),
                      _cv_generators(model, dt_sub, midpoints), boundary)
    windows = np.repeat(np.eye(n_steps) * dt_sub, substeps, axis=0)
    got = correction(GaussianPathSampler(model.noise, midpoints, windows),
                     _cv_generators(model, 1.0, np.zeros(n_steps)), np.arange(n_steps))
    npt.assert_allclose(got, want, rtol=0, atol=1e-13)
    kwargs = dict(substeps=substeps, seed=seed, antithetic=antithetic, chunk_size=chunk)
    raw = simulate_process(model, dt, n_steps, n_traj, **kwargs)
    cv = simulate_process(model, dt, n_steps, n_traj, control_variate=True, **kwargs)
    npt.assert_allclose(np.stack(raw) - np.stack(cv), want, rtol=0, atol=1e-13)


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


def test_pulsed_kernels_match_per_path_expm_products():
    # a transverse qubit (quaternion kernel), a non-diagonal pair (Taylor
    # kernel) and two diagonal models (phase kernel): a biased z qubit with two
    # cross-correlated z channels and a pair with zz and per-qubit biases,
    # each also run without pulses. Uneven substep lengths per segment and a
    # pulse carrying a global phase: pulses act right after their boundary,
    # inside its sum
    eye = np.eye(2)
    hadamard = np.exp(0.3j) * (SIGMA_X + SIGMA_Z) / np.sqrt(2)
    cross = np.array([[1.0, 0.5], [0.5, 1.0]])
    qubit = SystemModel(h_system=0.3 * SIGMA_Z, couplings=(SIGMA_X, SIGMA_Y),
                        noise=NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                                         cross=np.eye(2)))
    pair = SystemModel(h_system=0.1 * np.kron(SIGMA_Z, eye) + 0.05 * np.kron(SIGMA_Z, SIGMA_Z),
                       couplings=(np.kron(SIGMA_X, eye), np.kron(eye, SIGMA_Z)),
                       noise=NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0), cross=cross))
    z_qubit = SystemModel(h_system=0.3 * SIGMA_Z,
                          couplings=(SIGMA_Z, 0.5 * SIGMA_Z + 0.2 * eye),
                          noise=NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0), cross=cross))
    z_pair = SystemModel(h_system=0.1 * np.kron(SIGMA_Z, eye) - 0.2 * np.kron(eye, SIGMA_Z)
                         + 0.05 * np.kron(SIGMA_Z, SIGMA_Z),
                         couplings=(np.kron(SIGMA_Z, eye), np.kron(eye, SIGMA_Z)),
                         noise=pair.noise)
    assert z_qubit.is_diagonal and z_pair.is_diagonal
    qubit_pulses = [hadamard, None, SIGMA_Y, hadamard]
    pair_pulses = [np.kron(hadamard, eye), None, np.kron(eye, SIGMA_Y),
                   np.kron(SIGMA_X, hadamard)]
    rng = np.random.default_rng(8)
    boundary = np.array([2, 5, 6, 11])
    dt_seg = np.array([0.1, 0.25, 0.05, 0.15])
    for model, pulses in ((qubit, qubit_pulses), (pair, pair_pulses),
                          (z_qubit, qubit_pulses), (z_pair, pair_pulses),
                          (z_qubit, None), (z_pair, None)):
        d, n_paths = model.dim, 6
        b = rng.normal(scale=2.0, size=(n_paths, 2, boundary[-1] + 1))
        want = np.zeros((boundary.size, d * d, d * d), dtype=complex)
        for p in range(n_paths):
            u = np.eye(d, dtype=complex)
            start = 0
            for pos, end in enumerate(boundary):
                for j in range(start, end + 1):
                    h = model.h_system + sum(b[p, a, j] * c
                                             for a, c in enumerate(model.couplings))
                    u = expm(-1.0j * h * dt_seg[pos]) @ u
                if pulses is not None and pulses[pos] is not None:
                    u = pulses[pos] @ u
                want[pos] += unitary_superop(u)
                start = end + 1
        if model.is_diagonal:
            # the phase kernel takes each segment's noise integral
            starts = np.concatenate([[0], boundary[:-1] + 1])
            b = np.add.reduceat(b, starts, axis=-1) * dt_seg
        got = _chunk_map_sums(model, b, dt_seg, boundary, pulses)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("squarings, outlier", [(0, 1.0), (1, 1.0), (4, 1.0), (4, 100.0)])
def test_taylor_kernel_matches_per_path_expm_products(d, squarings, outlier):
    # general-d kernel on random non-commuting operators with pulses and
    # uneven substep lengths. Each segment's length puts the largest 1-norm
    # of H dt_seg at 0.75 2^s theta, so the chunk takes s squarings there;
    # with an outlier path, the other paths alone would need none
    rng = np.random.default_rng(10 * d + squarings)
    noise = NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0),
                       cross=np.array([[1.0, 0.5], [0.5, 1.0]]))
    model = SystemModel(h_system=_random_hermitian(d, rng),
                        couplings=(_random_hermitian(d, rng), _random_hermitian(d, rng)),
                        noise=noise)
    n_paths, boundary = 5, np.array([1, 3, 4, 7])
    b = rng.normal(size=(n_paths, 2, boundary[-1] + 1))
    b[0] *= outlier
    hams = model.h_system + np.einsum("paj,aik->pjik", b, np.stack(model.couplings))
    norms = np.abs(hams).sum(axis=-2).max(axis=-1)
    starts = np.concatenate([[0], boundary[:-1] + 1])
    dt_seg = np.array([0.75 * 2.0**squarings * _TAYLOR_THETA / norms[:, i:e + 1].max()
                       for i, e in zip(starts, boundary)])
    if outlier > 1:
        bulk = max(norms[1:, i:e + 1].max() * t for i, e, t in zip(starts, boundary, dt_seg))
        assert bulk < _TAYLOR_THETA
    pulses = [_random_unitary(d, rng), None, _random_unitary(d, rng), None]
    want = np.zeros((boundary.size, d * d, d * d), dtype=complex)
    for p in range(n_paths):
        u = np.eye(d, dtype=complex)
        for pos, (i, e) in enumerate(zip(starts, boundary)):
            for j in range(i, e + 1):
                u = expm(-1.0j * hams[p, j] * dt_seg[pos]) @ u
            if pulses[pos] is not None:
                u = pulses[pos] @ u
            want[pos] += unitary_superop(u)
    got = _chunk_map_sums(model, b, dt_seg, boundary, pulses)
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_pulsed_process_rejects_non_unitary_pulses():
    model = dd_demo_model()
    for pulse in (0.5 * SIGMA_X, np.eye(4), np.ones(2)):
        with pytest.raises(ValueError, match="segment 1: pulse must be a 2x2 unitary"):
            simulate_pulsed_process(model, [(0.5, SIGMA_X), (0.5, pulse)], 1, n_traj=8)


def test_simulations_reject_empty_ensembles():
    model = _z_model()
    with pytest.raises(ValueError, match="n_traj must be >= 1, got 0"):
        simulate_process(model, 0.1, 2, n_traj=0)
    with pytest.raises(ValueError, match="n_traj must be >= 1, got -2"):
        simulate_pulsed_process(model, [(0.5, SIGMA_X)], 1, n_traj=-2)


def test_simulations_reject_substeps_below_one():
    model = _z_model()
    with pytest.raises(ValueError, match="substeps must be >= 1, got 0"):
        simulate_process(model, 0.1, 2, n_traj=8, substeps=0)
    with pytest.raises(ValueError, match="substeps must be >= 1, got 0"):
        simulate_pulsed_process(model, [(0.5, SIGMA_X)], 1, n_traj=8, substeps=0)
    with pytest.raises(ValueError, match="substeps must be an integer, got 2.5"):
        simulate_process(model, 0.1, 2, n_traj=8, substeps=2.5)
    with pytest.raises(ValueError, match="substeps must be an integer, got 2.5"):
        simulate_pulsed_process(model, [(0.5, SIGMA_X)], 1, n_traj=8, substeps=2.5)


def test_simulations_reject_empty_grids():
    model = _z_model()
    with pytest.raises(ValueError, match="n_steps must be >= 1, got 0"):
        simulate_process(model, 0.1, 0, n_traj=8)
    with pytest.raises(ValueError, match="n_cycles must be >= 1, got 0"):
        simulate_pulsed_process(model, [(0.5, SIGMA_X)], 0, n_traj=8)
    with pytest.raises(ValueError, match="n_steps must be an integer, got 2.5"):
        simulate_process(model, 0.1, 2.5, n_traj=8)
    with pytest.raises(ValueError, match="n_cycles must be an integer, got 2.5"):
        simulate_pulsed_process(model, [(0.5, SIGMA_X)], 2.5, n_traj=8)


@pytest.mark.parametrize("chunk_size", [-1, 0, 2.5])
def test_simulations_reject_bad_chunk_sizes(chunk_size):
    model = _z_model()
    with pytest.raises(ValueError, match="chunk_size must be"):
        simulate_process(model, 0.1, 2, n_traj=8, chunk_size=chunk_size)
    with pytest.raises(ValueError, match="chunk_size must be"):
        simulate_pulsed_process(model, [(0.5, SIGMA_X)], 1, n_traj=8, chunk_size=chunk_size)


def test_pulsed_process_rejects_empty_segments():
    with pytest.raises(ValueError, match="segments must hold at least one"):
        simulate_pulsed_process(_z_model(), [], 2, n_traj=8)


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
def test_simulate_process_rejects_non_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        simulate_process(_z_model(), dt, 2, n_traj=8)


def test_pulsed_process_rejects_negative_durations():
    for duration in (-0.5, float("inf")):
        with pytest.raises(ValueError,
                           match=f"segment 1: duration must be finite and >= 0, got {duration}"):
            simulate_pulsed_process(_z_model(), [(0.5, SIGMA_X), (duration, SIGMA_X)], 1,
                                    n_traj=8)


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
    mean_states = _mean_states(model, _draw_paths(model, dt, n_steps, seed=31, n_paths=n),
                               dt, rho0)
    exact = dephasing_map_series(model, dt, n_steps)
    for k in range(n_steps):
        want = unvec(exact[k] @ vec(rho0))
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
