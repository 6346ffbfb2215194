"""Trajectory evolution, Monte Carlo process maps, closed-form dephasing."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from ttmkit import propagator
from ttmkit.liouville import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _free_superops,
    min_choi_eigenvalue,
    pauli_string,
    trace_preservation_defect,
    unitary_superop,
    unvec,
    vec,
)
from ttmkit.noisegen import CovarianceCapError, GaussianPathSampler, NoiseModel
from ttmkit.presets import (
    _qubit_operators,
    correlated_pair_model,
    coupled_pair_model,
    dd_demo_model,
    revival_demo_model,
    single_qubit_model,
    transverse_noise_model,
    two_qubit_dephasing,
    weak_dephasing_model,
)
from ttmkit.propagator import (
    _TAYLOR_THETA,
    SystemModel,
    _chunk_map_sums,
    _chunks,
    _cv_corrections,
    _cv_generators,
    _mirror,
    _phase_kernel,
    dephasing_map,
    dephasing_map_series,
    simulate_process,
    simulate_pulsed_process,
)

from conftest import (
    dephasing_coherence,
    double_integral_correlation,
    map_distance,
    ou_map_series,
    random_density,
    toggled_variance,
)


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_QUTRIT = SystemModel(h_system=np.zeros((3, 3)), couplings=(np.diag([1.0, 0.0, -1.0]),),
                      noise=NoiseModel.single(1.0, 1.0))


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
    """Noise integrals (n_paths, n_channels, n_steps) over the steps."""
    sampler = GaussianPathSampler(model.noise, dt * np.arange(1, n_steps + 1))
    return sampler.sample(np.random.default_rng(seed), n_paths)


def _mean_states(model, b, dt, rho0):
    """Path-averaged states at every step of the noise integrals b (P, n_ch, n_steps).

    Each step is one segment of one interval; a diagonal model takes the
    phase kernel, any other a step kernel."""
    n_steps = b.shape[-1]
    if model.is_diagonal:
        maps = _phase_kernel(model, np.full(n_steps, dt), [None] * n_steps)(b)
    else:
        maps = _chunk_map_sums(model, b[..., None], np.full(n_steps, dt), [None] * n_steps)
    return (maps / b.shape[0] @ vec(rho0)).reshape(-1, model.dim, model.dim)


def _expm_map_sums(model, b, tau, pulses):
    """Per-path products of exp(-i (h tau + sum_a I_a c_a)) summed into maps, on the
    kernel's (P, n_ch, n_seg, m) layout of interval integrals."""
    d = model.dim
    want = np.zeros((b.shape[2], d * d, d * d), dtype=complex)
    for path in b:
        u = np.eye(d, dtype=complex)
        for k in range(b.shape[2]):
            for integrals in path[:, k].T:
                h = model.h_system * tau[k] + sum(i * c for i, c in zip(integrals, model.couplings))
                u = expm(-1.0j * h) @ u
            if pulses[k] is not None:
                u = pulses[k] @ u
            want[k] += unitary_superop(u)
    return want


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
    # constant B just shifts the precession frequency; rho_10 advances with
    # the positive phase 2(bias + B) t under sigma_z = diag(1, -1)
    bias, b = 0.1, 0.35
    model = _z_model(bias=bias)
    dt, n = 0.2, 12
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    states = _mean_states(model, np.full((1, 1, n), b * dt), dt, rho0)
    for k, rho in enumerate(states, start=1):
        want = 0.5 * np.exp(2j * (bias + b) * k * dt)
        assert abs(rho[1, 0] - want) < 1e-12


def _random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def _random_unitary(d, rng):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def test_evolve_trajectory_matches_expm_products_off_the_diagonal():
    # a transverse qubit (Cayley-Klein SU(2) kernel), a non-diagonal pair and a
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
        integrals = rng.normal(scale=0.3, size=(2, n_steps))
        rho0 = random_density(d, rng)
        states = _mean_states(model, integrals[None], dt, rho0)
        u = np.eye(d, dtype=complex)
        for k in range(n_steps):
            h = model.h_system * dt + sum(integrals[a, k] * c
                                          for a, c in enumerate(model.couplings))
            u = expm(-1.0j * h) @ u
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
    # g[a, j] = S(s_j)^H L_a S(s_j) per unit integral at the interval
    # midpoints s_j and the time-ordered second-order sum, taken pair by
    # pair, at the ends of four segments of three intervals
    eye = np.eye(2)
    h = 0.3 * np.kron(SIGMA_Z, eye) - 0.7 * np.kron(eye, SIGMA_Z)
    ops = (np.kron(SIGMA_X, eye), np.kron(eye, SIGMA_Y))
    model = SystemModel(h_system=h, couplings=ops,
                        noise=NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                                         cross=np.diag([1.0, 0.5])))
    n_ch, n_sub, dt_sub, dt = 2, 12, 0.05, 0.2
    midpoints = (np.arange(n_sub) + 0.5) * dt_sub
    n_seg = 4
    rng = np.random.default_rng(8)
    dm = rng.normal(size=(n_ch * n_sub, n_ch * n_sub))
    dm = (dm + dm.T).reshape(n_ch, n_sub, n_ch, n_sub)
    bbar = rng.normal(size=(n_ch, n_sub))

    def s_free(t):
        return unitary_superop(expm(-1.0j * h * t))

    lv = [-1.0j * (np.kron(c, np.eye(4)) - np.kron(np.eye(4), c.T)) for c in ops]
    g_want = np.array([[s_free(s).conj().T @ lv[a] @ s_free(s) for s in midpoints]
                       for a in range(n_ch)])
    g = _cv_generators(model, midpoints)
    npt.assert_allclose(g, g_want, rtol=0, atol=1e-13)

    want = np.zeros((n_seg, 16, 16), dtype=complex)
    for pos, end in enumerate(range(2, n_sub, 3)):
        acc = np.zeros((16, 16), dtype=complex)
        for a in range(n_ch):
            for j in range(end + 1):
                acc += bbar[a, j] * g_want[a, j]
                for a2 in range(n_ch):
                    for j2 in range(j + 1):
                        weight = 0.5 if j2 == j else 1.0
                        acc += weight * dm[a, j, a2, j2] * g_want[a, j] @ g_want[a2, j2]
        want[pos] = s_free(dt * (pos + 1)) @ acc
    got = _cv_corrections(model, g, bbar, dm.copy(), n_seg, dt)
    npt.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("antithetic", [False, True])
def test_diagonal_control_variate_equals_substep_correction(antithetic):
    # a diagonal run corrects on its drawn step integrals with constant
    # generators. On substep interval draws, the time-ordered substep-level
    # correction with generators at the interval midpoints equals the
    # constant-generator one on their step sums; and a run's correction is
    # the constant-generator one on its exact step integrals, drawn by the
    # same chunk generators
    model = two_qubit_dephasing(bias1=0.3, bias2=-0.2, zz=0.15, couplings=(1.0, 0.6),
                                cross=0.4, kappas=(1.0, 2.0))
    dt, n_steps, substeps, n_traj, seed, chunk = 0.2, 5, 4, 600, 9, 128
    n_ch, n_sub, dt_sub = 2, n_steps * substeps, dt / substeps
    midpoints = (np.arange(n_sub) + 0.5) * dt_sub

    def correction(draws, covariance, g):
        flat = draws.reshape(draws.shape[0], -1)
        n_col = flat.shape[1] // n_ch
        gram = (2.0 if antithetic else 1.0) * flat.T @ flat
        bbar = np.zeros(flat.shape[1]) if antithetic else flat.sum(axis=0)
        dm = (gram / n_traj - covariance).reshape(n_ch, n_col, n_ch, n_col)
        return _cv_corrections(model, g, (bbar / n_traj).reshape(n_ch, n_col), dm,
                               n_steps, dt)

    def draws(sampler):
        return np.concatenate(list(_chunks(sampler, n_traj, seed, chunk, antithetic)))

    constant = _cv_generators(model, np.zeros(n_steps))
    fine = GaussianPathSampler(model.noise, dt_sub * np.arange(1, n_sub + 1))
    want = correction(draws(fine), fine.covariance(), _cv_generators(model, midpoints))
    windows = np.repeat(np.eye(n_steps), substeps, axis=0)
    cov = np.einsum("ik,aibj,jl->akbl", windows,
                    fine.covariance().reshape(n_ch, n_sub, n_ch, n_sub), windows)
    got = correction(draws(fine) @ windows, cov.reshape(n_ch * n_steps, -1), constant)
    npt.assert_allclose(got, want, rtol=0, atol=1e-13)
    integrals = GaussianPathSampler(model.noise, dt * np.arange(1, n_steps + 1))
    want = correction(draws(integrals), integrals.covariance(), constant)
    kwargs = dict(substeps=substeps, seed=seed, antithetic=antithetic, chunk_size=chunk)
    raw = simulate_process(model, dt, n_steps, n_traj, **kwargs)
    cv = simulate_process(model, dt, n_steps, n_traj, control_variate=True, **kwargs)
    npt.assert_allclose(np.stack(raw) - np.stack(cv), want, rtol=0, atol=1e-13)


def test_diagonal_runs_do_not_depend_on_substeps():
    # a diagonal run draws each step's exact noise integral, so the
    # substep count never reaches its maps
    model = coupled_pair_model()
    kwargs = dict(seed=4, antithetic=True, chunk_size=64, control_variate=True)
    one = simulate_process(model, 0.2, 6, 256, substeps=1, **kwargs)
    fine = simulate_process(model, 0.2, 6, 256, substeps=32, **kwargs)
    assert np.stack(one).tobytes() == np.stack(fine).tobytes()


def test_diagonal_runs_carry_no_midpoint_bias():
    # at one value per step the midpoint rule missed the revival qubit's
    # closed form by 3e-2 (15 sigma); exact step integrals leave the maps
    # within 3 sigma of it at every step, sigma from the chunk means
    model = revival_demo_model()
    maps, means = simulate_process(model, 0.2, 30, 65_536, substeps=1, seed=0,
                                   antithetic=True, collect_chunk_means=True)
    sigma = means.std(axis=0) / np.sqrt(len(means))
    dev = np.abs(np.stack(maps) - np.stack(dephasing_map_series(model, 0.2, 30)))
    resolved = sigma > 0
    assert np.all(dev[~resolved] < 1e-12)
    assert np.max(dev[resolved] / sigma[resolved]) < 3.0


@pytest.mark.parametrize("control_variate", [False, True])
def test_commuting_pair_equals_its_rotated_diagonal_twin(control_variate):
    # x noise on an unbiased pair commutes with itself, so the run draws the
    # same step integrals as the z-noise twin and its maps are the twin's
    # conjugated by H (x) H, to rounding
    twin = two_qubit_dephasing(bias1=0.0, bias2=0.0, zz=0.0, cross=0.5)
    kwargs = dict(substeps=4, seed=3, antithetic=True, chunk_size=96,
                  control_variate=control_variate)
    maps = simulate_process(_x_pair(), 0.2, 6, 256, **kwargs)
    s = unitary_superop(np.kron(_HADAMARD, _HADAMARD))
    want = [s @ m @ s.conj().T for m in simulate_process(twin, 0.2, 6, 256, **kwargs)]
    npt.assert_allclose(np.stack(maps), np.stack(want), rtol=0, atol=1e-12)


def test_commuting_pulsed_qubit_equals_its_rotated_diagonal_twin():
    # an x bias with x noise commutes: the run takes the phase kernel in the
    # Hadamard basis, pulses rotated into it, and equals the z-bias z-noise
    # twin under the Hadamard-conjugated pulses
    noise = NoiseModel.single(1.0, 1.0, omega=2.0)
    model = SystemModel(h_system=0.3 * SIGMA_X, couplings=(SIGMA_X,), noise=noise)
    twin = SystemModel(h_system=0.3 * SIGMA_Z, couplings=(SIGMA_Z,), noise=noise)
    segments = [(0.3, SIGMA_Y), (0.5, None), (0.2, np.exp(0.4j) * SIGMA_Z)]
    maps = simulate_pulsed_process(model, segments, 5, 200, seed=1)
    rotated = [(t, None if p is None else _HADAMARD @ p @ _HADAMARD) for t, p in segments]
    s = unitary_superop(_HADAMARD)
    want = [s @ m @ s.conj().T for m in simulate_pulsed_process(twin, rotated, 5, 200, seed=1)]
    npt.assert_allclose(np.stack(maps), np.stack(want), rtol=0, atol=1e-12)


def test_phase_frame_refuses_a_basis_that_is_not_joint(monkeypatch):
    # an accidental degeneracy of the generic combination would let eigh
    # return a basis that mixes joint eigenvectors; such a basis (forced
    # here by rotating two eigenvectors of different X1 eigenvalue into
    # each other) leaves the rotated X1 off-diagonal, so the run steps on
    # substep intervals. The true basis reproduces every operator
    eye = np.eye(2)
    noise = NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0), cross=np.eye(2))
    couplings = (np.kron(SIGMA_X, eye), np.kron(eye, SIGMA_X))
    model = SystemModel(0.3 * couplings[0], couplings, noise)
    q, diagonal = propagator._phase_frame(model)
    for op, d in zip((model.h_system,) + couplings, (diagonal.h_system,) + diagonal.couplings):
        npt.assert_allclose(q @ d @ q.conj().T, op, rtol=0, atol=1e-14)
    x1 = np.real(np.diagonal(diagonal.couplings[0]))
    i, j = np.flatnonzero(x1 > 0)[0], np.flatnonzero(x1 < 0)[0]
    mixed = q.copy()
    mixed[:, [i, j]] = q[:, [i, j]] @ (np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (None, mixed))
    assert propagator._phase_frame(model) is None


def test_covariance_cap_counts_the_drawn_values():
    # a commuting run draws one value per channel and step, any other model
    # one per channel and substep interval
    with pytest.raises(CovarianceCapError, match="intervals"):
        simulate_process(_z_model(), 0.01, 4097, 2)
    with pytest.raises(CovarianceCapError, match="intervals"):
        simulate_process(transverse_noise_model(), 0.01, 513, 2, substeps=8)
    assert len(simulate_process(_z_model(), 0.01, 513, 2, substeps=8)) == 513


def _local_pair(zz=0.0):
    """Two qubits with local x, y and z terms and biases in h_system and in
    both cross-correlated couplings, plus zz sigma_z (x) sigma_z."""
    eye = np.eye(2)
    h = (0.3 * np.kron(SIGMA_Z, eye) - 0.2 * np.kron(eye, SIGMA_Z) + 0.1 * np.kron(SIGMA_X, eye)
         + 0.4 * np.eye(4) + zz * np.kron(SIGMA_Z, SIGMA_Z))
    couplings = (np.kron(SIGMA_X, eye) + 0.5 * np.kron(eye, SIGMA_Z),
                 np.kron(eye, SIGMA_Y) - 0.3 * np.kron(SIGMA_Z, eye) + 0.2 * np.eye(4))
    return SystemModel(h_system=h, couplings=couplings,
                       noise=NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                                        cross=np.array([[1.0, 0.5], [0.5, 1.0]])))


def _local_triple():
    """Three qubits with local x, y and z terms and biases on every qubit."""
    p = pauli_string
    return SystemModel(
        h_system=0.3 * p("ZII") - 0.2 * p("IXI") + 0.1 * p("IIY") + 0.4 * np.eye(8),
        couplings=(p("XII") + 0.5 * p("IZI") - 0.2 * p("IIX"),
                   p("IIY") - 0.3 * p("ZII") + 0.2 * np.eye(8)),
        noise=NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0), cross=np.eye(2)))


def test_su2_kernel_matches_per_path_expm_products():
    # a transverse qubit with a global-phase term, a qubit-local pair on
    # cross-correlated channels and a qubit-local triple (one Cayley-Klein
    # pair per qubit, each path's U built by one Kronecker step per qubit):
    # the kernel's summed maps must equal the sum of per-path superoperators
    # of expm step products, at odd and even substep counts (the pairwise
    # product's odd tail) and a different substep length in each segment
    noise = NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0), cross=np.eye(2))
    qubit = SystemModel(h_system=0.3 * SIGMA_Z + 0.2 * np.eye(2),
                        couplings=(SIGMA_X, SIGMA_Y + 0.5 * np.eye(2)), noise=noise)
    rng = np.random.default_rng(3)
    tau = np.array([0.15, 0.05, 0.3, 0.1])
    for model in (qubit, _local_pair(), _local_triple()):
        for substeps in (1, 2, 3, 5, 8):
            b = rng.normal(scale=2.0, size=(12, 2, tau.size, substeps))
            got = _chunk_map_sums(model, b, tau, [None] * tau.size)
            npt.assert_allclose(got, _expm_map_sums(model, b, tau, [None] * tau.size),
                                rtol=0, atol=1e-12)


def _random_model(d, seed):
    rng = np.random.default_rng(seed)
    return SystemModel(h_system=_random_hermitian(d, rng), couplings=(_random_hermitian(d, rng),),
                       noise=NoiseModel.single(1.0, 1.0))


@pytest.mark.parametrize("model, pulse, kernel", [
    (transverse_noise_model(), None, "su2"),
    (transverse_noise_model(), np.eye(2), "su2"),
    (_local_pair(), None, "su2"),
    (_local_triple(), None, "su2"),
    (_local_pair(zz=0.1), None, "taylor"),
    (_local_pair(zz=1e-12), None, "taylor"),
    (_random_model(4, 5), None, "taylor"),
    (_local_pair(), np.eye(4), "taylor"),
    (_random_model(3, 6), None, "taylor"),
    (two_qubit_dephasing(), pauli_string("XY"), "phase"),
    (_z_model(), _HADAMARD, "su2"),
    (two_qubit_dephasing(), np.kron(_HADAMARD, np.eye(2)), "taylor"),
], ids=["qubit", "qubit-pulsed", "local-pair", "local-triple", "zz-pair", "tiny-zz-pair",
        "random-4x4", "local-pair-pulsed", "qutrit", "dephasing-pair-pulsed",
        "dephasing-qubit-hadamard", "dephasing-pair-hadamard"])
def test_step_kernel_follows_the_model_structure(model, pulse, kernel, monkeypatch):
    # a lone qubit and pulse-free qubits of qubit-local terms (a pair, a
    # triple) take the SU(2) kernel; any weight-2 Pauli term above 1e-14 (a
    # zz coupling, a random Hermitian), pulses on a pair and a qutrit take
    # the Taylor kernel; a diagonal model with monomial pulses takes
    # neither, and one with a Hadamard pulse hands its segment integrals to
    # the kernel its structure picks, one value per segment
    calls = {"su2": 0, "taylor": 0}

    def count(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(propagator, "_su2_segment", count("su2", propagator._su2_segment))
    monkeypatch.setattr(propagator, "_expm_paths", count("taylor", propagator._expm_paths))
    simulate_pulsed_process(model, [(0.1, pulse), (0.2, None)], 1, n_traj=3, substeps=2)
    m = 2 if propagator._phase_frame(model) is None else 1  # Taylor steps per segment
    assert calls == {"su2": 2 * (kernel == "su2"), "taylor": 2 * m * (kernel == "taylor")}


def test_su2_kernel_takes_a_zero_step_vector_as_the_identity():
    # h_system proportional to I and an all-zero path give |v| = 0 at every
    # substep, where sin(t) / |v| is never formed: that path's map is the
    # identity, with no divide warning, while a noisy path beside it still
    # matches its expm products
    model = SystemModel(h_system=0.7 * np.eye(2), couplings=(SIGMA_X,),
                        noise=NoiseModel.single(1.0, 1.0))
    b = np.zeros((2, 1, 3, 4))
    b[1] = np.random.default_rng(4).normal(size=(1, 3, 4))
    tau = np.array([0.1, 0.2, 0.05])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        still = _chunk_map_sums(model, b[:1], tau, [None] * 3)
        both = _chunk_map_sums(model, b, tau, [None] * 3)
    npt.assert_array_equal(still, np.broadcast_to(np.eye(4), still.shape))
    npt.assert_allclose(both, _expm_map_sums(model, b, tau, [None] * 3), rtol=0, atol=1e-12)


def test_long_su2_products_stay_trace_preserving():
    # one segment of 1024 substeps (ten levels of pairwise products) and 200
    # segments of 3 (the odd tail at every segment, 200 cumulative products):
    # each step is unitary to rounding, so no map drifts off trace preservation
    model = transverse_noise_model()
    rng = np.random.default_rng(6)
    for n_seg, substeps in ((1, 1024), (200, 3)):
        b = rng.normal(scale=2.0, size=(64, 1, n_seg, substeps))
        maps = _chunk_map_sums(model, b, np.full(n_seg, 0.01), [None] * n_seg) / 64
        assert max(trace_preservation_defect(sop) for sop in maps) < 1e-12


@pytest.mark.parametrize("model", [dd_demo_model(), transverse_noise_model(), _local_pair(),
                                   _local_pair(zz=0.1)],
                         ids=["phase", "su2", "su2-pair", "taylor"])
def test_pulsed_runs_keep_the_cycle_ends_of_the_plain_grid(model):
    # a cycle of two pulse-free segments of dt is two plain steps; the pulsed
    # run forms path sums only at cycle ends, which equal steps 2, 4, ..., 2k
    k, dt = 3, 0.2
    plain = simulate_process(model, dt, 2 * k, n_traj=48, substeps=2, seed=5, chunk_size=32)
    pulsed = simulate_pulsed_process(model, [(dt, None), (dt, None)], k, n_traj=48,
                                     substeps=2, seed=5, chunk_size=32)
    assert len(pulsed) == k
    assert np.stack(pulsed).tobytes() == np.stack(plain[1::2]).tobytes()


def test_pulsed_kernels_match_per_path_expm_products():
    # a transverse qubit (Cayley-Klein SU(2) kernel), a non-diagonal pair (Taylor
    # kernel) and two diagonal models: a biased z qubit with two
    # cross-correlated z channels and a pair with zz and per-qubit biases,
    # whose Hadamard pulses take the SU(2) and Taylor kernels, each also run
    # without pulses, where the phase kernel on the segment sums of the
    # integrals gives the same maps. Odd and even interval counts, a
    # different interval length in each segment, a pulse carrying a global
    # phase and real pulses of determinant -1 (a float Hadamard, whose pair
    # needs a complex root): pulses act at the end of their segment, inside
    # its sum
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
    no_pulses = [None] * 4
    rng = np.random.default_rng(8)
    tau = np.array([0.1, 0.25, 0.05, 0.15])
    for model, pulses in ((qubit, qubit_pulses), (qubit, [_HADAMARD, None, SIGMA_X.real, None]),
                          (pair, pair_pulses), (z_qubit, qubit_pulses), (z_pair, pair_pulses),
                          (z_qubit, no_pulses), (z_pair, no_pulses)):
        for substeps in (1, 3, 4):
            b = rng.normal(scale=2.0, size=(6, 2, tau.size, substeps))
            want = _expm_map_sums(model, b, tau, pulses)
            npt.assert_allclose(_chunk_map_sums(model, b, tau, pulses), want, rtol=0, atol=1e-12)
            phase = _phase_kernel(model, substeps * tau, pulses)
            assert (phase is None) == (not model.is_diagonal or pulses is not no_pulses)
            if phase is not None:
                npt.assert_allclose(phase(b.sum(axis=-1)), want, rtol=0, atol=1e-12)



def test_monomial_pulses_take_the_toggling_frame_exactly():
    # pulses that permute the joint eigenbasis and carry phases (a
    # phase-carrying X, a CNOT on the z pair, a cyclic shift with phases on
    # the qutrit) take the toggling kernel, every stride of sums matching
    # per-path expm products; with a Hadamard after monomial pulses there is
    # no phase kernel, and the SU(2) or Taylor kernel on one interval per
    # segment is exact as well
    eye = np.eye(2)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    shift = np.eye(3)[[2, 0, 1]] * np.exp([0.3j, -1.1j, 2.0j])
    z_qubit = SystemModel(h_system=0.3 * SIGMA_Z, couplings=(SIGMA_Z, 0.5 * SIGMA_Z + 0.2 * eye),
                          noise=NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                                           cross=np.array([[1.0, 0.5], [0.5, 1.0]])))
    z_pair = two_qubit_dephasing(bias1=0.1, bias2=-0.2, zz=0.05, cross=0.5)
    qutrit = SystemModel(h_system=np.diag([0.2, -0.5, 0.1]), couplings=_QUTRIT.couplings,
                         noise=_QUTRIT.noise)
    cases = [
        (z_qubit, [np.exp(0.7j) * SIGMA_X, None, SIGMA_Y, np.exp(-0.2j) * SIGMA_X], True),
        (z_pair, [cnot, np.kron(SIGMA_X, SIGMA_Y), None, np.exp(0.4j) * cnot], True),
        (_QUTRIT, [shift, None, shift, shift.conj().T], True),
        (qutrit, [shift, shift, None, shift], True),
        (z_qubit, [SIGMA_X, SIGMA_Y, _HADAMARD, None], False),
        (z_pair, [cnot, None, np.kron(eye, _HADAMARD), np.kron(SIGMA_X, eye)], False),
    ]
    rng = np.random.default_rng(11)
    durations = np.array([0.1, 0.25, 0.05, 0.15])
    for model, pulses, monomial in cases:
        pulses = [None if p is None else np.asarray(p, dtype=complex) for p in pulses]
        integrals = rng.normal(scale=0.5, size=(5, model.noise.n_channels, durations.size))
        want = _expm_map_sums(model, integrals[..., None], durations, pulses)
        for stride in (1, 2, 4):
            phase = _phase_kernel(model, durations, pulses, stride)
            assert (phase is not None) == monomial
            got = (phase(integrals) if monomial else
                   _chunk_map_sums(model, integrals[..., None], durations, pulses, stride))
            npt.assert_allclose(got, want[stride - 1::stride], rtol=0, atol=1e-12)


@pytest.mark.parametrize("model", [
    dd_demo_model(),
    two_qubit_dephasing(bias1=0.1, bias2=-0.2, zz=0.05, cross=0.5),
    _QUTRIT,
    SystemModel(h_system=np.diag([0.2, -0.5, 0.1]), couplings=_QUTRIT.couplings,
                noise=_QUTRIT.noise),
], ids=["unbiased-qubit", "biased-pair", "qutrit", "biased-qutrit"])
def test_phase_kernel_sums_mirrored_paths_by_conjugation(model):
    # an antithetic chunk's mirrored paths negate the noise phases, so their
    # noise rows are the conjugates of the drawn ones: the kernel's
    # antithetic sums equal its sums over [draws; -draws], with or without
    # a Pauli string that flips the couplings, and at every stride
    rng = np.random.default_rng(12)
    durations = np.array([0.3, 0.1, 0.25, 0.2])
    draws = rng.normal(size=(7, model.noise.n_channels, durations.size))
    for stride in (1, 2):
        got = _phase_kernel(model, durations, [None] * 4, stride, antithetic=True)(draws)
        want = _phase_kernel(model, durations, [None] * 4, stride)(np.concatenate([draws, -draws]))
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("pulse", [SIGMA_X, _HADAMARD], ids=["toggling", "step"])
def test_zero_length_segments_match_per_path_expm_products(pulse):
    # a zero-length segment draws an integral of exactly 0 and propagates by
    # the identity on the phase and step kernels, with no divide warning;
    # the maps equal per-path expm products on the run's own draws
    model = _z_model()
    segments, n_cycles, n_traj = [(0.5, pulse), (0.0, SIGMA_Y)], 3, 16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maps = simulate_pulsed_process(model, segments, n_cycles, n_traj, seed=4)
    durations = np.array([0.5, 0.0] * n_cycles)
    sampler = GaussianPathSampler(model.noise, np.cumsum(durations))
    (draws,) = _chunks(sampler, n_traj, 4, 1024)
    assert not draws[:, :, 1::2].any()
    want = _expm_map_sums(model, draws[..., None], durations, [pulse, SIGMA_Y] * n_cycles)
    npt.assert_allclose(np.stack(maps), want[1::2] / n_traj, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("squarings, outlier", [(0, 1.0), (1, 1.0), (4, 1.0), (4, 100.0)])
def test_taylor_kernel_matches_per_path_expm_products(d, squarings, outlier):
    # general-d kernel on random non-commuting operators with pulses, odd
    # and even interval counts and a different interval length per segment.
    # The integrals are tau times the values b, and each segment's length
    # puts the largest 1-norm of H tau at 0.75 2^s theta, so the chunk takes
    # s squarings there; with an outlier path, the other paths alone would
    # need none
    rng = np.random.default_rng(10 * d + squarings)
    noise = NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0),
                       cross=np.array([[1.0, 0.5], [0.5, 1.0]]))
    model = SystemModel(h_system=_random_hermitian(d, rng),
                        couplings=(_random_hermitian(d, rng), _random_hermitian(d, rng)),
                        noise=noise)
    pulses = [_random_unitary(d, rng), None, _random_unitary(d, rng), None]
    for substeps in (2, 3):
        b = rng.normal(size=(5, 2, len(pulses), substeps))
        b[0] *= outlier
        hams = model.h_system + np.einsum("pakj,ail->pkjil", b, np.stack(model.couplings))
        norms = np.abs(hams).sum(axis=-2).max(axis=-1)  # (P, n_seg, m)
        tau = 0.75 * 2.0**squarings * _TAYLOR_THETA / norms.max(axis=(0, 2))
        if outlier > 1:
            assert (norms[1:].max(axis=2) * tau).max() < _TAYLOR_THETA
        integrals = b * tau[:, None]
        got = _chunk_map_sums(model, integrals, tau, pulses)
        npt.assert_allclose(got, _expm_map_sums(model, integrals, tau, pulses),
                            rtol=0, atol=1e-12)


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


def _x_pair(variance=1.0, cross=0.5, bias=0.0, zz=0.0):
    """Two qubits under cross-correlated x noise on each, with equal z biases
    and a zz coupling."""
    h, couplings = _qubit_operators([bias, bias], [("x", 1), ("x", 2)], zz)
    noise = NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0),
                       cross=np.array([[variance, cross], [cross, variance]]))
    return SystemModel(h_system=h, couplings=couplings, noise=noise)


def _xz_qubit(bias):
    return SystemModel(h_system=bias * SIGMA_Z, couplings=(SIGMA_X, SIGMA_Z),
                       noise=NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                                        cross=np.eye(2)))


@pytest.mark.parametrize("model, label", [
    (transverse_noise_model(), "Z"),
    (_x_pair(), "ZZ"),
    (single_qubit_model(0.0, "z", 1.0, 1.0), "X"),
    (_xz_qubit(0.0), "Y"),
    (single_qubit_model(0.1, "z", 1.0, 1.0), None),
    (coupled_pair_model(), None),
    (_xz_qubit(0.3), None),
    (_QUTRIT, None),
], ids=["transverse", "x-pair", "z-unbiased", "xz-unbiased", "z-biased", "coupled-pair",
        "xz-biased", "qutrit"])
def test_mirror_is_the_pauli_string_that_flips_every_coupling(model, label):
    # Pi(P) = P (x) conj(P) for the first qualifying string, Z before X before
    # Y on each qubit; a biased z qubit, the zz-coupled pair, a biased x+z
    # qubit and any d that is not a power of 2 have none
    got = _mirror(model)
    if label is None:
        assert got is None
    else:
        npt.assert_array_equal(got, unitary_superop(pauli_string(label)))


@pytest.mark.parametrize("control_variate", [False, True])
@pytest.mark.parametrize("model, dt, n_steps", [
    (transverse_noise_model(), 0.04, 6),
    (_x_pair(bias=0.1), 0.2, 4),
    (_x_pair(zz=0.1), 0.2, 4),
    (dd_demo_model(), 2.0, 3),
    (_x_pair(), 0.2, 4),
], ids=["su2", "su2-pair", "taylor", "diagonal", "commuting-pair"])
def test_mirrored_antithetic_runs_equal_the_explicit_pairs(model, dt, n_steps,
                                                           control_variate, monkeypatch):
    # a mirrored chunk sums S + Pi S Pi^H over its draws, and the phase
    # kernel takes 2 Re of the drawn half's sums; the explicit pairs
    # propagate [draws; -draws], through the step kernels without the mirror
    # and through the phase kernel without its antithetic sums. Maps and
    # chunk means agree to rounding, on a last chunk of 44 draws next to two
    # of 128 as well
    assert _mirror(model) is not None
    kwargs = dict(n_traj=600, substeps=3, seed=5, antithetic=True, chunk_size=128,
                  collect_chunk_means=True, control_variate=control_variate)
    maps, means = simulate_process(model, dt, n_steps, **kwargs)
    phase_kernel = propagator._phase_kernel

    def explicit_pairs(model, durations, pulses, stride, antithetic):
        kernel = phase_kernel(model, durations, pulses, stride)
        if kernel is None:
            return None
        return lambda draws: kernel(np.concatenate([draws, -draws]))

    monkeypatch.setattr(propagator, "_mirror", lambda model: None)
    monkeypatch.setattr(propagator, "_phase_kernel", explicit_pairs)
    want_maps, want_means = simulate_process(model, dt, n_steps, **kwargs)
    assert means.shape == want_means.shape == (3, n_steps) + maps[0].shape
    npt.assert_allclose(np.stack(maps), np.stack(want_maps), rtol=0, atol=1e-14)
    npt.assert_allclose(means, want_means, rtol=0, atol=1e-14)


@pytest.mark.parametrize("model, dt, n_steps, levels", [
    (weak_dephasing_model(), 0.2, 30, 10),
    (dd_demo_model(), 2.0, 12, 40),
    (correlated_pair_model(), 0.2, 30, 40),
], ids=["weak-dephasing", "dd-demo", "correlated-pair"])
def test_ou_hierarchy_matches_the_closed_form_dephasing_maps(model, dt, n_steps, levels):
    exact = ou_map_series(model, dt, n_steps, levels)
    npt.assert_allclose(np.stack(exact), np.stack(dephasing_map_series(model, dt, n_steps)),
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("model, dt, n_steps, levels", [
    (transverse_noise_model(), 0.04, 25, 8),
    (_x_pair(0.25, 0.125, bias=0.1), 0.2, 8, 16),
    (_x_pair(0.25, 0.125, bias=0.1, zz=0.1), 0.2, 8, 16),
], ids=["transverse", "x-pair", "x-pair-zz"])
def test_ou_hierarchy_converges_under_level_doubling(model, dt, n_steps, levels):
    npt.assert_allclose(np.stack(ou_map_series(model, dt, n_steps, levels)),
                        np.stack(ou_map_series(model, dt, n_steps, 2 * levels)),
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("model, dt, n_steps, levels, control_variate", [
    (transverse_noise_model(), 0.04, 25, 8, False),
    (transverse_noise_model(), 0.04, 25, 8, True),
    (_x_pair(0.25, 0.125, bias=0.1), 0.2, 8, 16, False),
    (_x_pair(0.25, 0.125, bias=0.1, zz=0.1), 0.2, 8, 16, False),
], ids=["su2", "su2-control-variate", "su2-pair", "taylor"])
def test_mirrored_ensemble_means_match_the_ou_hierarchy(model, dt, n_steps, levels,
                                                        control_variate):
    # exact maps from Kubo's hierarchy, not from the simulator: the mirrored
    # antithetic mean lies within 4 sigma of them entry by entry, sigma from
    # 32 raw chunk means. The control variate is checked at the weak
    # coupling it is built for, where it only shrinks the error
    assert _mirror(model) is not None
    maps, means = simulate_process(model, dt, n_steps, n_traj=8192, substeps=8, seed=11,
                                   antithetic=True, chunk_size=128, collect_chunk_means=True,
                                   control_variate=control_variate)
    sigma = means.std(axis=0, ddof=1) / np.sqrt(len(means))
    exact = np.stack(ou_map_series(model, dt, n_steps, levels))
    assert np.all(np.abs(np.stack(maps) - exact) <= 4.0 * sigma + 1e-12)
