"""Kernel model, sequential correlation fits, spectra, scaled-run combination."""

import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from ttmkit import spectroscopy
from ttmkit.liouville import PAULIS, SIGMA_Z, hamiltonian_liouvillian, unvec, vec
from ttmkit.presets import weak_dephasing_model
from ttmkit.propagator import dephasing_map_series
from ttmkit.spectroscopy import (
    CorrelationSeries,
    _interaction_superops,
    _k2_stack,
    _solve_one,
    combine_scaled_kernels,
    fit_correlations,
    spectral_density,
)

from ttmkit.ttm import build_ttms, extract_kernel

from conftest import fit_objective, one_channel_minimum, ou_correlation


def _k2_written_out(corr, hs, t):
    """K2(t) column by column from the double commutator, with expm for U(t)."""
    sig = [PAULIS[a] for a in "XYZ"]
    u = expm(-1j * hs * t)
    sig_t = [u @ s @ u.conj().T for s in sig]
    out = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        rho = unvec(np.eye(4)[col])
        k_rho = np.zeros((2, 2), dtype=complex)
        for a in range(3):
            for b in range(3):
                inner = corr[a, b] * sig_t[b] @ rho - np.conj(corr[a, b]) * rho @ sig_t[b]
                k_rho -= sig[a] @ inner - inner @ sig[a]
        out[:, col] = vec(k_rho)
    return out


def _k2(corr, hs, t):
    """The fit's K2 stack at one channel matrix and one time."""
    return _k2_stack(np.asarray(corr, dtype=complex), *_interaction_superops(hs, [t]))[0]


def test_k2_model_dephasing_rate_sign():
    # static z noise of strength c must damp coherences at rate 4c
    c0 = 0.25
    corr = np.zeros((3, 3))
    corr[2, 2] = c0
    k2 = _k2(corr, np.zeros((2, 2)), 0.0)
    assert abs(k2[1, 1] - (-4.0 * c0)) < 1e-14
    assert abs(k2[2, 2] - (-4.0 * c0)) < 1e-14
    assert abs(k2[0, 0]) < 1e-14 and abs(k2[3, 3]) < 1e-14
    off = k2 - np.diag(np.diag(k2))
    assert np.max(np.abs(off)) < 1e-14


def test_k2_model_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(3)
    corr = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    hs = 0.3 * SIGMA_Z
    k2 = _k2(corr, hs, 0.7)
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = rho + rho.conj().T
    out = unvec(k2 @ vec(rho))
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert abs(np.trace(out)) < 1e-12  # kernel output is traceless


def _random_hamiltonian(rng):
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (h + h.conj().T)


def test_batched_design_matches_k2_model_on_every_channel():
    # the fit builds every K2 design matrix of its grid in one batched pass
    hs = _random_hamiltonian(np.random.default_rng(8))
    times = 0.35 * np.arange(7)  # starts at t = 0
    units = np.zeros((9, 3, 3), dtype=complex)
    units[np.arange(9), np.arange(9) // 3, np.arange(9) % 3] = 1.0
    stack = _k2_stack(units, *_interaction_superops(hs, times))
    assert stack.shape == (9, 7, 4, 4)
    for j, unit in enumerate(units):
        for n, t in enumerate(times):
            npt.assert_allclose(stack[j, n], _k2_written_out(unit, hs, t), rtol=0, atol=1e-14)


def test_k2_model_matches_written_out_double_commutator():
    rng = np.random.default_rng(12)
    hs = _random_hamiltonian(rng)
    corr = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for t in (0.0, 0.45, 2.3):
        npt.assert_allclose(_k2(corr, hs, t), _k2_written_out(corr, hs, t), rtol=0, atol=1e-14)


def _synthetic_kernels(c_of_t, channel, hs, dt, n_points):
    """The extract_kernel convention: slot j holds K(j dt) from t = 0."""
    a, b = channel
    idx = {"x": 0, "y": 1, "z": 2}

    def k_true(t):
        corr = np.zeros((3, 3), dtype=complex)
        corr[idx[a], idx[b]] = c_of_t(t)
        return _k2_written_out(corr, hs, t)

    return [k_true(j * dt) for j in range(n_points)]


def test_fit_recovers_zz_correlation_exactly_without_regularizer():
    hs = 0.02 * SIGMA_Z
    dt, n = 0.04, 20
    c_fn = lambda t: ou_correlation(0.01, 1.0, 0.0, t)
    kernels = _synthetic_kernels(c_fn, ("z", "z"), hs, dt, n)
    fit = fit_correlations(kernels, hs, dt, active=(("z", "z"),), lambdas=0.0)
    npt.assert_allclose(fit.times, dt * np.arange(n), atol=1e-14)
    want = c_fn(fit.times)
    npt.assert_allclose(fit.channel("z", "z").real, want, atol=1e-12)
    assert np.max(fit.residuals) < 1e-12
    # inactive channels stay pinned at zero
    assert np.max(np.abs(fit.channel("x", "x"))) == 0.0
    assert not fit.active[0, 0] and fit.active[2, 2]


def test_fit_recovers_transverse_correlation():
    # x channel exercises the interaction-picture rotation of the design
    hs = 0.02 * SIGMA_Z
    dt, n = 0.04, 20
    c_fn = lambda t: ou_correlation(0.01, 1.0, 0.0, t)
    kernels = _synthetic_kernels(c_fn, ("x", "x"), hs, dt, n)
    fit = fit_correlations(kernels, hs, dt, active=(("x", "x"),), lambdas=0.0)
    npt.assert_allclose(fit.channel("x", "x").real, c_fn(fit.times), atol=1e-10)


def test_default_regularizer_stays_close_on_consistent_data():
    hs = 0.02 * SIGMA_Z
    dt, n = 0.04, 20
    c_fn = lambda t: ou_correlation(0.01, 1.0, 0.0, t)
    kernels = _synthetic_kernels(c_fn, ("z", "z"), hs, dt, n)
    fit = fit_correlations(kernels, hs, dt, active=(("z", "z"),))
    want = c_fn(fit.times)
    err = np.max(np.abs(fit.channel("z", "z").real - want))
    assert err < 0.02 * want[0]
    assert np.all(fit.iterations >= 1)


def _one_channel_cases(scale):
    """(a_mat, b_vec, lam, c_prev, exact c or None): draws at one scale, then corners."""
    rng = np.random.default_rng(41)
    for _ in range(40):
        a_mat = scale * rng.normal(size=(32, 1))
        c_true = rng.normal(size=1)
        b_vec = a_mat[:, 0] * c_true + 0.1 * scale * rng.normal(size=32)
        lam = float(scale * 10.0 ** rng.uniform(-3, 1))
        yield a_mat, b_vec, lam, c_true + rng.normal(size=1), None
    a_mat = scale * rng.normal(size=(32, 1))
    norm = float(np.linalg.norm(a_mat))
    noisy = 0.5 * a_mat[:, 0] + 0.1 * scale * rng.normal(size=32)
    exact = 0.5 * a_mat[:, 0]  # halving is exact, so r0 = 0 exactly
    c_prev = np.array([-0.3])
    # lam^2 >= |a|^2 pins c to its warm start whatever b is; below that a
    # noiseless target is met exactly
    yield a_mat, noisy, 1.5 * norm, c_prev, -0.3
    yield a_mat, exact, 1.5 * norm, c_prev, -0.3
    yield a_mat, noisy, 0.2 * norm, c_prev, None
    yield a_mat, exact, 0.2 * norm, c_prev, 0.5


@pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 1e3])
def test_one_channel_solve_is_the_brute_force_minimum(scale):
    # one closed-form update solves |a c - b|_2 + lam |c - c_prev| exactly
    for a_mat, b_vec, lam, c_prev, exact_c in _one_channel_cases(scale):
        c, res, sweeps, shift = _solve_one(a_mat, b_vec, lam, c_prev)
        assert sweeps == 1 and shift is None
        assert res == np.linalg.norm(a_mat @ c - b_vec)
        got = fit_objective(a_mat, b_vec, lam, c_prev, c)
        want = one_channel_minimum(a_mat, b_vec, lam, c_prev)
        assert abs(got - want) <= 1e-12 * want
        if exact_c is not None:
            assert c[0] == exact_c


def test_one_channel_fit_is_the_brute_force_minimum_on_dephasing_kernels(fit_solves):
    # closed-form dephasing maps -> transfer tensors -> kernels -> regularized
    # fit; every point sits at the minimum from its own warm start
    model = weak_dephasing_model(1.0)
    dt = 0.04
    tensors = build_ttms(dephasing_map_series(model, dt, 18))
    kernels = extract_kernel(tensors, hamiltonian_liouvillian(model.h_system), dt)
    fit = fit_correlations(kernels, model.h_system, dt)
    npt.assert_array_equal(fit.iterations, 1)
    assert len(fit_solves) == len(kernels)
    for a_mat, b_vec, lam, c_prev, c in fit_solves[1:]:
        got = fit_objective(a_mat, b_vec, lam, c_prev, c)
        want = one_channel_minimum(a_mat, b_vec, lam, c_prev)
        assert abs(got - want) <= 1e-12 * want


def _two_channel_kernels(n):
    """Exact K2 series of x and z OU noise at once, on dt = 0.04."""
    hs = 0.02 * SIGMA_Z
    times = 0.04 * np.arange(n)
    corr = np.zeros((n, 3, 3), dtype=complex)
    corr[:, 0, 0] = ou_correlation(0.006, 0.5, 0.0, times)
    corr[:, 2, 2] = ou_correlation(0.01, 1.0, 0.0, times)
    # row n of the (n, n) stack pairs C(t_n) with every time; keep t_n alone
    kernels = _k2_stack(corr, *_interaction_superops(hs, times))[np.arange(n), np.arange(n)]
    return kernels, corr, hs


def test_two_channel_regularized_fit_recovers_both_correlations():
    # coordinate descent: x and z noise at once, default continuity weights
    kernels, corr, hs = _two_channel_kernels(20)
    fit = fit_correlations(kernels, hs, 0.04, active=(("x", "x"), ("z", "z")))
    for a, idx in (("x", 0), ("z", 2)):
        err = np.max(np.abs(fit.channel(a, a) - corr[:, idx, idx]))
        assert err < 0.02 * corr[0, idx, idx].real, a
    assert np.all(fit.iterations[1:] > 1)


def test_fit_warns_when_a_point_hits_the_iteration_cap(monkeypatch):
    # only two or more channels iterate, so only they can stop at the cap
    kernels, _, hs = _two_channel_kernels(6)
    active = (("x", "x"), ("z", "z"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_correlations(kernels, hs, 0.04, active=active)  # converges under the shipped cap
    monkeypatch.setattr(spectroscopy, "_MAX_ITER", 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_correlations(kernels, hs, 0.04, active=active)
    npt.assert_array_equal(fit.iterations, [1, 2, 2, 2, 2, 2])
    assert len(caught) == len(kernels) - 1
    for point, w in enumerate(caught, start=1):
        assert re.fullmatch(rf"correlation fit at point {point} stopped at shift "
                            r"\d\.\d{3}e-\d+ after 2 iterations", str(w.message))


def test_fit_rejects_unknown_channels():
    with pytest.raises(ValueError, match="unknown channel"):
        fit_correlations([np.zeros((4, 4))], np.zeros((2, 2)), 0.1,
                         active=(("z", "q"),))


@pytest.mark.parametrize("active, match", [
    ((), "at least one channel pair"),
    ((("z", "z"), ("x", "x"), ("z", "z")), r"channel \(z, z\) more than once"),
], ids=["empty", "repeated"])
def test_fit_rejects_empty_and_repeated_channels(active, match):
    # a repeated pair splits its value between two identical design columns
    with pytest.raises(ValueError, match=match):
        fit_correlations([np.zeros((4, 4))], np.zeros((2, 2)), 0.1, active=active)


def test_spectral_density_lorentzian_recovery():
    lam, kappa = 4.0, 1.0
    dt, n = 0.05, 200
    times = dt * np.arange(n)
    values = np.zeros((n, 3, 3), dtype=complex)
    values[:, 2, 2] = ou_correlation(lam, kappa, 0.0, times)
    active = np.zeros((3, 3), dtype=bool)
    active[2, 2] = True
    series = CorrelationSeries(dt, values, active)
    omega, s = spectral_density(series, ("z", "z"))
    want = 2.0 * lam * kappa / (kappa**2 + omega**2)
    resolved = np.abs(omega) < 5.0
    rel = np.max(np.abs(s[resolved] - want[resolved]) / want[resolved])
    assert rel < 0.03
    # evenness is exact on the odd-padded grid
    order = np.argsort(-omega)
    npt.assert_allclose(s, s[order], atol=1e-12 * np.max(np.abs(s)))


def test_spectral_density_mirrors_a_channel_whose_transpose_is_inactive():
    # only (x, z) is active, so C_xz(-t) = C_zx(t) is unknown and the
    # channel is mirrored onto itself, as (z, x) is when both are active
    # and hold the same values
    dt, n = 0.05, 120
    values = np.zeros((n, 3, 3), dtype=complex)
    values[:, 0, 2] = ou_correlation(1.0, 2.0, 0.0, dt * np.arange(n))
    active = np.zeros((3, 3), dtype=bool)
    active[0, 2] = True
    omega, s = spectral_density(CorrelationSeries(dt, values, active), ("x", "z"))
    values[:, 2, 0] = values[:, 0, 2]
    active[2, 0] = True
    omega_both, s_both = spectral_density(CorrelationSeries(dt, values, active), ("x", "z"))
    npt.assert_array_equal(omega, omega_both)
    npt.assert_array_equal(s, s_both)
    assert abs(s[np.argmin(np.abs(omega))] - 2.0 * 1.0 / 2.0) < 0.05


def test_spectral_density_guards():
    active = np.zeros((3, 3), dtype=bool)
    active[2, 2] = True
    # a complex one-sided series has no real classical transform
    bad = np.zeros((4, 3, 3), dtype=complex)
    bad[:, 2, 2] = [1.0, 0.5 + 0.4j, 0.2, 0.1]
    with pytest.raises(ValueError, match="symmetry"):
        spectral_density(CorrelationSeries(0.1, bad, active), ("z", "z"))


def _poly_family(gammas, orders, rng, n_times=7):
    """K_i(t_n) = sum_m gamma_i^(2m) A_m(t_n) for known random A_m."""
    mats = {m: rng.normal(size=(n_times, 4, 4)) + 1j * rng.normal(size=(n_times, 4, 4))
            for m in orders}
    runs = []
    for g in gammas:
        runs.append(sum(g ** (2 * m) * mats[m] for m in orders))
    return np.array(runs), mats


def test_combine_scaled_kernels_cancels_next_order_exactly():
    rng = np.random.default_rng(11)
    gammas = [1.0, 0.5]
    stack, mats = _poly_family(gammas, (1, 2), rng)
    k2, info = combine_scaled_kernels(stack, gammas=gammas)
    npt.assert_allclose(k2, mats[1], atol=1e-12)
    assert info["condition"] > 1.0


def test_combine_scaled_kernels_three_runs():
    rng = np.random.default_rng(13)
    gammas = [1.0, 0.6, 0.3]
    stack, mats = _poly_family(gammas, (1, 2, 3), rng)
    k2, _ = combine_scaled_kernels(stack, gammas=gammas)
    npt.assert_allclose(k2, mats[1], atol=1e-10)


def test_combine_scaled_kernels_two_run_weights():
    # for gamma = 1/2 the combination is (16 K_half - K_ref) / 15 scaled:
    # solve directly and compare against the closed two-run formula
    rng = np.random.default_rng(17)
    gammas = [1.0, 0.5]
    stack, _ = _poly_family(gammas, (1, 2), rng)
    k2, _ = combine_scaled_kernels(stack, gammas=gammas)
    closed = (16.0 * stack[1] - stack[0]) / 3.0
    npt.assert_allclose(k2, closed, atol=1e-12)


def test_combine_scaled_kernels_biases_route():
    # raising the bias shrinks the dimensionless coupling by (w0/w)^2, so
    # a faithful family is K_i(t) = w_i^2 [lam_i G(w_i t) + lam_i^2 H(w_i t)]
    # with lam_i = (w0/w_i)^2 lam_0; the target is run 0's G term alone
    w0, w1 = 1.0, 2.0
    lam0 = 0.7
    dt, n_times = 0.1, 12
    t = dt * np.arange(n_times)  # slot j at j dt from t = 0, as extract_kernel lays it out

    def g_fn(tau):
        return np.cos(0.3 * tau) * np.exp(-0.2 * tau)

    def h_fn(tau):
        return np.sin(0.5 * tau) + 0.4

    def run(w):
        lam = lam0 * (w0 / w) ** 2
        prof = w**2 * (lam * g_fn(w * t) + lam**2 * h_fn(w * t))
        return prof[:, None, None] * np.ones((1, 4, 4))

    stack = np.array([run(w0), run(w1)])
    k2, info = combine_scaled_kernels(stack, biases=[w0, w1], dt=dt)
    want = w0**2 * lam0 * g_fn(w0 * t)
    # odd nodes are linearly interpolated from run 1's grid
    rel = np.abs(k2[:, 0, 0] - want) / np.abs(want)
    assert np.max(rel) < 0.05
    even = np.arange(0, n_times, 2)  # reference nodes shared with run 1, node 0 included
    npt.assert_allclose(k2[even, 0, 0], want[even], rtol=1e-10)
    assert info["condition"] > 1.0


def test_two_run_protocol_first_point_matches_naive_fit():
    # fig3bottom's setup at its weakest coupling: the protocol removes only
    # higher-order kernel terms, so its C(0) must agree with the naive fit's;
    # an L^2 left in slot 0 would pass through the weights (sum 26 here)
    dt, n_steps, gamma, lam = 0.04, 18, 0.2, 0.16
    runs = []
    for scale in (1.0, gamma**2):
        model = weak_dephasing_model(lam * scale)
        tensors = build_ttms(dephasing_map_series(model, dt, n_steps))
        runs.append(extract_kernel(tensors, hamiltonian_liouvillian(model.h_system), dt))
    hs = weak_dephasing_model(lam).h_system
    combined, _ = combine_scaled_kernels(runs, gammas=[1.0, gamma])
    naive = fit_correlations(runs[0], hs, dt).channel("z", "z")[0].real
    protocol = fit_correlations(list(combined), hs, dt).channel("z", "z")[0].real
    assert abs(protocol - naive) < 1e-3 * abs(naive)


@pytest.mark.parametrize("gammas, index", [([0.0, 0.5], 0), ([1.0, 0.0], 1),
                                           ([1.0, float("nan")], 1)],
                         ids=["zero-reference", "zero-run", "nan-run"])
def test_combine_scaled_kernels_rejects_zero_and_non_finite_gammas(gammas, index):
    # a zero g_0 would divide every ratio by zero and a zero or NaN g_i
    # would leave the Vandermonde system singular; each is named before
    # any arithmetic, with no warning on the way
    stack, _ = _poly_family([1.0, 0.5], (1, 2), np.random.default_rng(19))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"gammas\[{index}\] must be finite and nonzero"):
            combine_scaled_kernels(stack, gammas=gammas)


def test_combine_scaled_kernels_argument_checks():
    stack = np.zeros((2, 3, 4, 4))
    with pytest.raises(ValueError, match="exactly one"):
        combine_scaled_kernels(stack, gammas=[1, 0.5], biases=[1, 2])
    with pytest.raises(ValueError, match="exactly one"):
        combine_scaled_kernels(stack)
    with pytest.raises(ValueError, match="one scale factor"):
        combine_scaled_kernels(stack, gammas=[1.0])
    with pytest.raises(ValueError, match="one scale factor"):
        combine_scaled_kernels(np.zeros((3, 3, 4, 4)), biases=[1.0, 2.0], dt=0.1)
    with pytest.raises(ValueError, match="needs dt"):
        combine_scaled_kernels(stack, biases=[1.0, 2.0])
    with pytest.raises(ValueError, match="below the reference"):
        combine_scaled_kernels(stack, biases=[2.0, 1.0], dt=0.1)
    with pytest.raises(ValueError, match="stack"):
        combine_scaled_kernels(np.zeros((3, 4, 4)), gammas=[1.0])
    for biases in ([0.0, 0.1], [-0.1, 0.2]):
        with pytest.raises(ValueError, match="must be positive"):
            combine_scaled_kernels(stack, biases=biases, dt=0.1)
