"""Noise models, exact Gaussian path sampling, spectral closed forms."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate

import ttmkit
from ttmkit.noisegen import GaussianPathSampler, IndefiniteCovarianceError, NoiseModel
from ttmkit.presets import correlated_pair_model, revival_demo_model, transverse_noise_model

from conftest import double_integral_correlation, ou_correlation


def test_single_channel_correlation_values():
    model = NoiseModel.single(4.0, 1.0)
    taus = np.array([0.0, 0.3, -0.3, 2.0])
    npt.assert_allclose(model.correlation_entry(0, 0, taus),
                        ou_correlation(4.0, 1.0, 0.0, taus), atol=1e-14)


def test_modulated_correlation_and_evenness():
    model = NoiseModel.single(2.0, 0.5, omega=3.0)
    taus = np.linspace(-4, 4, 41)
    vals = model.correlation_entry(0, 0, taus)
    npt.assert_allclose(vals, ou_correlation(2.0, 0.5, 3.0, taus), atol=1e-14)
    npt.assert_allclose(vals, vals[::-1], atol=1e-14)  # C(-tau) = C(tau)


def test_cross_channel_uses_mean_rates():
    cross = np.array([[1.0, 0.6], [0.6, 2.0]])
    model = NoiseModel(kappas=(1.0, 3.0), omegas=(0.0, 2.0), cross=cross)
    tau = 0.7
    expect = 0.6 * np.exp(-2.0 * tau) * np.cos(1.0 * tau)
    assert abs(model.correlation_entry(0, 1, tau) - expect) < 1e-14
    assert abs(model.correlation_entry(1, 0, tau) - expect) < 1e-14


def _written_out_correlation(model, tau):
    # C_ab(tau) = cross[a, b] exp(-kappa_ab |tau|) cos(omega_ab tau), one expression
    k, w = np.array(model.kappas), np.array(model.omegas)
    kab, wab = 0.5 * (k[:, None] + k[None, :]), 0.5 * (w[:, None] + w[None, :])
    t = np.asarray(tau, dtype=float)[..., None, None]
    return model.cross * np.exp(-kab * np.abs(t)) * np.cos(wab * t)


@pytest.mark.parametrize("tau", [0.7, np.linspace(-3.0, 3.0, 11),
                                 np.linspace(-3.0, 3.0, 12).reshape(3, 4)],
                         ids=["scalar", "1d", "2d"])
def test_correlation_is_the_written_out_product_bit_for_bit(tau):
    # C_ab(tau) = cross[a, b] exp(-kappa_ab |tau|) cos(omega_ab tau) with the
    # mean rates of the two channels, for scalar and array lags alike
    model = NoiseModel(kappas=(1.0, 3.0), omegas=(0.5, 2.0),
                       cross=np.array([[1.0, 0.3], [0.3, 2.0]]))
    got = model.correlation(tau)
    want = _written_out_correlation(model, tau)
    assert got.shape == np.shape(tau) + (2, 2)
    assert got.tobytes() == want.tobytes()


def test_model_validation():
    with pytest.raises(ValueError, match="channel count"):
        NoiseModel(kappas=(1.0, 2.0), omegas=(0.0,), cross=np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                   cross=np.array([[1.0, 0.5], [0.2, 1.0]]))
    # the symmetry test is relative to max |cross|: the same asymmetric
    # matrix fails at variance 1e-12 as at 1, and an exactly symmetric one
    # passes at any scale, 0 included
    for scale in (1.0, 1e-12):
        with pytest.raises(ValueError, match="symmetric"):
            NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                       cross=scale * np.array([[1.0, 1.0], [-1.0, 1.0]]))
    for scale in (1.0, 1e-12, 0.0):
        NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                   cross=scale * np.array([[1.0, 0.3], [0.3, 1.0]]))


def test_phase_variance_closed_form_matches_quadrature():
    # stationarity turns the double integral into 2 int_0^t (t-s) C(s) ds,
    # which quad handles to machine accuracy (no |s-s'| kink)
    model = NoiseModel.single(3.0, 1.3, omega=2.1)
    for t in (0.2, 1.0, 4.0):
        direct, _ = integrate.quad(
            lambda s: 2.0 * (t - s) * ou_correlation(3.0, 1.3, 2.1, s),
            0.0, t, epsabs=1e-13, limit=200)
        assert abs(model.phase_variance(t) - direct) < 1e-10
        assert abs(double_integral_correlation(3.0, 1.3, 2.1, t) - direct) < 1e-10


def test_phase_variance_of_static_noise_is_quadratic():
    # kappa = omega = 0 freezes each path's value, so Phi(t) = C(0) t^2
    model = NoiseModel(kappas=(0.0, 0.0), omegas=(0.0, 0.0),
                       cross=np.array([[2.0, 0.5], [0.5, 1.0]]))
    t = np.array([0.0, 0.3, 2.0])
    npt.assert_array_equal(model.phase_variance(t), 2.0 * t * t)
    npt.assert_array_equal(model.phase_variance(t, 0, 1), 0.5 * t * t)


def _slow_phase_variance(kappa, t):
    # Phi(t) = t^2 - kappa t^3 / 3 + kappa^2 t^4 / 12 - kappa^3 t^5 / 60 + ...
    # at unit variance, with no cancellation when kappa t is small
    return t**2 * (1.0 - kappa * t / 3.0 + (kappa * t) ** 2 / 12.0 - (kappa * t) ** 3 / 60.0)


@pytest.mark.parametrize("kappa", [1e-6, 1e-4])
def test_phase_variance_of_slow_noise_keeps_its_precision(kappa):
    # the closed form t/mu - (1 - exp(-mu t))/mu^2 cancels to about
    # eps/(mu t)^2 of the value; slow decay must not inherit that
    t = np.linspace(0.0, 6.0, 31)
    npt.assert_allclose(NoiseModel.single(1.0, kappa).phase_variance(t),
                        _slow_phase_variance(kappa, t), rtol=1e-14, atol=0)
    # a slow modulation alone: Phi = 4 sin^2(omega t / 2) / omega^2
    w = 2.0 * kappa
    npt.assert_allclose(NoiseModel.single(1.0, 0.0, omega=w).phase_variance(t),
                        (2.0 * np.sin(0.5 * w * t) / w) ** 2, rtol=1e-14, atol=0)


def test_phase_variance_is_continuous_where_its_series_hands_over():
    # the series and the closed form agree across |mu t| = 1e-2, where the
    # closed form is within about 2 eps / (mu t)^2 = 4.4e-12 of the value
    model = NoiseModel.single(1.0, 0.6, omega=0.8)
    t = 1e-2 * np.array([1.0 - 1e-9, 1.0 + 1e-9])
    below, above = model.phase_variance(t) / t**2
    assert abs(below - above) < 1e-11 * above


def test_spectral_density_is_lorentzian_pair():
    lam, kappa, wc = 4.0, 1.0, 2.0
    model = NoiseModel.single(lam, kappa, omega=wc)
    w = np.linspace(-8, 8, 33)
    expect = lam * kappa * (1.0 / (kappa**2 + (w - wc) ** 2)
                            + 1.0 / (kappa**2 + (w + wc) ** 2))
    npt.assert_allclose(model.spectral_density(w), expect, atol=1e-14)
    # total power check: (1/2pi) int S = C(0)
    wfine = np.linspace(-2000, 2000, 2_000_001)
    power = integrate.trapezoid(model.spectral_density(wfine), wfine) / (2 * np.pi)
    assert abs(power - model.correlation_entry(0, 0, 0.0)) < 1e-2


def _ends(dt, n_steps):
    return dt * np.arange(1, n_steps + 1)


def _written_out_segment_covariance(model, ends):
    # Cov(I_a,j, I_b,k) = (Phi(|t_k - t_j-1|) + Phi(|t_k-1 - t_j|) - Phi(|t_k-1 - t_j-1|)
    # - Phi(|t_k - t_j|)) / 2 over edges t_0 = 0, t_1, ..., channel-major
    n, m = model.n_channels, ends.size
    e = np.concatenate([[0.0], ends])
    want = np.empty((n, m, n, m))
    for a, j, b, k in np.ndindex(want.shape):
        phi = lambda t: model.phase_variance(abs(t), a, b)  # noqa: E731
        want[a, j, b, k] = 0.5 * (phi(e[k + 1] - e[j]) + phi(e[k] - e[j + 1])
                                  - phi(e[k] - e[j]) - phi(e[k + 1] - e[j + 1]))
    return want.reshape(n * m, n * m)


def test_sample_paths_deterministic_and_shaped():
    sampler = GaussianPathSampler(NoiseModel.single(4.0, 1.0), _ends(0.2, 10))
    one = sampler.sample(np.random.default_rng(42), 5)
    assert one.shape == (5, 1, 10)
    npt.assert_array_equal(one, sampler.sample(np.random.default_rng(42), 5))
    other = sampler.sample(np.random.default_rng(43), 5)
    assert np.max(np.abs(one - other)) > 1e-3


def test_sampled_covariance_matches_model():
    # ensemble second moments of the interval integrals must match their
    # covariance, the second difference of Phi over the interval edges
    model = NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 1.0),
                       cross=np.array([[4.0, 1.0], [1.0, 2.0]]))
    dt, n_steps, n_paths = 0.3, 8, 120_000
    ends = _ends(dt, n_steps)
    paths = GaussianPathSampler(model, ends).sample(np.random.default_rng(7), n_paths)
    flat = paths.reshape(n_paths, -1)
    emp = flat.T @ flat / n_paths
    want = _written_out_segment_covariance(model, ends)
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.max(np.abs(emp - want) / scale) < 0.02
    assert np.max(np.abs(flat.mean(axis=0)) / np.sqrt(np.diag(want))) < 0.02


def test_integral_covariance_sums_to_the_phase_variance():
    # two correlated channels, unequal decay rates, a modulation and
    # segments of uneven length (one of zero length): the covariance of the
    # integrals over [0, t_n] is the double integral Phi_ab(t_n), so the
    # cumulative sums of the segment covariance reproduce it
    model = NoiseModel(kappas=(1.0, 2.5), omegas=(0.0, 1.3),
                       cross=np.array([[1.0, 0.4], [0.4, 2.0]]))
    ends = np.cumsum([0.1, 0.3, 0.0, 0.2, 0.05, 0.4, 0.2])
    cov = GaussianPathSampler(model, ends).covariance().reshape(2, 7, 2, 7)
    summed = np.cumsum(np.cumsum(cov, axis=1), axis=3)
    for a in range(2):
        for b in range(2):
            npt.assert_allclose(np.diagonal(summed[a, :, b]), model.phase_variance(ends, a, b),
                                rtol=0, atol=1e-13)


def test_integral_covariance_is_the_written_out_segment_formula():
    # the second difference of Phi over the edges, and the draws come out
    # shaped (paths, channels, intervals)
    model = NoiseModel(kappas=(1.0, 0.5), omegas=(0.0, 2.0),
                       cross=np.array([[1.0, 0.3], [0.3, 2.0]]))
    ends = np.array([0.2, 0.25, 0.6, 1.1])
    sampler = GaussianPathSampler(model, ends)
    npt.assert_allclose(sampler.covariance(), _written_out_segment_covariance(model, ends),
                        rtol=0, atol=1e-13)
    assert sampler.sample(np.random.default_rng(5), 7).shape == (7, 2, 4)


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("model", [
    revival_demo_model().noise,
    transverse_noise_model().noise,
    correlated_pair_model().noise,
], ids=["revival", "transverse", "correlated-pair"])
def test_interval_integrals_aggregate(model, k):
    # k equal intervals per segment sum to the segment's integral, so
    # W^T C_fine W, with W summing each segment's k intervals, is the
    # segment covariance: finer intervals only refine a run's draws
    lengths = np.array([0.2, 0.05, 0.3, 0.2, 0.15])
    fine = GaussianPathSampler(model, np.cumsum(np.repeat(lengths / k, k))).covariance()
    coarse = GaussianPathSampler(model, np.cumsum(lengths)).covariance()
    w = np.kron(np.eye(model.n_channels), np.repeat(np.eye(lengths.size), k, axis=0))
    npt.assert_allclose(w.T @ fine @ w, coarse, rtol=0, atol=1e-12 * np.abs(coarse).max())


@pytest.mark.parametrize("kappa", [1e-6, 1e-4])
def test_slow_noise_integrals_build_and_sum_to_the_phase_variance(kappa):
    # quasi-static dephasing at dt 0.2 over 30 steps: a nearly rank-one
    # covariance that is PSD to rounding, whose cumulative sums are Phi(t_n)
    ends = 0.2 * np.arange(1, 31)
    cov = GaussianPathSampler(NoiseModel.single(1.0, kappa), ends).covariance()
    summed = np.diagonal(np.cumsum(np.cumsum(cov, axis=0), axis=1))
    npt.assert_allclose(summed, _slow_phase_variance(kappa, ends), rtol=1e-12, atol=0)


@pytest.mark.parametrize("kappa, omega", [(0.0, 0.0), (1e-6, 0.0), (1e-3, 0.3)])
def test_fine_segments_of_slow_noise_stay_positive_semidefinite(kappa, omega):
    # 800 segments over t = 0.5: second differences of Phi would lose
    # (t / dt)^2 = 6.4e5 of every entry and turn the matrix indefinite
    ends = 0.5 / 800 * np.arange(1, 801)
    sampler = GaussianPathSampler(NoiseModel.single(1.0, kappa, omega), ends)
    w = np.linalg.eigvalsh(sampler.covariance())
    assert w[0] > -1e-13 * w[-1]


def test_sampler_rejects_inconsistent_cross_correlations():
    # perfectly correlated amplitudes but different decay rates cannot be
    # realized by any joint Gaussian process, at any overall variance
    for scale in (1.0, 1e-12):
        model = NoiseModel(kappas=(0.1, 8.0), omegas=(0.0, 0.0),
                           cross=scale * np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(IndefiniteCovarianceError, match="positive semidefinite"):
            GaussianPathSampler(model, np.linspace(0.1, 3.0, 12))


def test_sampler_takes_a_zero_noise_model():
    # all eigenvalues 0: nothing is negative relative to the largest
    sampler = GaussianPathSampler(NoiseModel.single(0.0, 1.0), _ends(0.2, 6))
    assert not sampler.sample(np.random.default_rng(1), 3).any()


def _reference_factor(model, ends):
    # the build written out: gaps -> Re(exp(-mu g) G_j G_k) per channel pair,
    # Phi on the diagonal -> 0.5 (C + C^T) -> eigh -> V sqrt(w), clipped at 0
    n, m = model.n_channels, ends.size
    starts = np.concatenate([[0.0], ends[:-1]])
    lengths = ends - starts
    gaps = np.maximum(starts[None, :] - ends[:, None], starts[:, None] - ends[None, :])
    cov = np.empty((n, m, n, m))
    for a, b in np.ndindex(n, n):
        amp, kab, wab = model._entry(a, b)
        mu = kab - 1.0j * wab
        g = -np.expm1(-mu * lengths) / mu
        cov[a, :, b] = np.real(np.exp(gaps * -mu) * g[:, None] * g[None, :]) * amp
        cov[a, :, b][np.diag_indices(m)] = model.phase_variance(lengths, a, b)
    cov = cov.reshape(n * m, n * m)
    w, v = np.linalg.eigh(0.5 * (cov + cov.T))
    return v * np.sqrt(np.clip(w, 0.0, None))


def _revival_intervals(n_steps=30, substeps=32, dt=0.2):
    # ends of n_steps x substeps equal intervals; at 30 x 32 the 960-interval
    # build is the largest the tests factor
    return np.cumsum(np.full(n_steps * substeps, dt / substeps))


@pytest.mark.parametrize("model, n_steps", [
    (revival_demo_model().noise, 5),
    (transverse_noise_model().noise, 2),
    (correlated_pair_model().noise, 2),
], ids=["revival", "transverse", "rank-deficient-pair"])
def test_sampler_factor_equals_the_written_out_build(model, n_steps):
    # the build writes the gaps into its target block and exponentiates in
    # place, but computes the same numbers in the same order, so its factor
    # (and every draw) is byte-identical
    ends = _revival_intervals(n_steps)
    sampler = GaussianPathSampler(model, ends)
    want = _reference_factor(model, ends)
    assert sampler._factor.shape == want.shape
    assert sampler._factor.tobytes() == want.tobytes()


def test_sampler_build_peak_stays_near_the_eigh_floor():
    # a 960-interval build traces at most 3.5 N^2 doubles of numpy arrays:
    # the covariance and one complex m x m exponent while it is built, the
    # covariance while eigh runs and v after it, with no gap matrix left alive
    ends = _revival_intervals()
    model = revival_demo_model().noise
    tracemalloc.start()
    try:
        GaussianPathSampler(model, ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * ends.size**2


def test_sampler_grid_cap():
    # the cap counts every drawn value: channels x intervals
    model = NoiseModel.single(1.0, 1.0)
    with pytest.raises(ValueError, match="4096"):
        GaussianPathSampler(model, np.arange(1, 4098, dtype=float))
    pair = NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0), cross=np.eye(2))
    with pytest.raises(ValueError, match="intervals.*4096"):
        GaussianPathSampler(pair, np.arange(1, 2050, dtype=float))


def test_correlated_channels_sample_together():
    cross = np.array([[1.0, 1.0], [1.0, 1.0]])
    model = NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0), cross=cross)
    paths = GaussianPathSampler(model, _ends(0.2, 5)).sample(np.random.default_rng(3), 2000)
    # unit cross amplitude with equal rates means identical channels up to
    # the eigh factorization noise of the singular covariance
    npt.assert_allclose(paths[:, 0], paths[:, 1], atol=1e-5)


def test_package_import_leaves_scipy_integrate_and_linalg_unloaded():
    # the package needs neither module at import time; the pair split imports
    # scipy.linalg only for a map its eigendecomposition log hands to logm
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttmkit.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import ttmkit, ttmkit.cli, ttmkit.presets; "
            "print([m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
