"""Noise models, exact Gaussian path sampling, spectral closed forms."""

import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate

import ttmkit
from ttmkit.noisegen import GaussianPathSampler, NoiseModel

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


def test_model_validation():
    with pytest.raises(ValueError, match="channel count"):
        NoiseModel(kappas=(1.0, 2.0), omegas=(0.0,), cross=np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 0.0),
                   cross=np.array([[1.0, 0.5], [0.2, 1.0]]))


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


def _midpoints(dt, n_steps):
    return (np.arange(n_steps) + 0.5) * dt


def test_sample_paths_deterministic_and_shaped():
    sampler = GaussianPathSampler(NoiseModel.single(4.0, 1.0), _midpoints(0.2, 10))
    one = sampler.sample(np.random.default_rng(42), 5)
    assert one.shape == (5, 1, 10)
    npt.assert_array_equal(one, sampler.sample(np.random.default_rng(42), 5))
    other = sampler.sample(np.random.default_rng(43), 5)
    assert np.max(np.abs(one - other)) > 1e-3


def test_sampled_covariance_matches_model():
    # ensemble second moments on the grid must match C(|m-n| dt)
    model = NoiseModel(kappas=(1.0, 2.0), omegas=(0.0, 1.0),
                       cross=np.array([[4.0, 1.0], [1.0, 2.0]]))
    dt, n_steps, n_paths = 0.3, 8, 120_000
    times = _midpoints(dt, n_steps)
    paths = GaussianPathSampler(model, times).sample(np.random.default_rng(7), n_paths)
    flat = paths.reshape(n_paths, -1)
    emp = flat.T @ flat / n_paths
    lags = times[:, None] - times[None, :]
    want = model.correlation(lags).transpose(2, 0, 3, 1).reshape(16, 16)
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.max(np.abs(emp - want) / scale) < 0.02
    assert np.max(np.abs(flat.mean(axis=0)) / np.sqrt(np.diag(want))) < 0.02


def test_sampler_covariance_method_is_exact():
    model = NoiseModel(kappas=(1.0, 0.5), omegas=(0.0, 2.0),
                       cross=np.array([[1.0, 0.3], [0.3, 2.0]]))
    times = np.linspace(0.05, 1.05, 6)
    sampler = GaussianPathSampler(model, times)
    lags = times[:, None] - times[None, :]
    want = model.correlation(lags).transpose(2, 0, 3, 1).reshape(12, 12)
    npt.assert_allclose(sampler.covariance(), want, atol=1e-10)


def test_windowed_draws_are_window_sums_of_grid_draws():
    # two correlated channels, windows of uneven length and weight: each
    # windowed draw is the grid draw of the same generator times W
    model = NoiseModel(kappas=(1.0, 0.5), omegas=(0.0, 2.0),
                       cross=np.array([[1.0, 0.3], [0.3, 2.0]]))
    times = np.linspace(0.05, 1.15, 12)
    windows = np.zeros((12, 4))
    for k, (i, e, w) in enumerate(((0, 3, 0.1), (3, 4, 0.25), (4, 9, 0.05), (9, 12, 0.15))):
        windows[i:e, k] = w
    grid = GaussianPathSampler(model, times)
    windowed = GaussianPathSampler(model, times, windows)
    b = windowed.sample(np.random.default_rng(5), 7)
    assert b.shape == (7, 2, 4)
    npt.assert_allclose(b, grid.sample(np.random.default_rng(5), 7) @ windows,
                        rtol=0, atol=1e-13)
    cov = grid.covariance().reshape(2, 12, 2, 12)
    want = np.einsum("ik,aibj,jl->akbl", windows, cov, windows).reshape(8, 8)
    npt.assert_allclose(windowed.covariance(), want, rtol=0, atol=1e-13)


def test_sampler_rejects_inconsistent_cross_correlations():
    # perfectly correlated amplitudes but different decay rates cannot be
    # realized by any joint Gaussian process
    model = NoiseModel(kappas=(0.1, 8.0), omegas=(0.0, 0.0),
                       cross=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        GaussianPathSampler(model, np.linspace(0.1, 3.0, 12))


def test_sampler_grid_cap():
    model = NoiseModel.single(1.0, 1.0)
    with pytest.raises(ValueError, match="4096"):
        GaussianPathSampler(model, np.arange(4097, dtype=float))


def test_correlated_channels_sample_together():
    cross = np.array([[1.0, 1.0], [1.0, 1.0]])
    model = NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0), cross=cross)
    paths = GaussianPathSampler(model, _midpoints(0.2, 5)).sample(np.random.default_rng(3), 2000)
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
