"""Bloch-volume series and the positive-growth witness."""

import numpy as np
import numpy.testing as npt
import pytest

from ttmkit.liouville import SIGMA_Z
from ttmkit.noisegen import NoiseModel
from ttmkit.propagator import SystemModel, dephasing_map_series
from ttmkit.nonmarkov import (
    VolumeSeries,
    extended_volume_measure,
    volume_measure,
    volume_series,
)
from ttmkit.ttm import build_ttms

from conftest import dephasing_coherence, random_lindblad_step


def _dephasing_maps(lam, kappa, omega_c, dt, n):
    model = SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_Z,),
                        noise=NoiseModel.single(lam, kappa, omega=omega_c))
    return dephasing_map_series(model, dt, n)


def test_volume_series_of_pure_dephasing():
    # Bloch matrix diag(coh, coh, 1) up to rotation: volume = coh^2
    lam, kappa, dt, n = 4.0, 1.0, 0.2, 10
    maps = _dephasing_maps(lam, kappa, 0.0, dt, n)
    series = volume_series(maps, dt)
    assert series.values[0] == 1.0
    npt.assert_allclose(series.times, dt * np.arange(n + 1), atol=1e-14)
    for k in range(1, n + 1):
        coh = dephasing_coherence(lam, kappa, 0.0, k * dt)
        assert abs(series.values[k] - coh**2) < 1e-12


def test_monotone_decay_has_zero_measure():
    maps = _dephasing_maps(4.0, 1.0, 0.0, 0.2, 12)
    assert volume_measure(volume_series(maps, 0.2)) == 0.0


def test_modulated_noise_revives_volume():
    # strong modulation makes the dephasing rate oscillate through negative
    # values, so the volume grows back repeatedly
    maps = _dephasing_maps(4.0, 0.3, 6.0, 0.2, 25)
    series = volume_series(maps, 0.2)
    measure = volume_measure(series)
    assert measure > 1e-3
    diffs = np.diff(series.values)
    assert np.sum(diffs[diffs > 0]) == pytest.approx(measure)


def test_semigroup_volume_contracts_monotonically():
    rng = np.random.default_rng(8)
    for _ in range(5):
        e1 = random_lindblad_step(2, rng, dt=0.3)
        maps = [np.linalg.matrix_power(e1, k) for k in range(1, 8)]
        series = volume_series(maps, 0.3)
        assert np.all(np.diff(series.values) <= 1e-12)
        assert volume_measure(series) == 0.0


def test_extended_measure_agrees_with_direct_evaluation():
    maps = _dephasing_maps(4.0, 0.3, 6.0, 0.2, 25)
    tensors = build_ttms(maps)
    series, measure = extended_volume_measure(tensors, 25, 0.2)
    direct = volume_series(maps, 0.2)
    npt.assert_allclose(series.values, direct.values, atol=1e-10)
    assert measure == pytest.approx(volume_measure(direct), abs=1e-10)


def test_extended_measure_with_truncation_extends_grid():
    maps = _dephasing_maps(4.0, 1.0, 0.0, 0.2, 10)
    tensors = build_ttms(maps)
    series, _ = extended_volume_measure(tensors, 30, 0.2, k_trunc=5)
    assert series.values.size == 31
    exact = dephasing_coherence(4.0, 1.0, 0.0, 30 * 0.2) ** 2
    assert abs(series.values[-1] - exact) < 5e-3


def test_volume_series_validation():
    with pytest.raises(ValueError, match="single-qubit"):
        volume_series([np.eye(16)], 0.1)
    with pytest.raises(ValueError, match="align"):
        VolumeSeries(np.arange(3.0), np.arange(4.0))
    with pytest.raises(ValueError, match="two volume"):
        volume_measure(VolumeSeries([0.0], [1.0]))
    with pytest.raises(ValueError, match="nonzero"):
        volume_measure(VolumeSeries([0.0, 0.1], [0.0, 1.0]))
