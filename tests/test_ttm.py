"""Transfer-tensor recursion, prediction, kernel conversion, norm profiles."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from ttmkit.liouville import hamiltonian_liouvillian, unvec, vec
from ttmkit.noisegen import NoiseModel
from ttmkit.propagator import SystemModel, dephasing_map_series
from ttmkit.ttm import (
    build_ttms,
    choose_truncation,
    count_above_threshold,
    extract_kernel,
    norm_profile,
    predict_maps,
    predict_states,
)
from ttmkit.liouville import SIGMA_Z

from conftest import map_distance, random_cptp, random_density, random_lindblad_step


def _random_map_series(d, n, rng):
    return [random_cptp(d, rng) for _ in range(n)]


def test_first_tensor_is_first_map():
    rng = np.random.default_rng(1)
    maps = _random_map_series(2, 4, rng)
    tensors = build_ttms(maps)
    npt.assert_array_equal(tensors[0], maps[0])
    assert len(tensors) == 4


def test_recursion_inverts_exactly():
    # rebuilding the maps from their own tensors is an identity operation
    rng = np.random.default_rng(2)
    for d in (2, 4):
        maps = _random_map_series(d, 6, rng)
        tensors = build_ttms(maps)
        back = predict_maps(tensors, 6)
        worst = max(map_distance(a, b) for a, b in zip(maps, back))
        assert worst < 1e-12


def test_recursion_and_prediction_match_the_double_sums():
    # the written-out sums on non-commuting maps, with a truncated prediction
    rng = np.random.default_rng(6)
    for d in (2, 4):
        maps = _random_map_series(d, 6, rng)
        tensors = build_ttms(maps)
        want = []
        for n in range(1, 7):
            want.append(maps[n - 1] - sum(want[n - m - 1] @ maps[m - 1] for m in range(1, n)))
        npt.assert_allclose(np.stack(tensors), np.stack(want), rtol=0, atol=1e-12)
        k_trunc, n_total = 3, 9
        history = [np.eye(d * d)]
        for n in range(1, n_total + 1):
            history.append(sum(tensors[m - 1] @ history[n - m]
                               for m in range(1, min(n, k_trunc) + 1)))
        npt.assert_allclose(np.stack(predict_maps(tensors, n_total, k_trunc)),
                            np.stack(history[1:]), rtol=0, atol=1e-12)


def test_semigroup_has_no_memory():
    rng = np.random.default_rng(3)
    e1 = random_lindblad_step(2, rng, dt=0.4)
    maps = [np.linalg.matrix_power(e1, n) for n in range(1, 7)]
    tensors = build_ttms(maps)
    for t_n in tensors[1:]:
        assert np.max(np.abs(t_n)) < 1e-12


def test_prediction_extends_semigroup():
    rng = np.random.default_rng(4)
    e1 = random_lindblad_step(2, rng, dt=0.3)
    maps = [np.linalg.matrix_power(e1, n) for n in range(1, 5)]
    tensors = build_ttms(maps)
    extended = predict_maps(tensors, 9)
    for n, sop in enumerate(extended, start=1):
        assert map_distance(sop, np.linalg.matrix_power(e1, n)) < 1e-11


def test_truncation_drops_late_memory():
    model = SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_Z,),
                        noise=NoiseModel.single(4.0, 1.0))
    maps = dephasing_map_series(model, 0.2, 12)
    tensors = build_ttms(maps)
    exact = dephasing_map_series(model, 0.2, 30)
    errs = []
    for k in (1, 3, 6):
        pred = predict_maps(tensors, 30, k_trunc=k)
        errs.append(max(map_distance(a, b) for a, b in zip(pred, exact)))
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[2] < 0.02


def test_predict_states_tracks_predict_maps():
    rng = np.random.default_rng(5)
    maps = _random_map_series(2, 5, rng)
    tensors = build_ttms(maps)
    rho0 = random_density(2, rng)
    states = predict_states(tensors, rho0, 8)
    ext = predict_maps(tensors, 8)
    for k in range(8):
        npt.assert_allclose(states[k], unvec(ext[k] @ vec(rho0)), atol=1e-12)


def test_predictions_accept_real_tensors():
    # real-valued dephasing tensors; the identity seed E_0 is complex
    tensors = [np.diag([1.0, 0.8, 0.8, 1.0]), np.diag([0.0, 0.05, 0.05, 0.0])]
    ext = predict_maps(tensors, 3)
    npt.assert_allclose(ext[1], np.diag([1.0, 0.69, 0.69, 1.0]), atol=1e-15)
    rho0 = np.full((2, 2), 0.5)
    states = predict_states(tensors, rho0, 3)
    for k in range(3):
        npt.assert_allclose(states[k], unvec(ext[k] @ vec(rho0)), atol=1e-15)


def test_kernel_conversion_roundtrip():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.5 * (h + h.conj().T)
    gen = hamiltonian_liouvillian(h)
    maps = _random_map_series(2, 5, rng)
    tensors = build_ttms(maps)
    dt = 0.2
    kernels = extract_kernel(tensors, gen, dt)
    # inverse: T_1 = I + L dt + (L^2 + K(0)) dt^2 / 2 and T_{j+1} = K(j dt) dt^2
    back = ([np.eye(4) + gen * dt + 0.5 * (gen @ gen + kernels[0]) * dt**2]
            + [k * dt**2 for k in kernels[1:]])
    worst = max(map_distance(a, b) for a, b in zip(tensors, back))
    assert worst < 1e-12


def test_kernel_of_unitary_semigroup_vanishes_at_every_slot():
    # memoryless evolution: T_1 = exp(L dt) and nothing else, so K = 0; slot 0
    # keeps only the first-order residue 2 (e^{L dt} - I - L dt)/dt^2 - L^2
    # = L^3 dt / 3 + O(dt^2)
    h = 0.3 * SIGMA_Z
    gen = hamiltonian_liouvillian(h)
    dt = 0.05
    e1 = expm(gen * dt)
    maps = [np.linalg.matrix_power(e1, n) for n in range(1, 6)]
    kernels = extract_kernel(build_ttms(maps), gen, dt)
    assert np.max(np.abs(kernels[0])) < dt * np.linalg.norm(gen) ** 3
    for k_n in kernels[1:]:
        assert np.max(np.abs(k_n)) < 1e-10


def test_norm_profile_subtracts_identity_once():
    rng = np.random.default_rng(7)
    maps = _random_map_series(2, 4, rng)
    tensors = build_ttms(maps)
    prof = norm_profile(tensors)
    raw = norm_profile(tensors, subtract_identity=False)
    assert prof[0] == pytest.approx(np.linalg.norm(tensors[0] - np.eye(4)))
    npt.assert_array_equal(prof[1:], raw[1:])


def test_count_above_threshold_and_truncation_choice():
    profile = np.array([10.0, 0.5, 0.2, 0.05, 0.001])
    assert count_above_threshold(profile) == 3  # cut at 0.01 * profile[0]
    assert count_above_threshold(profile, reference=1000.0) == 0
    # a reference 4x the first entry cuts at 0.04 * profile[0]
    assert count_above_threshold(profile, reference=4 * profile[0]) == 2

    tensors = [np.eye(4) * v for v in (1.0, 0.1, 0.01, 1e-5, 1e-7)]
    assert choose_truncation(tensors, threshold=1e-3) == 4
    assert choose_truncation(tensors, threshold=1e-9) == 5


def test_build_ttms_validates_input():
    with pytest.raises(ValueError):
        build_ttms([])
    with pytest.raises(ValueError):
        build_ttms([np.eye(4), np.eye(3)])
