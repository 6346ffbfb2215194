"""Two-qubit unraveling, generator/kernel isolation, attribution report."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from scipy.linalg import expm

from ttmkit.liouville import SIGMA_Z, kron_superop, unitary_superop
from ttmkit.multiqubit import (
    UnravelResult,
    _logm,
    collective_report,
    isolate_collective,
    unravel,
)
from ttmkit.noisegen import NoiseModel
from ttmkit.presets import correlated_pair_model, coupled_pair_model
from ttmkit.propagator import SystemModel, dephasing_map_series
from ttmkit.ttm import build_ttms

from conftest import map_distance, random_cptp


Z1 = np.kron(SIGMA_Z, np.eye(2))
Z2 = np.kron(np.eye(2), SIGMA_Z)


def _pair_model(zz=0.0, cross=0.0, kappa=1.0, lam=1.0):
    cmat = np.array([[lam, cross], [cross, lam]])
    noise = NoiseModel(kappas=(kappa, kappa), omegas=(0.0, 0.0), cross=cmat)
    h = 0.1 * Z1 + 0.1 * Z2 + zz * (Z1 @ Z2)
    return SystemModel(h_system=h, couplings=(Z1, Z2), noise=noise)


def test_unravel_requires_two_qubit_maps():
    with pytest.raises(ValueError, match="16x16"):
        unravel([np.eye(4)])


def test_independent_qubits_have_no_collective_part():
    model = _pair_model(zz=0.0, cross=0.0)
    maps = dephasing_map_series(model, 0.2, 6)
    result = unravel(maps)
    for delta in result.delta_maps:
        assert np.max(np.abs(delta)) < 1e-12
    for delta in result.delta_tensors:
        assert np.max(np.abs(delta)) < 1e-12
    for sep, full in zip(result.separable_maps, maps):
        assert map_distance(sep, full) < 1e-12


def test_unravel_reconstruction_identities():
    model = _pair_model(zz=0.05, cross=0.0)
    maps = dephasing_map_series(model, 0.2, 5)
    result = unravel(maps)
    # the split is exact map by map
    for m, sep, delta in zip(maps, result.separable_maps, result.delta_maps):
        npt.assert_allclose(sep + delta, m, atol=1e-12)
    # local factors regenerate the separable series
    for (e1, e2), sep in zip(result.local_maps, result.separable_maps):
        npt.assert_allclose(kron_superop(e1, e2), sep, atol=1e-12)
    # tensors match a direct recursion on each series
    direct_full = build_ttms(maps)
    direct_sep = build_ttms(result.separable_maps)
    for a, b in zip(result.full_tensors, direct_full):
        npt.assert_allclose(a, b, atol=1e-12)
    for a, b, dlt in zip(direct_full, direct_sep, result.delta_tensors):
        npt.assert_allclose(a - b, dlt, atol=1e-12)


def test_zz_coupling_produces_collective_memory():
    model = _pair_model(zz=0.05, cross=0.0)
    maps = dephasing_map_series(model, 0.2, 6)
    result = unravel(maps)
    assert np.linalg.norm(result.delta_maps[0]) > 1e-3
    assert np.linalg.norm(result.delta_tensors[0]) > 1e-3


def test_correlated_noise_produces_collective_memory():
    model = _pair_model(zz=0.0, cross=1.0)
    maps = dephasing_map_series(model, 0.2, 6)
    result = unravel(maps)
    assert np.linalg.norm(result.delta_maps[0]) > 1e-3


def test_zz_coupling_lands_in_the_generator_slot():
    # direct coupling is a Hamiltonian effect: dL grows linearly with zz
    # while the kernel part stays at the noise level
    dt = 0.02
    collected = {}
    for zz in (0.02, 0.04):
        model = _pair_model(zz=zz, cross=0.0, kappa=1.0, lam=0.2)
        result = unravel(dephasing_map_series(model, dt, 2))
        dl_dt, dk_dt2 = isolate_collective(result, dt, noise=model.noise)
        collected[zz] = (np.linalg.norm(dl_dt), np.linalg.norm(dk_dt2))
    for zz, (dl, dk) in collected.items():
        assert dl > 5.0 * dk
    assert collected[0.04][0] / collected[0.02][0] == pytest.approx(2.0, rel=0.05)


def test_correlated_noise_lands_in_the_kernel_slot():
    dt = 0.02
    model = _pair_model(zz=0.0, cross=1.0, kappa=1.0, lam=1.0)
    result = unravel(dephasing_map_series(model, dt, 2))
    dl_dt, dk_dt2 = isolate_collective(result, dt, noise=model.noise)
    assert np.linalg.norm(dk_dt2) > 5.0 * np.linalg.norm(dl_dt)


def test_log_domain_split_attributes_both_pair_models_at_coarse_dt():
    # dt = 0.2 with order-one collective phase variance, where raw delta
    # maps no longer scale as dt and dt^2: the log-domain split must still
    # find no generator for correlated noise and the zz generator for
    # the coupled pair
    dt = 0.2
    model = correlated_pair_model(0.05)
    result = unravel(dephasing_map_series(model, dt, 2))
    dl_dt, dk_dt2 = isolate_collective(result, dt, noise=model.noise)
    assert np.max(np.abs(dl_dt)) < 0.005
    assert collective_report(result, dl_dt, dk_dt2)["verdict"].startswith("noise-dominated")

    model = coupled_pair_model(10.0)
    result = unravel(dephasing_map_series(model, dt, 2))
    with pytest.warns(UserWarning, match="order-of-magnitude"):
        dl_dt, _ = isolate_collective(result, dt, noise=model.noise)
    diag = np.diag(dl_dt).imag
    positions = [1, 2, 4, 7, 8, 11, 13, 14]
    signs = [-1, -1, 1, 1, 1, 1, -1, -1]
    npt.assert_allclose(diag[positions], 0.02 * np.array(signs), rtol=0.1)


def test_log_domain_split_rejects_short_and_singular_series():
    model = correlated_pair_model(0.05)
    with pytest.raises(ValueError, match="dt and 2 dt"):
        isolate_collective(unravel(dephasing_map_series(model, 0.2, 1)), 0.2)
    with pytest.raises(ValueError, match="singular"):
        isolate_collective(unravel([np.zeros((16, 16))] * 2), 0.2)


def test_logm_inverts_expm_on_diagonalizable_and_defective_maps():
    rng = np.random.default_rng(4)
    gen = 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    jordan = np.array([[0.9, 1.0], [0.0, 0.9]])  # defective: one eigenvector
    for sop in (expm(gen), jordan):
        npt.assert_allclose(expm(_logm(sop)), sop, atol=1e-12)


@pytest.fixture
def logm_calls(monkeypatch):
    """The matrices _logm hands to scipy.linalg.logm, which still computes their log."""
    calls = []
    reference = scipy.linalg.logm

    def recording(sop):
        calls.append(sop)
        return reference(sop)

    monkeypatch.setattr(scipy.linalg, "logm", recording)
    return calls


def test_eig_logm_matches_scipy_logm_on_random_and_rotated_pair_maps(logm_calls):
    rng = np.random.default_rng(12)
    sops = [expm(0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
            for d in (4, 4, 16, 16)]
    # the coupled pair's maps are diagonal in the z basis; a random local
    # unitary makes them and their marginals full (eigenvalue 1 stays fourfold
    # on the 16 x 16 maps; kappa(V) measured 3.6 to 20, far below _EIG_COND_MAX)
    u = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
         for _ in range(2)]
    s = unitary_superop(np.kron(*u))
    result = unravel([s @ m @ s.conj().T
                      for m in dephasing_map_series(coupled_pair_model(1.0), 0.2, 2)])
    for n in range(2):
        sops += [result.separable_maps[n] + result.delta_maps[n], *result.local_maps[n]]
    for sop in sops:
        assert np.max(np.abs(sop - np.diag(np.diag(sop)))) > 1e-3
        ref = scipy.linalg.logm(sop)
        assert np.linalg.norm(_logm(sop) - ref) <= 1e-12 * np.linalg.norm(ref)
    assert len(logm_calls) == len(sops)  # the reference calls only


def test_logm_falls_back_to_scipy_on_defective_maps_only(logm_calls):
    jordan = np.array([[0.9, 1.0], [0.0, 0.9]])
    # a pi rotation about z: the coherences pick up -1, where no log is more
    # principal than another; the eigendecomposition picks one, as logm would
    flip = unitary_superop(expm(-0.5j * np.pi * SIGMA_Z))
    for sop in (jordan, flip, flip.real):
        npt.assert_allclose(expm(_logm(sop)), sop, atol=1e-12)
    assert [c.shape for c in logm_calls] == [(2, 2)]


def _dummy_result(scale=1.0):
    rng = np.random.default_rng(9)
    t = [scale * random_cptp(4, rng) for _ in range(3)]
    zeros = [np.zeros((16, 16)) for _ in range(3)]
    return UnravelResult(t, t, zeros, t, zeros, [(None, None)] * 3)


def test_report_without_isolation_inputs():
    report = collective_report(_dummy_result())
    assert report["verdict"] == "not attributed (no isolation inputs)"
    assert report["delta_tensor_norms"].shape == (3,)


def test_report_verdicts():
    result = _dummy_result()
    big = np.eye(16)
    small = 0.1 * np.eye(16)
    assert collective_report(result, big, small)["verdict"] == "coupling-dominated"
    noise_verdict = collective_report(result, small, big)["verdict"]
    assert noise_verdict.startswith("noise-dominated")
    assert "coupling contributions" in noise_verdict  # the caveat must ride along
    assert collective_report(result, big, 0.5 * big)["verdict"] == "mixed"
    zero = np.zeros((16, 16))
    assert collective_report(result, zero, zero)["verdict"] == "no collective dynamics"
    mixed = collective_report(result, big, 0.5 * big)
    assert mixed["ratio"] == pytest.approx(2.0)
