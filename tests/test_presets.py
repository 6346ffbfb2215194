"""Bundled model builders and end-to-end study runners at smoke scale."""

import os

import numpy as np
import pytest

from ttmkit import io, presets
from ttmkit.io import read_series_csv
from ttmkit.liouville import SIGMA_X, SIGMA_Z
from ttmkit.presets import (
    RUNNERS,
    coupled_pair_model,
    correlated_pair_model,
    dd_demo_model,
    dephasing_demo_model,
    run_fig1,
    single_qubit_model,
    transverse_noise_model,
    two_qubit_dephasing,
    weak_dephasing_model,
)
from ttmkit.propagator import dephasing_map_series
from ttmkit.ttm import build_ttms


def test_single_qubit_model_axes():
    model = single_qubit_model(0.1, "x", 0.5, 2.0, omega_c=1.5)
    np.testing.assert_allclose(model.h_system, 0.1 * SIGMA_Z, atol=1e-14)
    np.testing.assert_allclose(model.couplings[0], SIGMA_X, atol=1e-14)
    assert model.noise.kappas == (2.0,)
    assert model.noise.omegas == (1.5,)
    assert model.noise.cross[0, 0] == 0.5


def test_two_qubit_builder_structure():
    model = two_qubit_dephasing(bias1=0.1, bias2=0.2, zz=0.05,
                                couplings=(1.0, 2.0), cross=0.3,
                                kappas=(1.0, 4.0))
    z1 = np.kron(SIGMA_Z, np.eye(2))
    z2 = np.kron(np.eye(2), SIGMA_Z)
    np.testing.assert_allclose(model.h_system,
                               0.1 * z1 + 0.2 * z2 + 0.05 * (z1 @ z2), atol=1e-14)
    assert model.noise.cross[0, 0] == 1.0
    assert model.noise.cross[1, 1] == 2.0
    assert model.noise.cross[0, 1] == 0.3
    assert model.noise.kappas == (1.0, 4.0)


def test_named_models_are_consistent():
    assert dephasing_demo_model().noise.cross[0, 0] == 4.0
    assert weak_dephasing_model().noise.cross[0, 0] == 0.01
    assert weak_dephasing_model(0.5).noise.cross[0, 0] == 0.5
    assert np.allclose(transverse_noise_model().couplings[0], SIGMA_X)
    zz = coupled_pair_model()
    # H(0,0) = b1 + b2 + zz and H(3,3) = -b1 - b2 + zz, so the sum is 2 zz
    assert np.real(zz.h_system[0, 0] + zz.h_system[3, 3]) == pytest.approx(0.1)
    corr = correlated_pair_model()
    assert corr.noise.cross[0, 1] == 1.0
    assert np.max(np.abs(dd_demo_model().h_system)) == 0.0


def test_runner_registry_is_complete():
    assert set(RUNNERS) == {"fig1", "fig2", "fig3top", "fig3bottom",
                            "fig4", "fig5", "fig6", "xy4"}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runners_smoke_at_fast_scale(name, tmp_path):
    # every runner returns a flat {name: path} dict of the files it wrote
    out = RUNNERS[name](str(tmp_path), scale="fast")
    assert isinstance(out, dict) and out
    for path in out.values():
        assert isinstance(path, str), path
        assert os.path.exists(path), path
        assert os.path.getsize(path) > 0


def test_fig1_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_fig1(str(a), scale="fast")
    run_fig1(str(b), scale="fast")
    for name in ("fig1_ttm_norms.csv", "fig1_predictions.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    cols, meta = read_series_csv(a / "fig1_predictions.csv")
    assert "re_rho12_exact" in cols and "re_rho12_k5" in cols
    assert "config_hash" in meta


def test_fig3bottom_sweep_columns(tmp_path):
    RUNNERS["fig3bottom"](str(tmp_path), scale="fast")
    cols, _ = read_series_csv(tmp_path / "fig3bottom_coupling_sweep.csv")
    assert set(cols) == {"lam", "c_naive", "c_protocol", "c_exact"}
    assert cols["lam"].size == 6
    # the protocol value must beat the naive one at the strongest coupling
    err_naive = abs(cols["c_naive"][-1] - cols["c_exact"][-1])
    err_protocol = abs(cols["c_protocol"][-1] - cols["c_exact"][-1])
    assert err_protocol < err_naive


def test_study_bodies_write_no_file(tmp_path, monkeypatch):
    # the CLI modes and the presets write these results themselves
    def refuse(*args, **kwargs):
        raise AssertionError("a study body wrote a file")

    for name in ("write_map_series", "write_qpt_csv", "write_series_csv", "write_report"):
        monkeypatch.setattr(io, name, refuse)
    monkeypatch.chdir(tmp_path)
    model = weak_dephasing_model(0.5)
    runs = [dephasing_map_series(weak_dephasing_model(lam), 0.04, 12) for lam in (0.5, 0.02)]
    series, omega, s, fields = presets._spectroscopy_study(
        runs, model.h_system, 0.04, (("z", "z"),), n_fit=10, gammas=[1.0, 0.2])
    assert series.values.shape == (10, 3, 3) and omega.shape == s.shape
    assert list(fields) == ["n_fit_points", "residuals", "iterations",
                            "vandermonde_condition"]
    columns = presets._norm_columns(build_ttms(runs[0]))
    assert list(columns) == ["n", "norm", "norm_first_minus_identity"]
    assert columns["n"].tolist() == list(range(1, 13))
    assert list(tmp_path.iterdir()) == []
