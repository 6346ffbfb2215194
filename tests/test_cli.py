"""Config validation, pipeline modes, determinism, exit codes."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import ttmkit
from ttmkit.cli import ConfigError, build_model, main, run_config
from ttmkit.io import read_map_series, read_qpt_csv, read_series_csv, write_map_series
from ttmkit.liouville import (
    SIGMA_Z,
    hamiltonian_liouvillian,
    kron_superop,
    left_multiply,
    right_multiply,
)
from ttmkit.noisegen import NoiseModel
from ttmkit.presets import single_qubit_model
from ttmkit.propagator import SystemModel, dephasing_map_series
from ttmkit.qpt import simulate_qpt
from ttmkit.io import write_qpt_csv


def _sim_cfg(**over):
    cfg = {
        "mode": "simulate",
        "system": {"n_qubits": 1, "biases": [0.1],
                   "channels": [{"axis": "z", "qubit": 1}]},
        "noise": {"variances": [4.0], "decay_rates": [1.0]},
        "grid": {"dt": 0.2, "n_steps": 4},
        "sampling": {"n_traj": 128, "seed": 7},
    }
    cfg.update(over)
    return cfg


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_build_model_assembles_operators():
    model = build_model(_sim_cfg())
    assert model.dim == 2
    np.testing.assert_allclose(model.h_system, 0.1 * SIGMA_Z, atol=1e-14)
    np.testing.assert_allclose(model.couplings[0], SIGMA_Z, atol=1e-14)
    assert model.noise.kappas == (1.0,)
    assert model.noise.cross[0, 0] == 4.0


def test_build_model_two_qubit_layout():
    cfg = _sim_cfg(system={"n_qubits": 2, "biases": [0.1, 0.2],
                           "zz_coupling": 0.05,
                           "channels": [{"axis": "z", "qubit": 1},
                                        {"axis": "z", "qubit": 2}]},
                   noise={"variances": [1.0, 1.0], "decay_rates": [1.0, 1.0],
                          "cross": [[1.0, 0.5], [0.5, 1.0]]})
    model = build_model(cfg)
    assert model.dim == 4
    z1 = np.kron(SIGMA_Z, np.eye(2))
    z2 = np.kron(np.eye(2), SIGMA_Z)
    np.testing.assert_allclose(model.h_system,
                               0.1 * z1 + 0.2 * z2 + 0.05 * (z1 @ z2), atol=1e-14)
    np.testing.assert_allclose(model.couplings[1], z2, atol=1e-14)
    assert model.noise.cross[0, 1] == 0.5


def test_config_field_errors_are_specific():
    with pytest.raises(ConfigError, match="system.n_qubits"):
        build_model({"system": {"biases": []}, "noise": {}})
    cfg = _sim_cfg()
    cfg["system"]["channels"][0]["qubit"] = 0
    with pytest.raises(ConfigError, match=r"channels\[0\].qubit"):
        build_model(cfg)
    cfg = _sim_cfg()
    cfg["system"]["channels"][0]["axis"] = "w"
    with pytest.raises(ConfigError, match=r"channels\[0\].axis"):
        build_model(cfg)
    cfg = _sim_cfg()
    cfg["noise"]["variances"] = [1.0, 2.0]
    with pytest.raises(ConfigError, match="noise.variances"):
        build_model(cfg)
    cfg = _sim_cfg(system={"n_qubits": 1, "biases": [0.1], "zz_coupling": 0.3,
                           "channels": [{"axis": "z"}]})
    with pytest.raises(ConfigError, match="zz_coupling"):
        build_model(cfg)


def test_booleans_are_not_numbers(tmp_path):
    cfg = _sim_cfg()
    cfg["grid"]["dt"] = True
    with pytest.raises(ConfigError, match="grid.dt"):
        run_config(cfg, str(tmp_path))


def test_cross_diagonal_must_equal_variances(tmp_path, capsys):
    cfg = _sim_cfg(noise={"variances": [1.0], "decay_rates": [1.0], "cross": [[9.0]]})
    assert main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "noise.cross" in err


@pytest.mark.parametrize("cross, reason", [
    ([[1.0, 0.5], [0.2, 1.0]], "symmetric"),
    ([[1.0, 3.0], [3.0, 1.0]], "positive semidefinite"),
], ids=["asymmetric", "not-psd"])
def test_cross_must_be_a_covariance(tmp_path, capsys, cross, reason):
    # cross is C(0): a symmetric positive semidefinite matrix or no noise at all
    cfg = _sim_cfg(system={"n_qubits": 2, "biases": [0.1, 0.2],
                           "channels": [{"axis": "z", "qubit": 1},
                                        {"axis": "z", "qubit": 2}]},
                   noise={"variances": [1.0, 1.0], "decay_rates": [1.0, 1.0],
                          "cross": cross})
    assert main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "noise.cross" in err and reason in err
    assert not (tmp_path / "maps.json").exists()


@pytest.mark.parametrize("field, value", [
    ("noise.variances", ["x"]),
    ("system.biases", ["x"]),
    ("system.biases", [None]),
    ("noise.cross", [["a"]]),
    (None, [1, 2]),
    ("noise.variances", [-1.0]),
    ("noise.decay_rates", ["fast"]),
    ("noise.decay_rates", [-1.0]),
    ("noise.variances", [float("nan")]),
    ("noise.modulations", [True]),
    ("grid.dt", float("nan")),
    ("system.biases", [10**400]),
], ids=["variance-string", "bias-string", "bias-null", "cross-string", "top-level-list",
        "variance-negative", "decay-string", "decay-negative", "variance-nan",
        "modulation-bool", "dt-nan", "bias-huge-integer"])
def test_numeric_fields_take_only_finite_numbers(tmp_path, capsys, field, value):
    cfg = _sim_cfg()
    if field is None:
        cfg = value
    else:
        section, key = field.split(".")
        cfg[section][key] = value
    assert main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and (field is None or field in err)
    assert not (tmp_path / "maps.json").exists()


@pytest.mark.parametrize("mode, field, value", [
    ("simulate", "sampling.antithetic", "false"),
    ("simulate", "sampling.control_variate", 1),
    ("ttm", "save_tensors", "yes"),
    ("ingest", "project_cptp", 0),
])
def test_switches_take_only_json_booleans(tmp_path, mode, field, value):
    cfg = _sim_cfg(mode=mode, input="absent.json")
    section, _, key = field.rpartition(".")
    (cfg[section] if section else cfg)[key] = value
    with pytest.raises(ConfigError, match=field):
        run_config(cfg, str(tmp_path))


def test_antithetic_runs_need_an_even_trajectory_count(tmp_path, capsys):
    xy4 = _xy4_cfg()
    xy4["sampling"]["n_traj"] = 401
    for cfg in (_sim_cfg(sampling={"n_traj": 127, "seed": 7}), xy4):
        assert main(["run", "--config", _write_cfg(tmp_path, cfg),
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "sampling.n_traj" in err
    plain = _sim_cfg(sampling={"n_traj": 127, "seed": 7, "antithetic": False})
    run_config(plain, str(tmp_path))
    assert read_map_series(tmp_path / "maps.json")[1]["n_traj"] == 127


def test_seed_is_mandatory_for_stochastic_modes(tmp_path):
    cfg = _sim_cfg()
    del cfg["sampling"]["seed"]
    with pytest.raises(ConfigError, match="sampling.seed"):
        run_config(cfg, str(tmp_path))


def test_unknown_mode_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        run_config(_sim_cfg(mode="meditate"), str(tmp_path))


def _xy4_cfg(n_steps=3, substeps=4):
    return {
        "mode": "xy4",
        "system": {"n_qubits": 1, "biases": [0.0],
                   "channels": [{"axis": "z", "qubit": 1}]},
        "noise": {"variances": [0.1], "decay_rates": [0.25]},
        "grid": {"dt": 2.0, "n_steps": n_steps},
        "sampling": {"n_traj": 400, "seed": 3, "substeps": substeps},
    }


def test_grid_cap_enforced(tmp_path, capsys):
    cfg = _sim_cfg()
    cfg["grid"]["n_steps"] = 4096
    with pytest.raises(ConfigError, match="4096"):
        run_config(cfg, str(tmp_path))
    # the xy4 free run samples 4 * substeps values per cycle: 200 * 32 > 4096
    cfg_path = _write_cfg(tmp_path, _xy4_cfg(n_steps=200, substeps=8))
    assert main(["xy4", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grid.n_steps" in err


def test_simulate_writes_maps_and_optional_records(tmp_path):
    cfg = _sim_cfg(shots=64)
    written = run_config(cfg, str(tmp_path))
    assert sorted(p.split("/")[-1] for p in written) == ["maps.json",
                                                         "qpt_records.csv"]
    maps, info = read_map_series(tmp_path / "maps.json")
    assert len(maps) == 4 and info["dim"] == 2 and info["n_traj"] == 128
    records = read_qpt_csv(tmp_path / "qpt_records.csv")
    assert len(records) == 4 * 16 and records[0].shots == 64


def test_simulate_is_byte_identical_across_reruns(tmp_path):
    cfg = _sim_cfg()
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir(), dir_b.mkdir()
    run_config(cfg, str(dir_a))
    run_config(cfg, str(dir_b))
    assert (dir_a / "maps.json").read_bytes() == (dir_b / "maps.json").read_bytes()


def test_ttm_and_nonmarkov_chain(tmp_path):
    model = SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_Z,),
                        noise=NoiseModel.single(4.0, 0.3, omega=6.0))
    maps = dephasing_map_series(model, 0.2, 10)
    write_map_series(tmp_path / "maps.json", maps, dt=0.2)

    cfg = {"mode": "ttm", "input": "maps.json", "save_tensors": True}
    written = run_config(cfg, str(tmp_path))
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["tensors.json", "ttm_norms.csv"]
    cols, meta = read_series_csv(tmp_path / "ttm_norms.csv")
    assert "config_hash" in meta
    assert cols["n"].size == 10
    tensors, _ = read_map_series(tmp_path / "tensors.json")
    assert len(tensors) == 10

    cfg = {"mode": "nonmarkov", "input": "maps.json",
           "extend": {"n_total": 20, "k_trunc": 5}}
    written = run_config(cfg, str(tmp_path))
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["nonmarkov_report.txt", "volume.csv", "volume_extended.csv"]
    cols, _ = read_series_csv(tmp_path / "volume.csv")
    assert cols["volume"][0] == 1.0
    ext, _ = read_series_csv(tmp_path / "volume_extended.csv")
    assert ext["time"].size == 21
    report = (tmp_path / "nonmarkov_report.txt").read_text()
    assert "nonmarkovianity = " in report
    assert "nonmarkovianity_extended = " in report


def test_spectroscopy_mode_single_input(tmp_path):
    model = SystemModel(h_system=0.02 * SIGMA_Z, couplings=(SIGMA_Z,),
                        noise=NoiseModel.single(0.01, 1.0))
    maps = dephasing_map_series(model, 0.04, 25)
    write_map_series(tmp_path / "maps.json", maps, dt=0.04)
    cfg = {"mode": "spectroscopy", "input": "maps.json",
           "system": {"n_qubits": 1, "biases": [0.02],
                      "channels": [{"axis": "z", "qubit": 1}]},
           "noise": {"variances": [0.01], "decay_rates": [1.0]},
           "n_fit": 20}
    written = run_config(cfg, str(tmp_path))
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["correlation.csv", "fit_report.txt", "spectrum.csv"]
    corr, _ = read_series_csv(tmp_path / "correlation.csv")
    assert corr["time"].size == 20
    # recovered C_zz(0) should sit near the model variance
    assert abs(corr["c_re"][0] - 0.01) < 0.002
    spec, _ = read_series_csv(tmp_path / "spectrum.csv")
    assert spec["omega"].size == spec["s"].size


def test_spectroscopy_mode_scaled_inputs(tmp_path):
    lam0, gamma = 0.01, 0.5
    for tag, lam in (("a", lam0), ("b", lam0 * gamma**2)):
        model = SystemModel(h_system=0.02 * SIGMA_Z, couplings=(SIGMA_Z,),
                            noise=NoiseModel.single(lam, 1.0))
        maps = dephasing_map_series(model, 0.04, 20)
        write_map_series(tmp_path / f"maps_{tag}.json", maps, dt=0.04)
    cfg = {"mode": "spectroscopy", "inputs": ["maps_a.json", "maps_b.json"],
           "gammas": [1.0, gamma],
           "system": {"n_qubits": 1, "biases": [0.02],
                      "channels": [{"axis": "z", "qubit": 1}]},
           "noise": {"variances": [0.01], "decay_rates": [1.0]},
           "n_fit": 15}
    written = run_config(cfg, str(tmp_path))
    report = (tmp_path / "fit_report.txt").read_text()
    assert "vandermonde_condition = " in report
    corr, _ = read_series_csv(tmp_path / "correlation.csv")
    assert abs(corr["c_re"][0] - lam0) < 0.002


def test_spectroscopy_protocol_biases_takes_each_run_with_its_own_liouvillian(tmp_path):
    # two noiseless runs differ only in their bias; with each kernel taken from
    # the reference Liouvillian, run 1 kept 2 (L_1 - L_0)/dt + L_1^2 - L_0^2 in
    # slot 0 and the fit read it as noise
    for tag, bias in (("a", 0.5), ("b", 1.0)):
        model = single_qubit_model(bias, "z", 0.0, 1.0)
        write_map_series(tmp_path / f"maps_{tag}.json",
                         dephasing_map_series(model, 0.1, 10), dt=0.1)
    cfg = {"mode": "spectroscopy", "inputs": ["maps_a.json", "maps_b.json"],
           "protocol_biases": [0.5, 1.0],
           "system": {"n_qubits": 1, "biases": [0.5],
                      "channels": [{"axis": "z", "qubit": 1}]},
           "noise": {"variances": [0.0], "decay_rates": [1.0]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_config(cfg, str(tmp_path))
    corr, _ = read_series_csv(tmp_path / "correlation.csv")
    assert np.max(np.abs(corr["c_re"])) < 0.01


def test_config_hash_reads_input_files_by_content(tmp_path):
    # the same map file in two directories, named by absolute path, gives the
    # same header; a changed file gives another
    model = SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_Z,),
                        noise=NoiseModel.single(4.0, 0.3))
    headers = []
    for tag, n_maps in (("a", 6), ("b", 6), ("c", 7)):
        where = tmp_path / tag
        where.mkdir()
        write_map_series(where / "maps.json", dephasing_map_series(model, 0.2, n_maps),
                         dt=0.2)
        run_config({"mode": "ttm", "input": str(where / "maps.json")}, str(where))
        headers.append(read_series_csv(where / "ttm_norms.csv")[1])
    assert headers[0] == headers[1]
    assert headers[0]["config_hash"] != headers[2]["config_hash"]


def _spectroscopy_cfg(tmp_path, n_maps=10, **over):
    model = SystemModel(h_system=0.02 * SIGMA_Z, couplings=(SIGMA_Z,),
                        noise=NoiseModel.single(0.01, 1.0))
    for tag in ("a", "b"):
        write_map_series(tmp_path / f"maps_{tag}.json",
                         dephasing_map_series(model, 0.04, n_maps), dt=0.04)
    cfg = {"mode": "spectroscopy",
           "system": {"n_qubits": 1, "biases": [0.02],
                      "channels": [{"axis": "z", "qubit": 1}]},
           "noise": {"variances": [0.01], "decay_rates": [1.0]}}
    if "inputs" not in over:
        cfg["input"] = "maps_a.json"
    cfg.update(over)
    return _write_cfg(tmp_path, cfg)


def test_spectroscopy_n_fit_above_kernel_count_is_config_error(tmp_path, capsys):
    cfg_path = _spectroscopy_cfg(tmp_path, n_fit=50)
    assert main(["spectroscopy", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'n_fit'" in err and "10" in err
    assert not (tmp_path / "correlation.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("protocol_biases", [0.0, 0.1]),
    ("protocol_biases", [-0.1, 0.2]),
    ("protocol_biases", [0.1]),
    ("gammas", [1.0, -0.5]),
    ("gammas", [1.0, True]),
])
def test_spectroscopy_scales_must_be_positive_one_per_input(tmp_path, capsys, field, value):
    cfg_path = _spectroscopy_cfg(tmp_path, inputs=["maps_a.json", "maps_b.json"],
                                 **{field: value})
    assert main(["spectroscopy", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{field}'" in err


def test_spectroscopy_inputs_must_share_dt(tmp_path, capsys):
    cfg_path = _spectroscopy_cfg(tmp_path, inputs=["maps_a.json", "maps_b.json"],
                                 gammas=[1.0, 0.5])
    maps, _ = read_map_series(tmp_path / "maps_b.json")
    write_map_series(tmp_path / "maps_b.json", maps, dt=0.4)
    assert main(["spectroscopy", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'inputs'" in err and "0.04" in err and "0.4 " in err
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("channels, detail", [
    ([], "at least one pair"),
    ([["z", "z"], ["z", "z"]], "[['z', 'z']]"),
], ids=["empty", "repeated"])
def test_spectroscopy_channels_must_be_distinct_and_nonempty(tmp_path, capsys,
                                                             channels, detail):
    cfg_path = _spectroscopy_cfg(tmp_path, channels=channels)
    assert main(["spectroscopy", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'channels'" in err and detail in err
    assert not (tmp_path / "correlation.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("lambdas", float("nan")),
    ("lambdas", -1.0),
    ("lambdas", "abc"),
    ("lambdas", [0.1, 0.1]),
    ("channels", [["z", "q"]]),
], ids=["lambdas-nan", "lambdas-negative", "lambdas-string", "lambdas-wrong-length",
        "channels-unknown-axis"])
def test_spectroscopy_fit_fields_are_config_errors(tmp_path, capsys, field, value):
    cfg_path = _spectroscopy_cfg(tmp_path, **{field: value})
    assert main(["spectroscopy", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{field}'" in err
    assert not (tmp_path / "correlation.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("gammas", [1.0, 0.5]),
    ("protocol_biases", [0.02, 0.04]),
])
def test_spectroscopy_scale_lists_need_two_or_more_inputs(tmp_path, capsys, field, value):
    # with one input the scale list used to be ignored
    cfg_path = _spectroscopy_cfg(tmp_path, **{field: value})
    assert main(["spectroscopy", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{field}'" in err and "two or more" in err
    assert not (tmp_path / "correlation.csv").exists()


@pytest.mark.parametrize("scales", [{}, {"gammas": [1.0, 0.5], "protocol_biases": [0.02, 0.04]}],
                         ids=["neither", "both"])
def test_spectroscopy_inputs_need_exactly_one_scale_list(tmp_path, capsys, scales):
    # this used to exit 3 with a pipeline error from combine_scaled_kernels
    cfg_path = _spectroscopy_cfg(tmp_path, inputs=["maps_a.json", "maps_b.json"], **scales)
    assert main(["spectroscopy", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'gammas'" in err and "'protocol_biases'" in err
    assert not (tmp_path / "correlation.csv").exists()


def test_spectroscopy_input_and_inputs_together_are_config_error(tmp_path, capsys):
    # 'input' used to be dropped without a word, though it entered the config hash
    cfg_path = _spectroscopy_cfg(tmp_path, inputs=["maps_a.json", "maps_b.json"],
                                 gammas=[1.0, 0.5], input="maps_a.json")
    assert main(["spectroscopy", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'input'" in err and "'inputs'" in err
    assert not (tmp_path / "correlation.csv").exists()


def test_spectroscopy_reference_bias_is_stated_once(tmp_path, capsys):
    # system.biases[0] scales every run's Liouvillian, and protocol_biases[0]
    # is the same reference bias: 0.7 against 0.5 used to give max |C| = 1.2
    for tag, bias in (("a", 0.5), ("b", 1.0)):
        model = single_qubit_model(bias, "z", 0.0, 1.0)
        write_map_series(tmp_path / f"maps_{tag}.json",
                         dephasing_map_series(model, 0.1, 10), dt=0.1)
    cfg = {"mode": "spectroscopy", "inputs": ["maps_a.json", "maps_b.json"],
           "protocol_biases": [0.5, 1.0],
           "system": {"n_qubits": 1, "biases": [0.7],
                      "channels": [{"axis": "z", "qubit": 1}]},
           "noise": {"variances": [0.0], "decay_rates": [1.0]}}
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["spectroscopy", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'protocol_biases'" in err
    assert "system.biases[0]" in err and "0.5" in err and "0.7" in err
    assert not (tmp_path / "correlation.csv").exists()


def test_nonmarkov_k_trunc_needs_n_total(tmp_path, capsys):
    model = SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_Z,),
                        noise=NoiseModel.single(4.0, 1.0))
    write_map_series(tmp_path / "maps.json", dephasing_map_series(model, 0.2, 4), dt=0.2)
    cfg_path = _write_cfg(tmp_path, {"mode": "nonmarkov", "input": "maps.json",
                                     "extend": {"k_trunc": 2}})
    assert main(["nonmarkov", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'extend.k_trunc'" in err and "extend.n_total" in err
    assert not (tmp_path / "volume.csv").exists()


def test_nonmarkov_k_trunc_above_map_count_is_config_error(tmp_path, capsys):
    model = SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_Z,),
                        noise=NoiseModel.single(4.0, 1.0))
    write_map_series(tmp_path / "maps.json", dephasing_map_series(model, 0.2, 4), dt=0.2)
    cfg_path = _write_cfg(tmp_path, {"mode": "nonmarkov", "input": "maps.json",
                                     "extend": {"n_total": 8, "k_trunc": 5}})
    assert main(["nonmarkov", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'extend.k_trunc'" in err and "<= 4" in err
    assert not (tmp_path / "volume.csv").exists()


def test_twoqubit_mode(tmp_path):
    z1 = np.kron(SIGMA_Z, np.eye(2))
    z2 = np.kron(np.eye(2), SIGMA_Z)
    noise = NoiseModel(kappas=(1.0, 1.0), omegas=(0.0, 0.0),
                       cross=np.array([[1.0, 1.0], [1.0, 1.0]]))
    model = SystemModel(h_system=0.1 * z1 + 0.1 * z2, couplings=(z1, z2),
                        noise=noise)
    maps = dephasing_map_series(model, 0.2, 6)
    write_map_series(tmp_path / "maps.json", maps, dt=0.2)
    cfg = {"mode": "twoqubit", "input": "maps.json"}
    written = run_config(cfg, str(tmp_path))
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["twoqubit_norms.csv", "twoqubit_report.txt"]
    cols, _ = read_series_csv(tmp_path / "twoqubit_norms.csv")
    assert np.all(cols["correlated"][:2] > 1e-4)
    report = (tmp_path / "twoqubit_report.txt").read_text()
    assert "verdict = " in report

    bad = {"mode": "twoqubit", "input": "single.json"}
    single = dephasing_map_series(
        SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_Z,),
                    noise=NoiseModel.single(1.0, 1.0)), 0.2, 3)
    write_map_series(tmp_path / "single.json", single, dt=0.2)
    with pytest.raises(ConfigError, match="dim-4"):
        run_config(bad, str(tmp_path))


def test_twoqubit_split_on_well_conditioned_maps_leaves_scipy_linalg_unloaded(tmp_path):
    # closed-form maps exp(t G) of two damped qubits at different biases with a
    # zz coupling: no repeated eigenvalue, and kappa(V) <= 12 for every map the
    # split takes a log of, so every log is an eigendecomposition
    a, n_op = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0])
    jump = left_multiply(a) @ right_multiply(a.T)
    damp = jump - 0.5 * (left_multiply(n_op) + right_multiply(n_op))
    gen = (kron_superop(hamiltonian_liouvillian(0.5 * SIGMA_Z) + 0.3 * damp, np.eye(4))
           + kron_superop(np.eye(4), hamiltonian_liouvillian(0.85 * SIGMA_Z) + 0.5 * damp)
           + hamiltonian_liouvillian(0.2 * np.kron(SIGMA_Z, SIGMA_Z)))
    maps = [expm(n * 0.05 * gen) for n in range(1, 5)]
    write_map_series(tmp_path / "maps.json", maps, dt=0.05)
    cfg_path = _write_cfg(tmp_path, {"mode": "twoqubit", "input": "maps.json"})
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttmkit.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); from ttmkit.cli import main; "
            f"code = main(['twoqubit', '--config', {cfg_path!r}, '--out-dir', "
            f"{str(tmp_path)!r}]); print(code, 'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split()[-2:] == ["0", "False"]
    assert "dl_dt_norm = " in (tmp_path / "twoqubit_report.txt").read_text()


def test_nonmarkov_mode_rejects_two_qubit_maps(tmp_path, capsys):
    maps = [kron_superop(np.eye(4), np.eye(4))] * 3
    write_map_series(tmp_path / "pair.json", maps, dt=0.2)
    cfg_path = _write_cfg(tmp_path, {"mode": "nonmarkov", "input": "pair.json"})
    assert main(["nonmarkov", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'input'" in err and "dim-2" in err
    assert not (tmp_path / "volume.csv").exists()


def test_twoqubit_mode_reports_singular_maps_unattributed(tmp_path):
    # full dephasing of qubit 1 zeroes its coherences, so the maps have no
    # logarithm; the norms and the verdict must still be written
    dephase = np.diag([1.0, 0.0, 0.0, 1.0])
    maps = [kron_superop(dephase, np.eye(4))] * 3
    write_map_series(tmp_path / "maps.json", maps, dt=0.2)
    written = run_config({"mode": "twoqubit", "input": "maps.json"}, str(tmp_path))
    assert sorted(p.split("/")[-1] for p in written) == [
        "twoqubit_norms.csv", "twoqubit_report.txt"]
    report = (tmp_path / "twoqubit_report.txt").read_text()
    assert "verdict = not attributed" in report
    assert "split_skipped = the map is singular" in report


def test_ingest_mode_roundtrip(tmp_path):
    model = SystemModel(h_system=0.1 * SIGMA_Z, couplings=(SIGMA_Z,),
                        noise=NoiseModel.single(4.0, 1.0))
    maps = dephasing_map_series(model, 0.2, 3)
    records = simulate_qpt(maps, shots=0)
    write_qpt_csv(tmp_path / "records.csv", records)
    cfg = {"mode": "ingest", "input": "records.csv", "grid": {"dt": 0.2},
           "project_cptp": True}
    written = run_config(cfg, str(tmp_path))
    assert written[0].endswith("maps.json")
    back, info = read_map_series(tmp_path / "maps.json")
    assert info["dt"] == 0.2
    worst = max(np.max(np.abs(a - b)) for a, b in zip(maps, back))
    assert worst < 1e-8


def test_xy4_mode(tmp_path):
    # a z channel, and an x channel off the diagonal-phase path
    transverse = _xy4_cfg()
    transverse["system"]["channels"] = [{"axis": "x", "qubit": 1}]
    for cfg in (_xy4_cfg(), transverse):
        written = run_config(cfg, str(tmp_path))
        assert written[0].endswith("xy4_norms.csv")
        cols, _ = read_series_csv(tmp_path / "xy4_norms.csv")
        assert set(cols) == {"n", "free", "xy4"}
        assert cols["n"].size == 3


def test_main_exit_codes_and_subcommands(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _sim_cfg())
    assert main(["simulate", "--config", cfg_path,
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "maps.json" in out

    # subcommand/mode mismatch
    assert main(["ttm", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "mode" in err

    # generic run reads the mode from the file
    assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    # a config without mode works through a mode subcommand
    bare = _sim_cfg()
    del bare["mode"]
    bare_path = _write_cfg(tmp_path, bare, "bare.json")
    assert main(["simulate", "--config", bare_path,
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    # unreadable and malformed configs are config errors
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", "--config", str(broken)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    # a UTF-16 byte-order mark is not UTF-8; it used to escape as a traceback
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["run", "--config", str(utf16)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "cannot read" in err
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2]")
    assert main(["simulate", "--config", str(listed)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "expected a JSON object, got list" in err

    # failures inside a stage exit 3 with the module named
    missing_input = _write_cfg(tmp_path, {"mode": "ttm", "input": "ghost.json"},
                               "missing.json")
    assert main(["ttm", "--config", missing_input,
                 "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "pipeline error" in err and "[io]" in err


def test_main_preset_smoke(tmp_path, capsys):
    assert main(["preset", "fig3top", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in ("fig3top_correlation.csv", "fig3top_spectrum.csv",
                 "fig3top_fit_report.txt"):
        assert name in out
        assert (tmp_path / name).exists()


def test_main_preset_lists_every_file_of_a_two_study_preset(tmp_path, capsys):
    assert main(["preset", "fig5", "--scale", "fast", "--out-dir", str(tmp_path)]) == 0
    listed = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines()]
    names = [f"fig5_{model}_{kind}" for model in ("correlated", "independent")
             for kind in ("norms.csv", "report.txt")]
    assert listed == [str(tmp_path / name) for name in names]
    assert all((tmp_path / name).exists() for name in names)
