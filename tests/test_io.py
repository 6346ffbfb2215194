"""File formats: map series JSON, tomography CSV, column CSV, reports."""

import json
import re

import numpy as np
import numpy.testing as npt
import pytest

from ttmkit.io import (
    MAP_CONVENTION,
    config_hash,
    read_map_series,
    read_qpt_csv,
    read_series_csv,
    write_map_series,
    write_qpt_csv,
    write_report,
    write_series_csv,
)
from ttmkit.qpt import QptRecord, simulate_qpt

from conftest import random_cptp


def test_map_series_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    maps = [random_cptp(2, rng) for _ in range(3)]
    path = tmp_path / "maps.json"
    write_map_series(path, maps, dt=0.2, n_traj=500, meta={"seed": "7"})
    back, info = read_map_series(path)
    assert info["dim"] == 2 and info["dt"] == 0.2 and info["n_traj"] == 500
    for a, b in zip(maps, back):
        npt.assert_array_equal(a, b)  # repr round-trip, not approximate


def test_map_series_json_layout(tmp_path):
    rng = np.random.default_rng(2)
    maps = [random_cptp(2, rng)]
    path = tmp_path / "maps.json"
    write_map_series(path, maps, dt=0.1)
    doc = json.loads(path.read_text())
    assert doc["convention"] == MAP_CONVENTION
    assert doc["maps"][0]["time_index"] == 1
    assert len(doc["maps"][0]["entries"]) == 16
    assert all(len(e) == 2 for e in doc["maps"][0]["entries"])


def test_map_series_bytes_are_pinned(tmp_path):
    # signed zeros, subnormal-range and shortest-repr values written as before
    path = tmp_path / "maps.json"
    maps = [np.array([[1.0 + 0.0j]]), np.array([[complex(-0.0, 1e-300)]]),
            np.array([[complex(0.1 + 0.2, -2.5e-17)]])]
    write_map_series(path, maps, dt=0.1, n_traj=3, meta={"seed": 7})
    assert path.read_bytes() == (
        b'{"dim": 1, "dt": 0.1, "n_traj": 3, "convention": "row-major-vec", '
        b'"meta": {"seed": "7"}, "maps": [{"time_index": 1, "entries": [[1.0, 0.0]]}, '
        b'{"time_index": 2, "entries": [[-0.0, 1e-300]]}, '
        b'{"time_index": 3, "entries": [[0.30000000000000004, -2.5e-17]]}]}\n')


def test_map_series_validates_document(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "maps.json"
    write_map_series(path, [random_cptp(2, rng) for _ in range(2)], dt=0.1)
    doc = json.loads(path.read_text())

    bad = dict(doc)
    bad["convention"] = "column-major-vec"
    (tmp_path / "bad1.json").write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="convention"):
        read_map_series(tmp_path / "bad1.json")

    bad = json.loads(path.read_text())
    bad["maps"][1]["time_index"] = 3
    (tmp_path / "bad2.json").write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="expected time_index 2"):
        read_map_series(tmp_path / "bad2.json")

    bad = json.loads(path.read_text())
    bad["maps"][0]["entries"] = bad["maps"][0]["entries"][:-1]
    (tmp_path / "bad3.json").write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="entries"):
        read_map_series(tmp_path / "bad3.json")


@pytest.mark.parametrize("dt", [float("nan"), 0.0, -0.04, float("inf")])
def test_map_series_rejects_bad_dt(tmp_path, dt):
    path = tmp_path / "maps.json"
    write_map_series(path, [np.eye(4)], dt=0.04)
    doc = json.loads(path.read_text())
    doc["dt"] = dt
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        read_map_series(path)


@pytest.mark.parametrize("field, value", [
    ("dt", True), ("dt", "0.04"), ("dt", "abc"), ("dt", None),
    ("dim", "2"), ("dim", 2.0), ("dim", True), ("dim", 0),
    ("n_traj", "500"), ("n_traj", 1.5), ("n_traj", False), ("n_traj", -1),
])
def test_map_series_header_takes_json_numbers_only(tmp_path, field, value):
    path = tmp_path / "maps.json"
    write_map_series(path, [np.eye(4)], dt=0.04, n_traj=500)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"field '{field}' must be"):
        read_map_series(path)


def _edited_map_file(tmp_path, edit):
    path = tmp_path / "maps.json"
    write_map_series(path, [np.eye(4), np.eye(4)], dt=0.04)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("maps, message", [
    ({"time_index": 1}, "field 'maps' must be a list"),
    ([1], "maps[0]: expected an object, found 1"),
    ([None], "maps[0]: expected an object, found None"),
    ([], "field 'maps' must be a list of one or more maps"),
])
def test_map_series_maps_must_be_a_list_of_objects(tmp_path, maps, message):
    # "maps": [1] used to escape as an AttributeError
    path = _edited_map_file(tmp_path, lambda doc: doc.update(maps=maps))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_map_series(path)


@pytest.mark.parametrize("entry", [
    ["a", 0], [0, "1"], [1, 0, 0], [1], [None, 0], [True, 0], [0, False], [[1], 0],
    "ab", 1, [10**400, 0],
])
def test_map_series_entries_must_be_pairs_of_numbers(tmp_path, entry):
    def edit(doc):
        doc["maps"][1]["entries"][5] = entry

    with pytest.raises(ValueError, match=re.escape(
            "maps[1]: every entry must be a pair of JSON numbers")):
        read_map_series(_edited_map_file(tmp_path, edit))


def test_map_series_entries_must_be_a_list(tmp_path):
    def edit(doc):
        doc["maps"][0]["entries"] = "x" * 16

    with pytest.raises(ValueError, match=re.escape("maps[0]: entries must be a list of 16")):
        read_map_series(_edited_map_file(tmp_path, edit))


def test_write_map_series_needs_a_map(tmp_path):
    with pytest.raises(ValueError, match="at least one map"):
        write_map_series(tmp_path / "maps.json", [], dt=0.04)


def test_qpt_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    maps = [random_cptp(2, rng) for _ in range(2)]
    records = simulate_qpt(maps, shots=256, seed=9)
    path = tmp_path / "records.csv"
    write_qpt_csv(path, records)
    back = read_qpt_csv(path)
    assert back == records  # dataclass equality, expectations via repr
    # a numpy scalar is written as a plain float, not as "np.float64(0.5)"
    scalar = [QptRecord(1, "psi0", "Z", np.float64(0.5), 0)]
    write_qpt_csv(path, scalar)
    assert read_qpt_csv(path) == scalar


def test_qpt_csv_error_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,prep,pauli\n")
    with pytest.raises(ValueError, match="line 1"):
        read_qpt_csv(path)

    good_header = "time_index,prep_label,pauli,expectation,shots\n"
    path.write_text(good_header + "1,psi0,Z,0.5,0,extra\n")
    with pytest.raises(ValueError, match="line 2: expected 5 fields"):
        read_qpt_csv(path)

    path.write_text(good_header + "1,psi0,Z,0.5,0\n1,psi0,X,not_a_number,0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_qpt_csv(path)


def test_series_csv_roundtrip(tmp_path):
    path = tmp_path / "series.csv"
    cols = {"n": np.arange(1, 5), "value": np.array([0.1, 0.25, 1e-17, -3.5])}
    write_series_csv(path, cols, meta={"seed": "3", "dt": "0.2"})
    back, meta = read_series_csv(path)
    assert meta == {"seed": "3", "dt": "0.2"}
    npt.assert_array_equal(back["n"], cols["n"])
    npt.assert_array_equal(back["value"], cols["value"])  # bit-exact floats


def test_series_csv_validates_columns(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_series_csv(tmp_path / "x.csv", {"a": [1, 2], "b": [1]})
    with pytest.raises(ValueError, match="one-dimensional"):
        write_series_csv(tmp_path / "y.csv", {"a": np.zeros((2, 2))})


def test_series_csv_keeps_string_columns(tmp_path):
    path = tmp_path / "mixed.csv"
    write_series_csv(path, {"name": np.array(["a", "b"]), "v": [1.0, 2.0]})
    back, _ = read_series_csv(path)
    assert list(back["name"]) == ["a", "b"]
    npt.assert_array_equal(back["v"], [1.0, 2.0])


def test_report_format(tmp_path):
    path = tmp_path / "report.txt"
    write_report(path, {"verdict": "mixed", "ratio": 2.5,
                        "profile": np.array([1.0, 0.5])},
                 meta={"config_hash": "abc"})
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# config_hash: abc"
    assert "verdict = mixed" in lines
    assert "ratio = 2.5" in lines
    assert "profile = 1.0 0.5" in lines


def test_config_hash_is_order_insensitive_and_stable():
    a = {"mode": "simulate", "grid": {"dt": 0.2, "n_steps": 5}}
    b = {"grid": {"n_steps": 5, "dt": 0.2}, "mode": "simulate"}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    c = {"mode": "simulate", "grid": {"dt": 0.2, "n_steps": 6}}
    assert config_hash(a) != config_hash(c)
