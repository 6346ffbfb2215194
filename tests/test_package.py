"""The public surface of the package and the README quick start."""

import json
import re
from pathlib import Path

import ttmkit
from ttmkit.cli import run_config
from ttmkit.io import read_map_series, read_qpt_csv
from ttmkit.liouville import unvec, vec
from ttmkit.propagator import dephasing_map_series

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_once():
    names = ttmkit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ttmkit, name)]
    assert missing == []
    star = {}
    exec("from ttmkit import *", star)
    star.pop("__builtins__")
    assert sorted(star) == sorted(names)


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    states = scope["states"]
    assert len(states) == 50
    exact = dephasing_map_series(scope["model"], scope["dt"], 8)[7]
    want = unvec(exact @ vec(scope["rho0"]))[0, 1]
    assert abs(states[7][0, 1] - want) < 0.01


def test_readme_config_runs(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    cfg = json.loads(blocks[0])
    written = run_config(cfg, str(tmp_path))
    assert sorted(Path(p).name for p in written) == ["maps.json", "qpt_records.csv"]
    maps, info = read_map_series(tmp_path / "maps.json")
    assert len(maps) == cfg["grid"]["n_steps"] and info["dt"] == cfg["grid"]["dt"]
    records = read_qpt_csv(tmp_path / "qpt_records.csv")
    assert records[0].shots == cfg["shots"]
