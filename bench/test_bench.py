"""Tests of the benchmark itself: tiny-scale workloads, gates and span arithmetic.

    python3 -m pytest bench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ttmkit import io, propagator  # noqa: E402


def tiny(name, tmp_path):
    return {
        "transverse-su2": lambda: workloads.TransverseSU2(n_traj=512),
        "dephasing-fine": lambda: workloads.DephasingFine(
            n_traj=2048, n_maps=16, substeps=8, n_total=30, chunk_size=64,
            xy4_traj=2048, n_boot=60),
        "pair-eigh-cli": lambda: workloads.PairEighCli(
            str(tmp_path), n_traj=256, n_steps=3, substeps=2, shots=1024),
        "counts-to-spectra": lambda: workloads.CountsToSpectra(
            n_predict=40, n_volume=20, shot_sweep=(512, 2048, 8192)),
    }[name]()


@pytest.fixture(scope="module", params=workloads.NAMES)
def passed(request, tmp_path_factory):
    wl = tiny(request.param, tmp_path_factory.mktemp(request.param))
    x = wl.setup(3)
    return wl, x, wl.run(x)


def test_tiny_workload_passes_its_gate_and_repeats_bit_for_bit(passed):
    wl, x, out = passed
    assert wl.check(x, out) == []
    gate = run.Gate(wl, x)
    first, fails = gate(out)
    assert fails == []
    again, fails = gate(wl.run(wl.setup(3)))
    assert (again, fails) == (first, [])


def _rewrite_maps(path, scale):
    maps, info = io.read_map_series(path)
    io.write_map_series(path, [scale * m for m in maps], info["dt"], n_traj=info["n_traj"])


def _perturbations(name):
    """(label, function mutating a copy of the output) pairs the gate must reject."""
    def scale(key, factor):
        def f(wl, out):
            out[key] = out[key] * factor
        return f

    def shift_volume(wl, out):
        out["volume"] = out["volume"].copy()
        out["volume"][2] += 0.2

    def same_memory(wl, out):
        out["xy4_count"] = out["free_count"]

    def no_revival(wl, out):
        out["closed_volume"] = np.minimum.accumulate(out["closed_volume"])

    def noisier_shots(wl, out):
        top = out["recon"][-2]  # noiseless reconstruction of the shot-sampled maps
        out["shot_recon"] = out["shot_recon"].copy()
        out["shot_recon"][0] = top + 3.0 * (out["shot_recon"][0] - top)

    def simulated_scaled(wl, out):
        _rewrite_maps(os.path.join(wl.work_dir, "simulate", "maps.json"), 1.01)

    def ingested_off(wl, out):
        _rewrite_maps(os.path.join(wl.work_dir, "ingest", "maps.json"), 1.5)

    return {
        "transverse-su2": [("maps x 1.01", scale("maps", 1.01)),
                           ("C_xx x 1.1", scale("c_xx", 1.1))],
        "dephasing-fine": [("maps x 1.01", scale("maps", 1.01)),
                           ("volume shifted", shift_volume),
                           ("closed-form revival flattened", no_revival),
                           ("XY4 no shorter", same_memory)],
        "pair-eigh-cli": [("simulated maps x 1.01", simulated_scaled),
                          ("ingested maps x 1.5", ingested_off)],
        "counts-to-spectra": [("reconstructed maps x 1.01", scale("recon", 1.01)),
                              ("protocol x 1.2", scale("protocol", 1.2)),
                              ("shot error x 3 at 512 shots", noisier_shots)],
    }[name]


def test_gate_rejects_perturbed_output(passed):
    wl, x, out = passed
    for label, perturb in _perturbations(wl.name):
        bad = dict(out) if isinstance(out, dict) else out
        perturb(wl, bad)
        assert wl.check(x, bad), label
        if not isinstance(out, dict):  # files were rewritten: restore them
            wl.run(x)


def test_gate_flags_a_changed_hash():
    class Fixed:
        def digest(self, x, out):
            return out

        def check(self, x, out):
            return []

    gate = run.Gate(Fixed(), None)
    assert gate("a") == ("a", [])
    digest, fails = gate("b")
    assert digest == "b" and len(fails) == 1 and "differs" in fails[0]


def test_walls_scale_by_the_reference_times_around_them(monkeypatch):
    refs = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(run, "reference_s", lambda: next(refs))
    norm = run.Normalizer()
    # 0.3 s bracketed by reference times 0.02 and 0.04 is 10 reference means.
    assert norm.scaled(0.3) == pytest.approx(run.REF_S * 0.3 / 0.03)
    assert norm.scaled(0.5) == pytest.approx(run.REF_S * 0.5 / 0.025)
    assert norm.refs == [0.02, 0.04, 0.01]


def _span(i, parent, layer, start, end):
    return tracing.Span(i, parent, 0, f"{layer}.f{i}", layer, start, end)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, -1, "bench", 0.0, 10.0),
        _span(1, 0, "propagator", 1.0, 9.0),
        _span(2, 1, "noisegen", 2.0, 4.0),
        _span(3, 1, "noisegen", 3.0, 5.0),     # overlaps its sibling
        _span(4, 1, "propagator", 6.0, 8.0),   # same-layer helper
        _span(5, 4, "noisegen", 6.5, 7.0),
        _span(6, 0, "ttm", 9.5, 12.0),         # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10.0 - 8.0 - 0.5, 1: 8.0 - 3.0 - 2.0, 2: 2.0, 3: 2.0,
                                 4: 1.5, 5: 0.5, 6: 2.5})
    children = tracing.children_of(spans)
    assert tracing.layer_time(spans[1], children) == pytest.approx(8.0 - 3.0 - 0.5)
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4)], 0.5, 3.5) == pytest.approx(2.0)


def test_tail_is_highest_percentile_with_ten_beyond():
    walls = list(range(1, 41))
    value, pct, beyond = run.tail(walls)
    assert (value, pct, beyond) == (30, 75.0, 10)
    assert sum(w > value for w in walls) == 10
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_traced_pass_nests_layers_and_restores_bindings():
    wl = workloads.TransverseSU2(n_traj=256, n_maps=6, n_fit=5)
    x = wl.setup(1)
    original = propagator.simulate_process
    tracer = tracing.Tracer()
    tracer.install(0)
    wl.run(x)
    tracer.uninstall()
    assert propagator.simulate_process is original
    by_name = {s.name: s for s in tracer.spans}
    sim = by_name["propagator.simulate_process"]
    sample = by_name["noisegen.GaussianPathSampler.sample"]
    assert sample.parent == sim.id and sim.parent == by_name["pass"].id
    metrics = tracing.layer_metrics(tracer.spans, [1.0], [1.0])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["propagator.path_substeps"] == 256 * 6 * 8
    assert metrics["propagator.su2.ns_per_path_substep"] > 0
    assert metrics["propagator.eigh.ns_per_path_substep"] == 0
    assert 0.5 < sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS) <= 1.0
