"""Spans around calls into ttmkit's public functions, and the per-layer figures built from them.

A :class:`Tracer` replaces every public function of the layer modules with a
wrapper that records a span, in every ttmkit module namespace that binds the
function. Because cross-module calls go through the caller's own binding
(``multiqubit`` calls its imported ``build_ttms``, ``cli`` calls every layer),
the spans of one pass nest the way the calls do. The sampler is a class, so
its methods are wrapped on the class itself.

Spans stay in memory; :meth:`Tracer.dump` writes them out once the run ends.
Self time is a span's duration minus the part of it that its children cover.
"""

import importlib
import inspect
import json
import os
import resource
import statistics
import time
import warnings
from dataclasses import asdict, dataclass, field

LAYERS = ("noisegen", "propagator", "ttm", "nonmarkov", "spectroscopy", "qpt",
          "multiqubit", "io", "cli")

KERNELS = ("su2", "diag", "pulsed", "eigh")

# Only qpt.reconstruct_maps output is screened; the tolerance absorbs the
# rounding of exactly rank-deficient Choi matrices (pure dephasing maps).
NON_CP_TOL = 1e-12


@dataclass
class Span:
    """One call into a layer: name, start, end, parent span and pass id."""

    id: int
    parent: int
    pass_id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    cpu: float = 0.0
    warnings: int = 0
    work: dict = field(default_factory=dict)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans):
    """Map span id -> list of its direct child spans."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return children


def self_times(spans):
    """Map span id -> duration minus the time covered by its direct children."""
    children = children_of(spans)
    return {s.id: (s.end - s.start)
            - covered([(c.start, c.end) for c in children.get(s.id, [])], s.start, s.end)
            for s in spans}


def layer_time(span, children):
    """Duration of ``span`` minus the time covered by descendants in other layers.

    This is the span's own layer's share of the call, so a same-layer helper
    called inside it (``free_evolution_superop`` inside ``simulate_process``)
    counts with it, while the sampler nested inside it does not. ``children``
    is the map built by :func:`children_of`.
    """
    foreign = []
    stack = list(children.get(span.id, []))
    while stack:
        s = stack.pop()
        if s.layer != span.layer:
            foreign.append((s.start, s.end))
        else:
            stack.extend(children.get(s.id, []))
    return (span.end - span.start) - covered(foreign, span.start, span.end)


def _cpu_seconds():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _kernel_of(model):
    if model.is_diagonal:
        return "diag"
    return "su2" if model.dim == 2 else "eigh"


def _work_extractors():
    """Span name -> fn(bound arguments, result) giving the work counted at that boundary."""
    from ttmkit.liouville import min_choi_eigenvalue

    def file_bytes(a, r):
        return {"bytes": os.path.getsize(a["path"])}

    return {
        "noisegen.GaussianPathSampler.__init__":
            lambda a, r: {"cov_side": a["model"].n_channels * len(a["times"])},
        "noisegen.GaussianPathSampler.sample": lambda a, r: {"values": r.size},
        "propagator.simulate_process": lambda a, r: {
            "kernel": _kernel_of(a["model"]),
            "path_substeps": a["n_traj"] * a["n_steps"] * a["substeps"]},
        "propagator.simulate_pulsed_process": lambda a, r: {
            "kernel": "pulsed",
            "path_substeps": a["n_traj"] * a["n_cycles"] * len(a["segments"]) * a["substeps"]},
        "ttm.build_ttms": lambda a, r: {"maps": len(a["maps"])},
        "ttm.predict_maps": lambda a, r: {"steps": a["n_total"]},
        "ttm.extract_kernel": lambda a, r: {"points": len(a["tensors"])},
        "nonmarkov.volume_series": lambda a, r: {"maps": len(a["maps"])},
        "spectroscopy.fit_correlations": lambda a, r: {
            "points": len(a["kernels"]), "iterations": int(r.iterations.sum())},
        "qpt.simulate_qpt": lambda a, r: {"records": len(r)},
        "qpt.reconstruct_maps": lambda a, r: {
            "maps": len(r), "records": len(a["records"]),
            "non_cp": sum(min_choi_eigenvalue(m) < -NON_CP_TOL for m in r)},
        "qpt.project_cptp": lambda a, r: {"maps": 1},
        "multiqubit.unravel": lambda a, r: {"maps": len(a["maps"])},
        "io.write_map_series": file_bytes,
        "io.write_qpt_csv": file_bytes,
        "io.write_series_csv": file_bytes,
        "io.write_report": file_bytes,
    }


class Tracer:
    """Records spans for the passes run between :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self.pass_id = -1
        self._stack = []
        self._work = _work_extractors()
        self._targets = self._discover()
        wrappers = {}
        for _, _, fn, name, layer in self._targets:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name, layer)
        self._wrappers = wrappers

    @staticmethod
    def _discover():
        """(owner, attribute, original, span name, layer) for every binding to wrap."""
        import ttmkit
        from ttmkit.noisegen import GaussianPathSampler

        modules = {name: importlib.import_module(f"ttmkit.{name}") for name in LAYERS}
        public = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    public[id(obj)] = (f"{layer}.{attr}", layer)
        targets = []
        for ns in list(modules.values()) + [ttmkit]:
            for attr, obj in vars(ns).items():
                if id(obj) in public:
                    targets.append((ns, attr, obj) + public[id(obj)])
        for meth in ("__init__", "sample", "covariance"):
            targets.append((GaussianPathSampler, meth, vars(GaussianPathSampler)[meth],
                            f"noisegen.GaussianPathSampler.{meth}", "noisegen"))
        return targets

    def install(self, pass_id):
        """Wrap every target and open the root span of pass ``pass_id``."""
        self.pass_id = pass_id
        for owner, attr, fn, _, _ in self._targets:
            setattr(owner, attr, self._wrappers[id(fn)])
        self._open("pass", "bench")

    def uninstall(self):
        """Close the root span and restore every original binding."""
        self._close(self._stack[-1])
        for owner, attr, fn, _, _ in self._targets:
            setattr(owner, attr, fn)

    def _open(self, name, layer):
        span = Span(len(self.spans), self._stack[-1].id if self._stack else -1,
                    self.pass_id, name, layer, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.cpu = _cpu_seconds()
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        span.cpu = _cpu_seconds() - span.cpu
        self._stack.pop()

    def _wrap(self, fn, name, layer):
        tracer = self
        extract = self._work.get(name)
        sig = inspect.signature(fn) if extract else None

        def traced(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                span = tracer._open(name, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
            span.warnings = len(caught)
            if extract:
                # counted in a span of its own so that callers' self time excludes it
                bookkeeping = tracer._open("trace.work", "trace")
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = extract(bound.arguments, result)
                tracer._close(bookkeeping)
            return result

        return traced

    def dump(self, path):
        """Write every recorded span as JSON."""
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def pass_metrics(spans):
    """Per-layer figures of one traced pass, keyed as in BENCHMARK.json."""
    (root,) = [s for s in spans if s.name == "pass"]
    wall = root.end - root.start
    own = self_times(spans)
    children = children_of(spans)

    def by(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def total(items, key):
        return sum(s.work.get(key, 0) for s in items)

    def ltime(items):
        return sum(layer_time(s, children) for s in items)

    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.share"] = _ratio(sum(own[s.id] for s in mine), wall)
        out[f"{layer}.warnings"] = sum(s.warnings for s in mine)

    builds = by("noisegen.GaussianPathSampler.__init__")
    samples = by("noisegen.GaussianPathSampler.sample")
    out["noisegen.build_s"] = ltime(builds)
    out["noisegen.sample_ns_per_value"] = _ratio(ltime(samples), total(samples, "values"), 1e9)
    out["noisegen.cov_side"] = max((s.work["cov_side"] for s in builds), default=0)

    sims = by("propagator.simulate_")
    for kernel in KERNELS:
        mine = [s for s in sims if s.work["kernel"] == kernel]
        out[f"propagator.{kernel}.ns_per_path_substep"] = _ratio(
            ltime(mine), total(mine, "path_substeps"), 1e9)
    out["propagator.self_s"] = sum(own[s.id] for s in spans if s.layer == "propagator")
    out["propagator.path_substeps"] = total(sims, "path_substeps")
    out["propagator.cpu_util"] = _ratio(sum(s.cpu for s in sims),
                                        sum(s.end - s.start for s in sims))

    builds = by("ttm.build_ttms")
    predicts = by("ttm.predict_maps")
    extracts = by("ttm.extract_kernel")
    out["ttm.build_us_per_map"] = _ratio(ltime(builds), total(builds, "maps"), 1e6)
    out["ttm.predict_us_per_step"] = _ratio(ltime(predicts), total(predicts, "steps"), 1e6)
    out["ttm.extract_us_per_point"] = _ratio(ltime(extracts), total(extracts, "points"), 1e6)
    out["ttm.self_s"] = sum(own[s.id] for s in spans if s.layer == "ttm")

    volumes = by("nonmarkov.volume_series")
    out["nonmarkov.volume_us_per_map"] = _ratio(
        sum(own[s.id] for s in spans if s.layer == "nonmarkov"), total(volumes, "maps"), 1e6)

    fits = by("spectroscopy.fit_correlations")
    out["spectroscopy.fit_ms_per_point"] = _ratio(ltime(fits), total(fits, "points"), 1e3)
    out["spectroscopy.fit_iterations"] = total(fits, "iterations")
    out["spectroscopy.combine_ms"] = 1e3 * ltime(by("spectroscopy.combine_scaled_kernels"))
    out["spectroscopy.spectrum_ms"] = 1e3 * ltime(by("spectroscopy.spectral_density"))

    sims = by("qpt.simulate_qpt")
    recons = by("qpt.reconstruct_maps")
    projects = by("qpt.project_cptp")
    out["qpt.simulate_us_per_record"] = _ratio(ltime(sims), total(sims, "records"), 1e6)
    out["qpt.reconstruct_ms_per_map"] = _ratio(ltime(recons), total(recons, "maps"), 1e3)
    out["qpt.project_ms_per_map"] = _ratio(ltime(projects), len(projects), 1e3)
    out["qpt.records"] = total(recons, "records")
    out["qpt.non_cp_ratio"] = _ratio(total(recons, "non_cp"), total(recons, "maps"))

    unravels = by("multiqubit.unravel")
    out["multiqubit.unravel_ms_per_map"] = _ratio(ltime(unravels), total(unravels, "maps"), 1e3)
    writes = by("io.write_")
    out["io.write_ms"] = 1e3 * ltime(writes)
    out["io.read_ms"] = 1e3 * ltime(by("io.read_"))
    out["io.bytes_written"] = total(writes, "bytes")
    out["cli.self_s"] = sum(own[s.id] for s in spans if s.layer == "cli")
    return out


def layer_metrics(spans, traced_walls, plain_walls):
    """Median over traced passes of each per-pass figure, plus ``trace.overhead``."""
    passes = {}
    for s in spans:
        passes.setdefault(s.pass_id, []).append(s)
    per_pass = [pass_metrics(group) for _, group in sorted(passes.items())]
    out = {key: float(statistics.median(p[key] for p in per_pass)) for key in per_pass[0]}
    out["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    return out
