#!/usr/bin/env python3
"""ttmkit pipeline benchmark: one workload, closed loop, gated passes.

    python3 bench/run.py --workload transverse-su2 --seed 1 --seconds 25 --trace 0

Run from the repository root; ttmkit is imported from ``src/`` next to this
directory, never from an installed copy. One caller runs passes back to back
for ``--seconds`` seconds. Every pass is gated: its output hash must equal
that of the first pass, and the workload's correctness check must hold for
that output (the check is a pure function of the output, so it is evaluated
once per distinct hash).

Every end-to-end timing is taken at reference speed. The speed of shared
cloud vCPUs drifts by up to 2x over minutes (contended cores, steal), which
moves raw wall times between runs of the same code far more than the bounds
allow. So a fixed reference computation that never touches ttmkit
(``reference``) is timed after every pass and every set-up sample, and each
wall time is divided by the mean of the reference times on either side of it
and multiplied by ``REF_S``: the figure is the seconds the step would take on
a machine where the reference takes ``REF_S`` seconds. Raw walls and reference times go to the run record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics of the traced ones, plus
``trace.overhead``. The last line of standard output is the JSON result; the
run record (machine, versions, settings, every pass time) goes to
``bench/out/`` and, as one line, to standard output just before the result.
BLAS threads are left at their default and recorded.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# The unit reported times are scaled to: about the median seconds of one
# reference() call on a 2-vCPU Intel Xeon VM. It is fixed, not measured, so
# that figures from different runs and commits compare.
REF_S = 0.018

# Times, in a fresh interpreter, the imports this script makes before its
# first set-up (interpreter start-up excluded), and prints the seconds.
IMPORT_PROBE = """
import time
t = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {here!r}]
import run, tracing, workloads
print(time.perf_counter() - t)
"""


_REF_RNG = np.random.default_rng(12345)
_REF_VECTOR = _REF_RNG.standard_normal(4096) + 1j * _REF_RNG.standard_normal(4096)
_REF_SMALL = _REF_RNG.standard_normal((4, 4)) + 1j * _REF_RNG.standard_normal((4, 4))
_REF_HERM = _REF_SMALL + _REF_SMALL.conj().T


def reference():
    """Fixed single-threaded work in the mix the workloads run, with no ttmkit call:
    interpreted Python, vector ufuncs over 4096 values, and many small matrix
    products and 4x4 ``eigh`` calls (too small for BLAS threads)."""
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    z = _REF_VECTOR
    for _ in range(40):
        z = np.exp(1j * np.abs(z)) * _REF_VECTOR + z.conj()
    m = _REF_SMALL
    for _ in range(300):
        m = (m @ _REF_SMALL) / np.linalg.norm(m)
    for _ in range(100):
        np.linalg.eigh(_REF_HERM)
    return acc + float(np.abs(z).sum() + np.abs(m).sum())


def reference_s():
    """Wall seconds of one reference() call."""
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


class Normalizer:
    """Scales wall times to reference speed, with a reference timing after each.

    ``scaled(wall)`` must follow the timed step directly: it times the
    reference once more and divides ``wall`` by the mean of that time and
    the previous one, which bracket the step."""

    def __init__(self):
        reference()  # first call pays numpy's lazy set-up
        self.refs = [reference_s()]

    def scaled(self, wall):
        self.refs.append(reference_s())
        return REF_S * wall / (0.5 * (self.refs[-2] + self.refs[-1]))


def import_program():
    """Import ttmkit from this checkout's ``src/``; None when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import ttmkit
    except ImportError:
        return None
    if not os.path.abspath(ttmkit.__file__).startswith(SRC + os.sep):
        return None
    return ttmkit


def tail(walls):
    """(value, percentile, passes beyond it): the highest percentile with TAIL_BEYOND above."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def import_probe():
    """Seconds a fresh interpreter spends on this script's imports."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=SRC, here=HERE)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout.split()[-1])


def scale_of(wl):
    """The workload's sizes: its class constants and constructor arguments."""
    return {k: v for k, v in {**vars(type(wl)), **vars(wl)}.items()
            if isinstance(v, (int, float, tuple))}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_commit():
    """Commit of the checkout read from ``.git``, or None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(seed):
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


class Gate:
    """Pass verdicts: same hash as the first pass, and a clean check of that output."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.first = None
        self.verdicts = {}

    def __call__(self, out):
        digest = self.workload.digest(self.inputs, out)
        if self.first is None:
            self.first = digest
        if digest not in self.verdicts:
            self.verdicts[digest] = self.workload.check(self.inputs, out)
        fails = list(self.verdicts[digest])
        if digest != self.first:
            fails.append(f"output hash {digest[:12]} differs from the first pass "
                         f"({self.first[:12]})")
        return digest, fails


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_program() is None:
        print(f"ttmkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make(args.workload, os.path.join(OUT, "work", args.workload))
    norm = Normalizer()
    setup_walls, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = wl.setup(args.seed)
        setup_walls.append(time.perf_counter() - t)
        setup_scaled.append(norm.scaled(setup_walls[-1]))

    gate = Gate(wl, inputs)
    tracer = tracing.Tracer() if args.trace else None
    walls, plain, traced, fails_seen = [], [], [], {}

    def one_pass(trace):
        """Run, time and gate one pass; the tracer is on only around the run."""
        if trace:
            tracer.install(len(traced))
        try:
            t = time.perf_counter()
            out = wl.run(inputs)
            wall = time.perf_counter() - t
        finally:
            if trace:
                tracer.uninstall()
        digest, fails = gate(out)
        if fails:
            fails_seen[digest] = fails
        return wall, int(bool(fails))

    # The first pass fills lazy caches (BLAS threads, first-call imports) and
    # evaluates the gate; it is checked and counted but not timed.
    warmup_s, failed = one_pass(False)
    norm.refs.append(reference_s())
    start = time.perf_counter()
    while True:
        trace = tracer is not None and len(plain) > len(traced)
        wall, bad = one_pass(trace)
        walls.append(wall)
        (traced if trace else plain).append(norm.scaled(wall))
        failed += bad
        if time.perf_counter() - start >= args.seconds and (not tracer or traced):
            break
    attempted = 1 + len(plain) + len(traced)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(args.seed),
              "scale": scale_of(wl),
              "work_per_pass": wl.work, "work_unit": wl.work_unit,
              "ref_s": REF_S, "import_s": import_s, "setup_walls_s": setup_walls,
              "setup_scaled_s": setup_scaled, "warmup_pass_s": warmup_s, "pass_walls_s": walls,
              "plain_pass_s": plain, "traced_pass_s": traced, "reference_s": norm.refs,
              "output_hash": gate.first,
              "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
              "failures": fails_seen}
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, traced, plain)
        spans_path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-spans.json")
        tracer.dump(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        value, pct, beyond = tail(plain)
        rss = peak_rss_mib()  # read before the import probes start child processes
        # The imports are set-up too, but one process makes them once, so
        # their samples come from fresh interpreters.
        import_walls, import_scaled = [], []
        for _ in range(SETUP_REPEATS):
            import_walls.append(import_probe())
            import_scaled.append(norm.scaled(import_walls[-1]))
        record["import_walls_s"], record["import_scaled_s"] = import_walls, import_scaled
        metrics = {
            "pass_s_p50": statistics.median(plain),
            "pass_s_tail": value,
            "work_per_s": wl.work * len(plain) / sum(plain),
            "setup_s": statistics.median(import_scaled) + statistics.median(setup_scaled),
            "peak_rss_mib": rss,
        }
        record["tail"] = {"percentile": pct, "passes": len(plain), "beyond": beyond}
    units = load_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                           f"with BENCHMARK.json")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record["result"] = result
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for digest, fails in fails_seen.items():
        print(f"FAILED gate ({digest[:12]}): " + "; ".join(fails), file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def load_units(trace):
    """Metric name -> unit for the metrics this kind of run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
