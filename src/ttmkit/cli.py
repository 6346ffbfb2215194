"""Command-line front end: config-driven pipeline runs and named presets.

Two entry styles:

    ttmkit run --config analysis.json --out-dir results/
    ttmkit preset fig3top --out-dir results/

The config is one JSON document; its ``mode`` field selects the pipeline.
Outputs are byte-identical across repeated runs of the same config, and
every file carries the config hash, seed, and package version.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import io, presets
from ._version import __version__
from .liouville import hamiltonian_liouvillian
from .noisegen import _MAX_COV_SIDE, NoiseModel
from .nonmarkov import extended_volume_measure, volume_measure, volume_series
from .propagator import SystemModel, simulate_process
from .qpt import project_cptp, reconstruct_maps, simulate_qpt
from .spectroscopy import combine_scaled_kernels, fit_correlations, spectral_density
from .ttm import build_ttms, extract_kernel, norm_profile

MODES = ("simulate", "ttm", "nonmarkov", "spectroscopy", "twoqubit", "ingest", "xy4")


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


class PipelineError(RuntimeError):
    """Stage failure; the message carries the originating module."""


def _get(cfg, path, required=True, default=None):
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if required:
                raise ConfigError(f"field '{path}' is required")
            return default
        cur = cur[part]
    return cur


def _number(cfg, path, required=True, default=None, positive=False):
    val = _get(cfg, path, required, default)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"field '{path}': expected a number, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"field '{path}': must be positive, got {val!r}")
    return float(val)


def _integer(cfg, path, required=True, default=None, minimum=None):
    val = _get(cfg, path, required, default)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"field '{path}': expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"field '{path}': must be >= {minimum}, got {val}")
    return val


def _string(cfg, path, required=True, default=None, choices=None):
    val = _get(cfg, path, required, default)
    if val is None:
        return None
    if not isinstance(val, str):
        raise ConfigError(f"field '{path}': expected a string, got {val!r}")
    if choices and val not in choices:
        raise ConfigError(f"field '{path}': must be one of {', '.join(choices)}; got {val!r}")
    return val


def _stage(module, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        raise
    except Exception as exc:
        raise PipelineError(f"[{module}] {type(exc).__name__}: {exc}") from exc


def build_model(cfg):
    """Assemble a SystemModel from the 'system' and 'noise' config sections."""
    n_qubits = _integer(cfg, "system.n_qubits", minimum=1)
    if n_qubits not in (1, 2):
        raise ConfigError(f"field 'system.n_qubits': must be 1 or 2, got {n_qubits}")
    biases = _get(cfg, "system.biases")
    if not isinstance(biases, list) or len(biases) != n_qubits:
        raise ConfigError(f"field 'system.biases': expected a list of {n_qubits} numbers")
    zz = _number(cfg, "system.zz_coupling", required=False, default=0.0)
    if zz and n_qubits == 1:
        raise ConfigError("field 'system.zz_coupling': needs n_qubits = 2")
    channels = _get(cfg, "system.channels")
    if not isinstance(channels, list) or not channels:
        raise ConfigError("field 'system.channels': expected a non-empty list")
    placed = []
    for i, ch in enumerate(channels):
        where = f"system.channels[{i}]"
        if not isinstance(ch, dict):
            raise ConfigError(f"field '{where}': expected an object")
        axis = ch.get("axis")
        if axis not in ("x", "y", "z"):
            raise ConfigError(f"field '{where}.axis': expected one of x, y, z")
        qubit = ch.get("qubit", 1)
        if isinstance(qubit, bool) or not isinstance(qubit, int) \
                or not 1 <= qubit <= n_qubits:
            raise ConfigError(f"field '{where}.qubit': expected an integer "
                              f"in [1, {n_qubits}] (qubits are labeled from 1)")
        placed.append((axis, qubit))

    variances = _get(cfg, "noise.variances")
    decay = _get(cfg, "noise.decay_rates")
    mods = _get(cfg, "noise.modulations", required=False,
                default=[0.0] * len(channels))
    for name, seq in (("variances", variances), ("decay_rates", decay),
                      ("modulations", mods)):
        if not isinstance(seq, list) or len(seq) != len(channels):
            raise ConfigError(f"field 'noise.{name}': expected a list of "
                              f"{len(channels)} numbers (one per channel)")
    cross = _get(cfg, "noise.cross", required=False)
    if cross is None:
        cross = np.diag(np.asarray(variances, dtype=float))
    else:
        cross = np.asarray(cross, dtype=float)
        if cross.shape != (len(channels), len(channels)):
            raise ConfigError("field 'noise.cross': must be a square matrix "
                              "over the noise channels")

    h, couplings = presets._qubit_operators(biases, placed, zz)
    noise = _stage("noisegen", NoiseModel, kappas=tuple(decay), omegas=tuple(mods),
                   cross=cross)
    return _stage("propagator", SystemModel, h_system=h, couplings=couplings,
                  noise=noise)


def _sampling(cfg):
    n_traj = _integer(cfg, "sampling.n_traj", minimum=1)
    seed = _integer(cfg, "sampling.seed")  # mandatory for stochastic modes
    substeps = _integer(cfg, "sampling.substeps", required=False, default=8, minimum=1)
    antithetic = bool(_get(cfg, "sampling.antithetic", required=False, default=True))
    cv = bool(_get(cfg, "sampling.control_variate", required=False, default=False))
    return n_traj, seed, substeps, antithetic, cv


def _grid(cfg, substeps, n_channels):
    dt = _number(cfg, "grid.dt", positive=True)
    n_steps = _integer(cfg, "grid.n_steps", minimum=1)
    if n_channels * n_steps * substeps > _MAX_COV_SIDE:
        raise ConfigError("field 'grid.n_steps': channels * n_steps * substeps "
                          f"exceeds the exact-sampler limit of {_MAX_COV_SIDE}")
    return dt, n_steps


def _load_maps(cfg, out_dir, field="input"):
    path = _string(cfg, field)
    if not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    return _stage("io", io.read_map_series, path)


def _meta_for(cfg, extra=None):
    meta = {"config_hash": io.config_hash(cfg), "version": __version__}
    seed = _get(cfg, "sampling.seed", required=False)
    if seed is not None:
        meta["seed"] = seed
    meta.update(extra or {})
    return meta


def _mode_simulate(cfg, out_dir):
    model = build_model(cfg)
    n_traj, seed, substeps, antithetic, cv = _sampling(cfg)
    dt, n_steps = _grid(cfg, substeps, model.noise.n_channels)
    maps = _stage("propagator", simulate_process, model, dt, n_steps, n_traj,
                  substeps=substeps, seed=seed, antithetic=antithetic,
                  control_variate=cv)
    out = os.path.join(out_dir, "maps.json")
    io.write_map_series(out, maps, dt, n_traj=n_traj, meta=_meta_for(cfg))
    written = [out]
    shots = _integer(cfg, "shots", required=False, minimum=1)
    if shots:
        records = _stage("qpt", simulate_qpt, maps, shots=shots, seed=seed)
        rec_path = os.path.join(out_dir, "qpt_records.csv")
        io.write_qpt_csv(rec_path, records)
        written.append(rec_path)
    return written


def _mode_ttm(cfg, out_dir):
    maps, info = _load_maps(cfg, out_dir)
    tensors = _stage("ttm", build_ttms, maps)
    profile = _stage("ttm", norm_profile, tensors)
    out = os.path.join(out_dir, "ttm_norms.csv")
    io.write_series_csv(out, {
        "n": np.arange(1, len(tensors) + 1),
        "norm": np.array([np.linalg.norm(t) for t in tensors]),
        "norm_first_minus_identity": profile,
    }, _meta_for(cfg, {"dt": info["dt"]}))
    written = [out]
    if _get(cfg, "save_tensors", required=False, default=False):
        tpath = os.path.join(out_dir, "tensors.json")
        io.write_map_series(tpath, tensors, info["dt"], meta=_meta_for(cfg))
        written.append(tpath)
    return written


def _mode_nonmarkov(cfg, out_dir):
    maps, info = _load_maps(cfg, out_dir)
    series = _stage("nonmarkov", volume_series, maps, info["dt"])
    out = os.path.join(out_dir, "volume.csv")
    io.write_series_csv(out, {"time": series.times, "volume": series.values},
                        _meta_for(cfg))
    fields = {"nonmarkovianity": _stage("nonmarkov", volume_measure, series)}
    n_total = _integer(cfg, "extend.n_total", required=False, minimum=1)
    if n_total:
        k_trunc = _integer(cfg, "extend.k_trunc", required=False, minimum=1)
        tensors = _stage("ttm", build_ttms, maps)
        ext_series, measure = _stage("nonmarkov", extended_volume_measure, tensors,
                                     n_total, info["dt"], k_trunc=k_trunc)
        ext_path = os.path.join(out_dir, "volume_extended.csv")
        io.write_series_csv(ext_path, {"time": ext_series.times,
                                       "volume": ext_series.values}, _meta_for(cfg))
        fields["nonmarkovianity_extended"] = measure
        report = os.path.join(out_dir, "nonmarkov_report.txt")
        io.write_report(report, fields, _meta_for(cfg))
        return [out, ext_path, report]
    report = os.path.join(out_dir, "nonmarkov_report.txt")
    io.write_report(report, fields, _meta_for(cfg))
    return [out, report]


def _mode_spectroscopy(cfg, out_dir):
    model = build_model(cfg)
    if model.dim != 2:
        raise ConfigError("field 'system.n_qubits': spectroscopy supports one qubit")
    inputs = _get(cfg, "inputs", required=False)
    if inputs is not None:
        if not isinstance(inputs, list) or len(inputs) < 2:
            raise ConfigError("field 'inputs': expected two or more map files")
        loaded = [_load_maps({"input": p}, out_dir) for p in inputs]
        dt = loaded[0][1]["dt"]
        ls = hamiltonian_liouvillian(model.h_system)
        kernel_runs = [_stage("ttm", extract_kernel, _stage("ttm", build_ttms, m),
                              ls, dt) for m, _ in loaded]
        gammas = _get(cfg, "gammas", required=False)
        biases = _get(cfg, "protocol_biases", required=False)
        combined, diag = _stage("spectroscopy", combine_scaled_kernels, kernel_runs,
                                gammas=gammas, biases=biases, dt=dt)
        kernels = list(combined)
        cond = diag["condition"]
    else:
        maps, info = _load_maps(cfg, out_dir)
        dt = info["dt"]
        ls = hamiltonian_liouvillian(model.h_system)
        kernels = _stage("ttm", extract_kernel, _stage("ttm", build_ttms, maps), ls, dt)
        cond = None
    n_fit = _integer(cfg, "n_fit", required=False, default=len(kernels), minimum=1)
    channels = _get(cfg, "channels", required=False, default=[["z", "z"]])
    try:
        active = tuple((a, b) for a, b in channels)
    except (TypeError, ValueError):
        raise ConfigError("field 'channels': expected pairs like [[\"z\", \"z\"]]") from None
    lambdas = _get(cfg, "lambdas", required=False)
    series = _stage("spectroscopy", fit_correlations, kernels[:n_fit], model.h_system,
                    dt, active=active, lambdas=lambdas)
    meta = _meta_for(cfg)
    a, b = active[0]
    corr_path = os.path.join(out_dir, "correlation.csv")
    io.write_series_csv(corr_path, {
        "time": series.times,
        "c_re": series.channel(a, b).real,
        "c_im": series.channel(a, b).imag,
    }, meta)
    omega, s = _stage("spectroscopy", spectral_density, series, (a, b))
    spec_path = os.path.join(out_dir, "spectrum.csv")
    io.write_series_csv(spec_path, {"omega": omega, "s": s}, meta)
    fields = {"n_fit_points": n_fit, "residuals": series.residuals,
              "iterations": series.iterations}
    if cond is not None:
        fields["vandermonde_condition"] = cond
    report_path = os.path.join(out_dir, "fit_report.txt")
    io.write_report(report_path, fields, meta)
    return [corr_path, spec_path, report_path]


def _mode_twoqubit(cfg, out_dir):
    maps, info = _load_maps(cfg, out_dir)
    if info["dim"] != 4:
        raise ConfigError("field 'input': twoqubit mode needs dim-4 maps")
    written = _stage("multiqubit", presets._pair_study, out_dir, "twoqubit", maps,
                     info["dt"], _meta_for(cfg))
    return list(written.values())


def _mode_ingest(cfg, out_dir):
    path = _string(cfg, "input")
    if not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    records = _stage("io", io.read_qpt_csv, path)
    maps = _stage("qpt", reconstruct_maps, records)
    if _get(cfg, "project_cptp", required=False, default=False):
        maps = [_stage("qpt", project_cptp, m) for m in maps]
    dt = _number(cfg, "grid.dt", positive=True)
    out = os.path.join(out_dir, "maps.json")
    io.write_map_series(out, maps, dt, meta=_meta_for(cfg))
    return [out]


def _mode_xy4(cfg, out_dir):
    model = build_model(cfg)
    if model.dim != 2:
        raise ConfigError("field 'system.n_qubits': xy4 mode supports one qubit")
    n_traj, seed, substeps, antithetic, _ = _sampling(cfg)
    dt_cycle = _number(cfg, "grid.dt", positive=True)
    n_cycles = _integer(cfg, "grid.n_steps", minimum=1)
    free_profile, dd_profile = _stage("propagator", presets._xy4_profiles, model, dt_cycle,
                                      n_cycles, n_traj, substeps, seed, antithetic)
    out = os.path.join(out_dir, "xy4_norms.csv")
    io.write_series_csv(out, {
        "n": np.arange(1, n_cycles + 1),
        "free": free_profile,
        "xy4": dd_profile,
    }, _meta_for(cfg))
    return [out]


_MODE_FNS = {
    "simulate": _mode_simulate,
    "ttm": _mode_ttm,
    "nonmarkov": _mode_nonmarkov,
    "spectroscopy": _mode_spectroscopy,
    "twoqubit": _mode_twoqubit,
    "ingest": _mode_ingest,
    "xy4": _mode_xy4,
}


def run_config(cfg, out_dir):
    """Validate and execute one config document. Returns written paths."""
    mode = _string(cfg, "mode", choices=MODES)
    os.makedirs(out_dir, exist_ok=True)
    return _MODE_FNS[mode](cfg, out_dir)


_MODE_HELP = {
    "simulate": "trajectory-averaged dynamical maps for a noise model",
    "ttm": "transfer tensors and norm profile from a map series",
    "nonmarkov": "Bloch-volume series and non-Markovianity measure",
    "spectroscopy": "memory kernel, correlation fit, spectral density",
    "twoqubit": "separable/collective unraveling of a two-qubit map series",
    "ingest": "rebuild maps from tomography records",
    "xy4": "free versus XY4-protected memory profiles",
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ttmkit",
        description="Transfer-tensor reconstruction, memory kernels, noise spectroscopy.")
    parser.add_argument("--version", action="version", version=f"ttmkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON config (mode read from the file)")
    p_run.add_argument("--config", required=True, help="path to the config document")
    p_run.add_argument("--out-dir", default=".", help="directory for output files")

    for mode in MODES:
        p_mode = sub.add_parser(mode, help=_MODE_HELP[mode])
        p_mode.add_argument("--config", required=True, help="path to the config document")
        p_mode.add_argument("--out-dir", default=".", help="directory for output files")

    p_preset = sub.add_parser("preset", help="run a bundled end-to-end study")
    p_preset.add_argument("name", choices=sorted(presets.RUNNERS))
    p_preset.add_argument("--out-dir", default=".", help="directory for output files")
    p_preset.add_argument("--scale", choices=("full", "fast"), default="full",
                          help="'fast' cuts trajectory counts for smoke runs")
    p_preset.add_argument("--seed", type=int, default=None,
                          help="override the preset's default seed")

    args = parser.parse_args(argv)
    try:
        if args.command != "preset":
            try:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            except OSError as exc:
                print(f"config error - cannot read {args.config}: {exc}", file=sys.stderr)
                return 2
            except json.JSONDecodeError as exc:
                print(f"config error - {args.config} is not valid JSON: {exc}",
                      file=sys.stderr)
                return 2
            if args.command != "run":
                stated = cfg.get("mode")
                if stated is not None and stated != args.command:
                    print(f"config error - field 'mode': config says {stated!r} but the "
                          f"{args.command} subcommand was invoked", file=sys.stderr)
                    return 2
                cfg = dict(cfg)
                cfg["mode"] = args.command
            written = run_config(cfg, args.out_dir)
        else:
            os.makedirs(args.out_dir, exist_ok=True)
            runner = presets.RUNNERS[args.name]
            kwargs = {"scale": args.scale}
            if args.seed is not None:
                kwargs["seed"] = args.seed
            result = runner(args.out_dir, **kwargs)
            written = []
            stack = [result]
            while stack:
                item = stack.pop()
                if isinstance(item, dict):
                    stack.extend(item.values())
                else:
                    written.append(item)
            written.sort()
    except ConfigError as exc:
        print(f"config error - {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline error - {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
