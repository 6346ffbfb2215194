"""Command-line front end: config-driven pipeline runs and named presets.

Two entry styles:

    ttmkit run --config analysis.json --out-dir results/
    ttmkit preset fig3top --out-dir results/

The config is one JSON document; its ``mode`` field selects the pipeline.
Outputs are byte-identical across repeated runs of the same config, and
every file carries the config hash, seed, and package version.
"""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import io, presets
from ._version import __version__
from .noisegen import (_PSD_TOL, CovarianceCapError, IndefiniteCovarianceError, NoiseModel,
                       _is_symmetric)
from .nonmarkov import extended_volume_measure, volume_measure, volume_series
from .propagator import SystemModel, simulate_process
from .qpt import project_cptp, reconstruct_maps, simulate_qpt
from .ttm import build_ttms

class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


class PipelineError(RuntimeError):
    """Stage failure; the message carries the originating module."""


def _get(cfg, path, required=True, default=None):
    # a JSON null counts as an absent field
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or cur.get(part) is None:
            if required:
                raise ConfigError(f"field '{path}' is required")
            return default
        cur = cur[part]
    return cur


def _is_number(val):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(cfg, path, required=True, default=None, positive=False):
    val = _get(cfg, path, required, default)
    if not _is_number(val):
        raise ConfigError(f"field '{path}': expected a finite number, got {val!r}")
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


def _number_list(val, path, n, minimum=None, positive=False):
    """``val`` as n finite numbers, each >= minimum or > 0 when asked."""
    if not (isinstance(val, list) and len(val) == n and all(
            _is_number(x) and (minimum is None or x >= minimum) and (not positive or x > 0)
            for x in val)):
        bound = " > 0" if positive else "" if minimum is None else f" >= {minimum:g}"
        raise ConfigError(f"field '{path}': expected a list of {n} finite numbers{bound}, "
                          f"got {val!r}")
    return [float(x) for x in val]


def _boolean(cfg, path, default):
    val = _get(cfg, path, required=False, default=default)
    if not isinstance(val, bool):
        raise ConfigError(f"field '{path}': expected true or false, got {val!r}")
    return val


def _string(cfg, path, choices=None):
    val = _get(cfg, path)
    if not isinstance(val, str):
        raise ConfigError(f"field '{path}': expected a string, got {val!r}")
    if choices and val not in choices:
        raise ConfigError(f"field '{path}': must be one of {', '.join(choices)}; got {val!r}")
    return val


def _stage(module, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CovarianceCapError as exc:  # the sampler's limit on the time grid
        raise ConfigError(f"field 'grid.n_steps': {exc}") from None
    except IndefiniteCovarianceError as exc:  # C(0) is PSD, C over the grid is not
        raise ConfigError(f"fields 'noise.cross', 'noise.decay_rates' and "
                          f"'noise.modulations' admit no Gaussian noise: {exc}") from None
    except Exception as exc:
        raise PipelineError(f"[{module}] {type(exc).__name__}: {exc}") from exc


def build_model(cfg):
    """Assemble a SystemModel from the 'system' and 'noise' config sections."""
    n_qubits = _integer(cfg, "system.n_qubits", minimum=1)
    if n_qubits not in (1, 2):
        raise ConfigError(f"field 'system.n_qubits': must be 1 or 2, got {n_qubits}")
    biases = _number_list(_get(cfg, "system.biases"), "system.biases", n_qubits)
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
        qubit = _get(ch, "qubit", required=False, default=1)
        if isinstance(qubit, bool) or not isinstance(qubit, int) \
                or not 1 <= qubit <= n_qubits:
            raise ConfigError(f"field '{where}.qubit': expected an integer "
                              f"in [1, {n_qubits}] (qubits are labeled from 1)")
        placed.append((axis, qubit))

    n_ch = len(channels)
    variances = _number_list(_get(cfg, "noise.variances"), "noise.variances", n_ch,
                             minimum=0)
    decay = _number_list(_get(cfg, "noise.decay_rates"), "noise.decay_rates", n_ch,
                         minimum=0)
    mods = _number_list(_get(cfg, "noise.modulations", required=False, default=[0.0] * n_ch),
                        "noise.modulations", n_ch)
    cross = _get(cfg, "noise.cross", required=False)
    if cross is None:
        cross = np.diag(variances)
    else:
        if not isinstance(cross, list) or len(cross) != n_ch:
            raise ConfigError("field 'noise.cross': must be a square matrix "
                              "over the noise channels")
        cross = np.array([_number_list(row, f"noise.cross[{i}]", n_ch)
                          for i, row in enumerate(cross)])
        if not np.array_equal(np.diag(cross), variances):
            raise ConfigError(f"field 'noise.cross': its diagonal {np.diag(cross).tolist()} "
                              f"must equal noise.variances {variances}")
        if not _is_symmetric(cross):
            raise ConfigError("field 'noise.cross': must be symmetric")
        # cross is the equal-time covariance C(0), which no Gaussian noise
        # realizes unless it is positive semidefinite
        low = np.linalg.eigvalsh(cross)
        if low[0] < -_PSD_TOL * max(-low[0], low[-1]):
            raise ConfigError(f"field 'noise.cross': must be positive semidefinite, "
                              f"min eigenvalue {low[0]:.3e}")

    h, couplings = presets._qubit_operators(biases, placed, zz)
    noise = _stage("noisegen", NoiseModel, kappas=tuple(decay), omegas=tuple(mods),
                   cross=cross)
    return _stage("propagator", SystemModel, h_system=h, couplings=couplings,
                  noise=noise)


def _sampling(cfg):
    n_traj = _integer(cfg, "sampling.n_traj", minimum=1)
    seed = _integer(cfg, "sampling.seed", minimum=0)  # mandatory for stochastic modes
    substeps = _integer(cfg, "sampling.substeps", required=False, default=8, minimum=1)
    antithetic = _boolean(cfg, "sampling.antithetic", default=True)
    cv = _boolean(cfg, "sampling.control_variate", default=False)
    if antithetic and n_traj % 2:
        raise ConfigError(f"field 'sampling.n_traj': antithetic sampling needs an even "
                          f"count, got {n_traj}")
    return n_traj, seed, substeps, antithetic, cv


def _grid(cfg):
    return _number(cfg, "grid.dt", positive=True), _integer(cfg, "grid.n_steps", minimum=1)


def _input_path(path, out_dir):
    """An input file named in a config; relative paths start at out_dir."""
    return path if os.path.isabs(path) else os.path.join(out_dir, path)


def _read_input(cfg, out_dir, reader=io.read_map_series, field="input"):
    return _stage("io", reader, _input_path(_string(cfg, field), out_dir))


def _hashed_input(path, out_dir):
    # an input file enters the config hash by its SHA-256 content digest, so
    # the hash does not depend on where the file sits; a value that names no
    # file was not read and enters as written
    full = _input_path(path, out_dir) if isinstance(path, str) else None
    if full is None or not os.path.isfile(full):
        return path
    with open(full, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _meta_for(cfg, out_dir):
    hashed = dict(cfg)
    if cfg.get("input") is not None:
        hashed["input"] = _hashed_input(cfg["input"], out_dir)
    if isinstance(cfg.get("inputs"), list):
        hashed["inputs"] = [_hashed_input(p, out_dir) for p in cfg["inputs"]]
    meta = {"config_hash": io.config_hash(hashed), "version": __version__}
    seed = _get(cfg, "sampling.seed", required=False)
    if seed is not None:
        meta["seed"] = seed
    return meta


def _mode_simulate(cfg, out_dir):
    model = build_model(cfg)
    n_traj, seed, substeps, antithetic, cv = _sampling(cfg)
    dt, n_steps = _grid(cfg)
    shots = _integer(cfg, "shots", required=False, minimum=1)
    maps = _stage("propagator", simulate_process, model, dt, n_steps, n_traj,
                  substeps=substeps, seed=seed, antithetic=antithetic,
                  control_variate=cv)
    out = os.path.join(out_dir, "maps.json")
    io.write_map_series(out, maps, dt, n_traj=n_traj, meta=_meta_for(cfg, out_dir))
    written = [out]
    if shots:
        records = _stage("qpt", simulate_qpt, maps, shots=shots, seed=seed)
        rec_path = os.path.join(out_dir, "qpt_records.csv")
        io.write_qpt_csv(rec_path, records)
        written.append(rec_path)
    return written


def _mode_ttm(cfg, out_dir):
    save_tensors = _boolean(cfg, "save_tensors", default=False)
    maps, info = _read_input(cfg, out_dir)
    meta = _meta_for(cfg, out_dir)
    tensors = _stage("ttm", build_ttms, maps)
    out = os.path.join(out_dir, "ttm_norms.csv")
    io.write_series_csv(out, _stage("ttm", presets._norm_columns, tensors),
                        {**meta, "dt": info["dt"]})
    written = [out]
    if save_tensors:
        tpath = os.path.join(out_dir, "tensors.json")
        io.write_map_series(tpath, tensors, info["dt"], meta=meta)
        written.append(tpath)
    return written


def _mode_nonmarkov(cfg, out_dir):
    maps, info = _read_input(cfg, out_dir)
    if info["dim"] != 2:
        raise ConfigError("field 'input': nonmarkov mode needs dim-2 maps")
    n_total = _integer(cfg, "extend.n_total", required=False, minimum=1)
    k_trunc = _integer(cfg, "extend.k_trunc", required=False, minimum=1)
    if k_trunc is not None and n_total is None:
        raise ConfigError("field 'extend.k_trunc': needs extend.n_total, the length of "
                          "the extended series")
    if k_trunc is not None and k_trunc > len(maps):
        raise ConfigError(f"field 'extend.k_trunc': must be <= {len(maps)}, the number "
                          f"of maps, got {k_trunc}")
    series = _stage("nonmarkov", volume_series, maps, info["dt"])
    meta = _meta_for(cfg, out_dir)
    out = os.path.join(out_dir, "volume.csv")
    io.write_series_csv(out, {"time": series.times, "volume": series.values}, meta)
    written = [out]
    fields = {"nonmarkovianity": _stage("nonmarkov", volume_measure, series)}
    if n_total:
        tensors = _stage("ttm", build_ttms, maps)
        ext_series, measure = _stage("nonmarkov", extended_volume_measure, tensors,
                                     n_total, info["dt"], k_trunc=k_trunc)
        ext_path = os.path.join(out_dir, "volume_extended.csv")
        io.write_series_csv(ext_path, {"time": ext_series.times,
                                       "volume": ext_series.values}, meta)
        fields["nonmarkovianity_extended"] = measure
        written.append(ext_path)
    report = os.path.join(out_dir, "nonmarkov_report.txt")
    io.write_report(report, fields, meta)
    return written + [report]


def _mode_spectroscopy(cfg, out_dir):
    model = build_model(cfg)
    if model.dim != 2:
        raise ConfigError("field 'system.n_qubits': spectroscopy supports one qubit")
    # one run is a one-entry list; the scale lists need two or more runs
    inputs = _get(cfg, "inputs", required=False)
    scales = [field for field in ("gammas", "protocol_biases") if cfg.get(field) is not None]
    if inputs is None:
        inputs = [_get(cfg, "input")]
        if scales:
            raise ConfigError(f"field '{scales[0]}': the scaled-run protocol needs two or "
                              f"more map files in 'inputs'")
    elif cfg.get("input") is not None:
        raise ConfigError("fields 'input' and 'inputs': give one or the other, not both")
    elif not isinstance(inputs, list) or len(inputs) < 2:
        raise ConfigError("field 'inputs': expected two or more map files")
    elif len(scales) != 1:
        raise ConfigError("fields 'gammas' and 'protocol_biases': give exactly one")
    gammas, biases = (_number_list(cfg[field], field, len(inputs), positive=True)
                      if field in scales else None for field in ("gammas", "protocol_biases"))
    reference = _get(cfg, "system.biases")[0]
    if biases and biases[0] != reference:
        raise ConfigError(f"field 'protocol_biases': its first entry {biases[0]!r} is the "
                          f"reference run's bias and must equal system.biases[0], "
                          f"{reference!r}")
    names = [f"inputs[{i}]" for i in range(len(inputs))] if len(inputs) > 1 else ["input"]
    loaded = [_read_input({f: p}, out_dir, field=f) for f, p in zip(names, inputs)]
    runs = [maps for maps, _ in loaded]
    dt = loaded[0][1]["dt"]
    for name, path, (maps, info) in zip(names, inputs, loaded):
        if info["dim"] != 2:
            raise ConfigError(f"field '{name}': spectroscopy mode needs dim-2 maps")
        if info["dt"] != dt:
            raise ConfigError(f"field '{name}': {path} has dt {info['dt']!r} but "
                              f"{inputs[0]} has dt {dt!r}; the runs must share one grid")
        if len(maps) != len(runs[0]):
            raise ConfigError(f"field '{name}': {path} has {len(maps)} maps but "
                              f"{inputs[0]} has {len(runs[0])}; the runs must share one grid")
    n_fit = _integer(cfg, "n_fit", required=False, default=len(runs[0]), minimum=1)
    if n_fit > len(runs[0]):
        raise ConfigError(f"field 'n_fit': must be <= {len(runs[0])}, the number of "
                          f"maps per input, got {n_fit}")
    channels = _get(cfg, "channels", required=False, default=[["z", "z"]])
    try:
        active = tuple((a, b) for a, b in channels)
    except (TypeError, ValueError):
        raise ConfigError("field 'channels': expected pairs like [[\"z\", \"z\"]]") from None
    if not active:
        raise ConfigError("field 'channels': expected at least one pair")
    unknown = [list(pair) for pair in active if any(ax not in ("x", "y", "z") for ax in pair)]
    if unknown:
        raise ConfigError(f"field 'channels': axes must be x, y or z, got {unknown}")
    repeated = [list(pair) for j, pair in enumerate(active) if pair in active[:j]]
    if repeated:
        raise ConfigError(f"field 'channels': pairs given more than once: {repeated}")
    lambdas = _get(cfg, "lambdas", required=False)
    if isinstance(lambdas, list):
        lambdas = _number_list(lambdas, "lambdas", n_fit, minimum=0)
    elif lambdas is not None and not (_is_number(lambdas) and lambdas >= 0):
        raise ConfigError(f"field 'lambdas': expected a finite number >= 0 or a list of "
                          f"{n_fit}, got {lambdas!r}")
    series, omega, s, fields = _stage("spectroscopy", presets._spectroscopy_study, runs,
                                      model.h_system, dt, active, n_fit=n_fit, gammas=gammas,
                                      biases=biases, lambdas=lambdas)
    meta = _meta_for(cfg, out_dir)
    c = series.channel(*active[0])
    corr_path = os.path.join(out_dir, "correlation.csv")
    io.write_series_csv(corr_path, {"time": series.times, "c_re": c.real, "c_im": c.imag}, meta)
    spec_path = os.path.join(out_dir, "spectrum.csv")
    io.write_series_csv(spec_path, {"omega": omega, "s": s}, meta)
    report_path = os.path.join(out_dir, "fit_report.txt")
    io.write_report(report_path, fields, meta)
    return [corr_path, spec_path, report_path]


def _mode_twoqubit(cfg, out_dir):
    maps, info = _read_input(cfg, out_dir)
    if info["dim"] != 4:
        raise ConfigError("field 'input': twoqubit mode needs dim-4 maps")
    written = _stage("multiqubit", presets._pair_study, out_dir, "twoqubit", maps,
                     info["dt"], _meta_for(cfg, out_dir))
    return list(written.values())


def _mode_ingest(cfg, out_dir):
    project = _boolean(cfg, "project_cptp", default=False)
    dt = _number(cfg, "grid.dt", positive=True)
    records = _read_input(cfg, out_dir, io.read_qpt_csv)
    maps = _stage("qpt", reconstruct_maps, records)
    if project:
        maps = _stage("qpt", project_cptp, maps)
    out = os.path.join(out_dir, "maps.json")
    io.write_map_series(out, maps, dt, meta=_meta_for(cfg, out_dir))
    return [out]


def _mode_xy4(cfg, out_dir):
    model = build_model(cfg)
    if model.dim != 2:
        raise ConfigError("field 'system.n_qubits': xy4 mode supports one qubit")
    n_traj, seed, substeps, antithetic, cv = _sampling(cfg)
    if cv:
        raise ConfigError("field 'sampling.control_variate': xy4 mode takes no control "
                          "variate")
    dt_cycle, n_cycles = _grid(cfg)
    out = os.path.join(out_dir, "xy4_norms.csv")
    _stage("propagator", presets._xy4_study, out, _meta_for(cfg, out_dir), model, dt_cycle,
           n_cycles, n_traj, substeps, seed, antithetic)
    return [out]


_MODES = {
    "simulate": (_mode_simulate, "trajectory-averaged dynamical maps for a noise model"),
    "ttm": (_mode_ttm, "transfer tensors and norm profile from a map series"),
    "nonmarkov": (_mode_nonmarkov, "Bloch-volume series and non-Markovianity measure"),
    "spectroscopy": (_mode_spectroscopy, "memory kernel, correlation fit, spectral density"),
    "twoqubit": (_mode_twoqubit, "separable/collective unraveling of a two-qubit map series"),
    "ingest": (_mode_ingest, "rebuild maps from tomography records"),
    "xy4": (_mode_xy4, "free versus XY4-protected memory profiles"),
}


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


def run_config(cfg, out_dir):
    """Validate and execute one config document. Returns written paths."""
    mode = _string(cfg, "mode", choices=_MODES)
    _make_out_dir(out_dir)
    return _MODES[mode][0](cfg, out_dir)


def _read_config(path, command):
    """The JSON object at ``path``, its mode set by a mode subcommand."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259)
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(cfg).__name__}")
    if command == "run":
        return cfg
    stated = cfg.get("mode")
    if stated is not None and stated != command:
        raise ConfigError(f"field 'mode': config says {stated!r} but the {command} "
                          f"subcommand was invoked")
    return {**cfg, "mode": command}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ttmkit",
        description="Transfer-tensor reconstruction, memory kernels, noise spectroscopy.")
    parser.add_argument("--version", action="version", version=f"ttmkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_help = (None, "execute a JSON config (mode read from the file)")
    for command, (_, help_text) in {"run": run_help, **_MODES}.items():
        p_cfg = sub.add_parser(command, help=help_text)
        p_cfg.add_argument("--config", required=True, help="path to the config document")
        p_cfg.add_argument("--out-dir", default=".", help="directory for output files")

    p_preset = sub.add_parser("preset", help="run a bundled end-to-end study")
    p_preset.add_argument("name", choices=sorted(presets.RUNNERS))
    p_preset.add_argument("--out-dir", default=".", help="directory for output files")
    p_preset.add_argument("--scale", choices=("full", "fast"), default="full",
                          help="'fast' cuts trajectory counts for smoke runs")
    p_preset.add_argument("--seed", type=int, default=None,
                          help="override the preset's default seed")

    args = parser.parse_args(argv)
    try:
        if args.command == "preset":
            if args.seed is not None and args.seed < 0:
                raise ConfigError(f"argument '--seed': must be >= 0, got {args.seed}")
            _make_out_dir(args.out_dir)
            # without --seed each preset keeps its own default
            seed = {} if args.seed is None else {"seed": args.seed}
            result = presets.RUNNERS[args.name](args.out_dir, scale=args.scale, **seed)
            written = sorted(result.values())
        else:
            written = run_config(_read_config(args.config, args.command), args.out_dir)
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
