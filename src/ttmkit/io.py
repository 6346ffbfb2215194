"""File formats: map-series JSON, tomography-record CSV, metadata-tagged series CSV.

Floats are serialized through Python's shortest round-trip repr, so every
format here reads back bit-identical values. Nothing writes wall-clock
metadata; outputs are byte-stable for a fixed configuration.
"""

import csv
import hashlib
import json
import math

import numpy as np

from .qpt import QptRecord

MAP_CONVENTION = "row-major-vec"

QPT_HEADER = ["time_index", "prep_label", "pauli", "expectation", "shots"]


def config_hash(config):
    """Short stable digest of a JSON-serializable configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_map_series(path, maps, dt, n_traj=0, meta=None):
    """Store superoperators at times dt, 2 dt, ... as a JSON document."""
    maps = [np.asarray(m, dtype=complex) for m in maps]
    if not maps:
        raise ValueError("a map series needs at least one map")
    side = maps[0].shape[0]
    dim = int(round(side ** 0.5))
    if dim * dim != side or any(m.shape != (side, side) for m in maps):
        raise ValueError("maps must be square superoperators of a common d^2 size")
    doc = {
        "dim": dim,
        "dt": float(dt),
        "n_traj": int(n_traj),
        "convention": MAP_CONVENTION,
        "meta": {k: str(v) for k, v in sorted((meta or {}).items())},
        "maps": [
            {
                "time_index": k + 1,
                "entries": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist(),
            }
            for k, m in enumerate(maps)
        ],
    }
    # json.dumps runs the C encoder; json.dump to a file does not
    text = json.dumps(doc)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_map_series(path):
    """Load a map-series document. Returns (maps, info dict)."""
    with open(path) as fh:
        doc = json.load(fh)
    for field in ("dim", "dt", "convention", "maps"):
        if field not in doc:
            raise ValueError(f"map series file is missing field {field!r}")
    if doc["convention"] != MAP_CONVENTION:
        raise ValueError(f"unsupported vectorization convention {doc['convention']!r}")
    dt = _number_field(doc, "dt", (int, float))
    if not 0 < dt < math.inf:
        raise ValueError(f"map series file: dt must be finite and positive, got {dt!r}")
    dt = float(dt)
    dim = _number_field(doc, "dim", int, minimum=1)
    n_traj = _number_field(doc, "n_traj", int, minimum=0, default=0)
    side = dim * dim
    if not isinstance(doc["maps"], list) or not doc["maps"]:
        raise ValueError("map series file: field 'maps' must be a list of one or more maps")
    maps = []
    for rec in doc["maps"]:
        k = len(maps) + 1
        if not isinstance(rec, dict):
            raise ValueError(f"maps[{k - 1}]: expected an object, found {rec!r}")
        if rec.get("time_index") != k:
            raise ValueError(f"maps[{k - 1}]: expected time_index {k}, "
                             f"found {rec.get('time_index')!r}")
        entries = rec.get("entries", [])
        if not isinstance(entries, list) or len(entries) != side * side:
            raise ValueError(f"maps[{k - 1}]: entries must be a list of {side * side} "
                             f"[re, im] pairs")
        try:
            # complex() rejects strings, null and lists; the type test catches
            # booleans and the finite test the NaN and Infinity that json reads
            flat = np.array([complex(re, im) for re, im in entries])
            numbers = ({type(x) for pair in entries for x in pair} <= {int, float}
                       and np.isfinite(flat).all())
        except (TypeError, ValueError, OverflowError):
            numbers = False
        if not numbers:
            raise ValueError(f"maps[{k - 1}]: every entry must be a pair of JSON numbers")
        maps.append(flat.reshape(side, side))
    info = {"dim": dim, "dt": dt, "n_traj": n_traj}
    return maps, info


def _number_field(doc, field, kinds, minimum=None, default=None):
    """``doc[field]`` as a JSON number of the given kinds, never a boolean or string."""
    val = doc.get(field, default)
    if isinstance(val, bool) or not isinstance(val, kinds):
        kind = "an integer" if kinds is int else "a number"
        raise ValueError(f"map series file: field {field!r} must be {kind}, got {val!r}")
    if minimum is not None and val < minimum:
        raise ValueError(f"map series file: field {field!r} must be >= {minimum}, got {val!r}")
    return val


def write_qpt_csv(path, records):
    """Write tomography records with the fixed five-column header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(QPT_HEADER)
        for r in records:
            writer.writerow([r.time_index, r.prep_label, r.pauli, repr(float(r.expectation)),
                             r.shots])


def read_qpt_csv(path):
    """Read tomography records; malformed lines raise with their line number."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != QPT_HEADER:
            raise ValueError(f"line 1: expected header {','.join(QPT_HEADER)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"line {lineno}: expected 5 fields, got {len(row)}")
            try:
                record = QptRecord(
                    time_index=int(row[0]),
                    prep_label=row[1],
                    pauli=row[2],
                    expectation=float(row[3]),
                    shots=int(row[4]),
                )
                if not math.isfinite(record.expectation):
                    raise ValueError(f"expectation must be finite, got {row[3]!r}")
                if record.shots < 0:
                    raise ValueError(f"shots must be >= 0, got {record.shots}")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            records.append(record)
    return records


def _format_cell(x):
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    if isinstance(x, (np.integer, int)):
        return str(int(x))
    return str(x)


def write_series_csv(path, columns, meta=None):
    """Write named columns with '# key: value' metadata lines on top.

    columns maps names to equal-length sequences. Complex data must be
    split by the caller; this writer handles real and integer columns.
    """
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    if any(a.ndim != 1 for a in arrays):
        raise ValueError("columns must be one-dimensional")
    if len({a.shape[0] for a in arrays}) > 1:
        raise ValueError("columns differ in length")
    with open(path, "w", newline="") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}: {meta[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(arrays[0].shape[0]):
            writer.writerow([_format_cell(a[i]) for a in arrays])


def read_series_csv(path):
    """Inverse of :func:`write_series_csv`. Returns (columns dict, meta dict)."""
    meta = {}
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            else:
                rows.append(line)
    reader = csv.reader(rows)
    names = next(reader)
    data = {n: [] for n in names}
    for row in reader:
        if not row:
            continue
        for n, cell in zip(names, row):
            data[n].append(cell)
    columns = {}
    for n in names:
        try:
            columns[n] = np.array([float(c) for c in data[n]])
        except ValueError:
            columns[n] = np.array(data[n])
    return columns, meta


def write_report(path, fields, meta=None):
    """Write a key/value diagnostic report as plain text, one pair per line."""
    with open(path, "w") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}: {meta[key]}\n")
        for key, value in fields.items():
            if isinstance(value, (np.ndarray, list, tuple)):
                value = " ".join(_format_cell(v) for v in np.asarray(value).reshape(-1))
            else:
                value = _format_cell(value)
            fh.write(f"{key} = {value}\n")
