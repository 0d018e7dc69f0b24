"""CSV and key-value serialization for fields, traces and report tables.

All floats are written with 17 significant digits so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .basis import EigenBasis, SpectralField
from .errors import InvalidArgumentError


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _strs(values) -> list[str]:
    """`fmt` of every entry of a 1-D array, in one pass."""
    return [f"{v:.17g}" for v in np.asarray(values, dtype=float).tolist()]


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    n = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])
            n += 1
    return n


def write_field_csv(fld: SpectralField, path) -> int:
    """Rows "k,coeff", one per retained mode."""
    return _write_rows(Path(path), ["k", "coeff"],
                       ((str(k + 1), c) for k, c in enumerate(_strs(fld.coeffs))))


def write_coeff_trace_csv(times: np.ndarray, coeffs: np.ndarray, path) -> int:
    """Rows "t,k,coeff", one per (time, mode)."""
    ks = [str(k + 1) for k in range(coeffs.shape[1])]
    rows = ((t, k, c) for t, row in zip(_strs(times), coeffs) for k, c in zip(ks, _strs(row)))
    return _write_rows(Path(path), ["t", "k", "coeff"], rows)


def write_grid_trace_csv(times: np.ndarray, xs: np.ndarray, values: np.ndarray, path) -> int:
    """Rows "t,x,value" on a fixed spatial mesh."""
    xs = _strs(xs)
    rows = ((t, x, v) for t, row in zip(_strs(times), values) for x, v in zip(xs, _strs(row)))
    return _write_rows(Path(path), ["t", "x", "value"], rows)


def write_transport_dump_csv(t: float, s_mesh: np.ndarray, xs: np.ndarray,
                             z: np.ndarray, path) -> int:
    """Rows "t,s,x,value" for one snapshot of the delay-line component."""
    t, xs = fmt(t), _strs(xs)
    rows = ((t, s, x, v) for s, row in zip(_strs(s_mesh), z) for x, v in zip(xs, _strs(row)))
    return _write_rows(Path(path), ["t", "s", "x", "value"], rows)


def write_jump_table_csv(rows, path) -> int:
    """Rows "j,predicted_norm,measured_norm,rel_error"."""
    return _write_rows(Path(path), ["j", "predicted_norm", "measured_norm", "rel_error"],
                       ((str(r.j), r.predicted_norm, r.measured_norm, r.rel_error) for r in rows))


def write_keyvalue(mapping: dict, path) -> int:
    """Flat "key = value" report, one entry per line."""
    n = 0
    with open(path, "w") as fh:
        for k, v in mapping.items():
            v = fmt(v) if isinstance(v, float) else str(v)
            fh.write(f"{k} = {v}\n")
            n += 1
    return n


def read_grid_history_csv(path, basis: EigenBasis) -> tuple[np.ndarray, np.ndarray]:
    """Read "gamma,k,coeff" rows into (times, coefficient rows) for a grid history."""
    by_time: dict[float, dict[int, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["gamma", "k", "coeff"]:
            raise InvalidArgumentError(f"{path}: expected header 'gamma,k,coeff'")
        for row in reader:
            if not row:
                continue
            g, k, c = float(row[0]), int(row[1]), float(row[2])
            by_time.setdefault(g, {})[k] = c
    if len(by_time) < 2:
        raise InvalidArgumentError(f"{path}: grid history needs at least 2 samples")
    times = np.array(sorted(by_time))
    rows = np.zeros((len(times), basis.K))
    for i, t in enumerate(times):
        for k, c in by_time[t].items():
            if not 1 <= k <= basis.K:
                raise InvalidArgumentError(f"{path}: mode {k} outside 1..{basis.K}")
            rows[i, k - 1] = c
    return times, rows
