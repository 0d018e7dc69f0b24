"""CSV and key-value serialization for fields, traces and report tables.

All floats are written with 17 significant digits so identical runs produce
byte-identical files.  Rows of cells go through `csv.writer`; the dense traces
are formatted in bulk, one `%` of a line template per `_CHUNK` lines.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .basis import EigenBasis, SpectralField
from .errors import InvalidArgumentError

_CHUNK = 32     # lines per formatted string, so no string grows past a few KB


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def _strs(values) -> list[str]:
    """`fmt` of every entry of a 1-D array, in one pass."""
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence | str]) -> int:
    """Write a CSV header and rows; returns the row count.  A row of cells goes through
    `csv.writer` (a cell that is not a string through `fmt`); a string row is text of
    whole lines, already formatted, and counts as its number of line ends."""
    n = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
                n += row.count("\n")
            else:
                w.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])
                n += 1
    return n


def _trace_lines(heads: Sequence[str], cols: Sequence[str], values) -> Iterable[str]:
    """Text of the lines "<head>,<col>,<value>" over the 2-D `values`, `_CHUNK` lines a string."""
    cells = [c + ",%.17g\r\n" for c in cols]
    for head, row in zip(heads, np.asarray(values, dtype=float)):
        head, row = head + ",", tuple(row.tolist())
        for i in range(0, len(cells), _CHUNK):
            yield (head + head.join(cells[i:i + _CHUNK])) % row[i:i + _CHUNK]


def write_field_csv(fld: SpectralField, path) -> int:
    """Rows "k,coeff", one per retained mode."""
    return _write_rows(Path(path), ["k", "coeff"],
                       ((str(k + 1), c) for k, c in enumerate(_strs(fld.coeffs))))


def write_coeff_trace_csv(times: np.ndarray, coeffs: np.ndarray, path) -> int:
    """Rows "t,k,coeff", one per (time, mode)."""
    ks = [str(k + 1) for k in range(coeffs.shape[1])]
    return _write_rows(Path(path), ["t", "k", "coeff"], _trace_lines(_strs(times), ks, coeffs))


def write_grid_trace_csv(times: np.ndarray, xs: np.ndarray, values: np.ndarray, path) -> int:
    """Rows "t,x,value" on a fixed spatial mesh."""
    return _write_rows(Path(path), ["t", "x", "value"],
                       _trace_lines(_strs(times), _strs(xs), values))


def write_transport_dump_csv(t: float, s_mesh: np.ndarray, xs: np.ndarray,
                             z: np.ndarray, path) -> int:
    """Rows "t,s,x,value" for one snapshot of the delay-line component."""
    heads = [f"{fmt(t)},{s}" for s in _strs(s_mesh)]
    return _write_rows(Path(path), ["t", "s", "x", "value"], _trace_lines(heads, _strs(xs), z))


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
    """Read "gamma,k,coeff" rows into (times, coefficient rows) for a grid history.

    The grid must be rectangular: every sampled time names the same modes,
    each once, and a mode that no sample names reads as 0.  A (gamma, k) pair
    missing at one time or named twice, a row with fewer than three cells, a
    cell that does not parse, or a gamma or coeff that is not finite raises
    InvalidArgumentError naming the file and the pair or line.
    """
    by_time: dict[float, dict[int, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["gamma", "k", "coeff"]:
            raise InvalidArgumentError(f"{path}: expected header 'gamma,k,coeff'")
        for row in reader:
            if not row:
                continue
            try:
                g, k, c = float(row[0]), int(row[1]), float(row[2])
            except (IndexError, ValueError):
                raise InvalidArgumentError(
                    f"{path}, line {reader.line_num}: expected 'gamma,k,coeff', got {','.join(row)!r}"
                ) from None
            if not (math.isfinite(g) and math.isfinite(c)):
                raise InvalidArgumentError(f"{path}, line {reader.line_num}: non-finite value")
            if not 1 <= k <= basis.K:
                raise InvalidArgumentError(f"{path}: mode {k} outside 1..{basis.K}")
            sample = by_time.setdefault(g, {})
            if k in sample:
                raise InvalidArgumentError(
                    f"{path}, line {reader.line_num}: second row for (gamma, k) = ({g!r}, {k})")
            sample[k] = c
    if len(by_time) < 2:
        raise InvalidArgumentError(f"{path}: grid history needs at least 2 samples")
    times = np.array(sorted(by_time))
    modes = sorted(set().union(*by_time.values()))
    rows = np.zeros((len(times), basis.K))
    for i, t in enumerate(times.tolist()):
        for k in modes:
            if k not in by_time[t]:
                raise InvalidArgumentError(f"{path}: no row for (gamma, k) = ({t!r}, {k})")
            rows[i, k - 1] = by_time[t][k]
    return times, rows
