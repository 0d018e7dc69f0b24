"""CSV and key-value serialization for traces and report tables.

All floats are written as "%.17g" writes them, so identical runs produce byte-identical
files.  Rows of cells go through `csv.writer`; the dense traces are formatted in numpy,
about `_BLOCK` values at a time, with exact digits (`_cells`), and give the same bytes.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .basis import EigenBasis
from .errors import InvalidArgumentError

_BLOCK = 4096   # values formatted per block, so a block's temporaries stay under 1 MB

# A cell holds every layout of `%.17g`: sign, "0" (for |x| < 1), 17 digits, point, "000",
# 17 digits and the exponent text.  A row of the layout table keeps the bytes of one
# layout and zeroes the rest, which `_trace_lines` drops.
_TEMPLATE = b"-0" + b"0" * 17 + b".000" + b"0" * 17 + b"e+123"
_WIDTH = len(_TEMPLATE)


def fmt(x: float) -> str:
    return "%.17g" % float(x)


@functools.cache
def _tables():
    """Read-only tables for `_cells`.  Per exponent e = 280 .. -280: 10^(16 - e) as hi + lo
    with hi's Dekker halves, and `%g`'s exponent text; the ASCII digits of 0..9999; and the
    layout masks per (form, kept digits, sign), where form is 0..20 for the fixed layout at
    e = form - 4, 21 for the exponent layout and 22 for zero."""
    tens = [10**q for q in range(297)]
    pows = [(float(t), float(t - int(float(t)))) for t in tens]
    for t in tens[1:265]:                       # 10^-q = 1 / 10^q
        n, d = (1 / t).as_integer_ratio()
        pows.insert(0, (n / d, (d - n * t) / (d * t)))
    hi, lo = np.array(pows).T
    head = hi * 134217729.0 - (hi * 134217729.0 - hi)
    exps = np.array([b"e%+03d" % e for e in range(280, -281, -1)], "S5").view(np.uint8)
    digits = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
    form, kept, sign = (v[..., None] for v in np.ogrid[:23, :18, :2])
    x, fixed, exp, i = form - 4, form < 21, form == 21, np.arange(17)
    layout = np.zeros((23, 18, 2, _WIDTH), bool)
    layout[..., :1] = sign
    layout[..., 1:2] = fixed & (x < 0) | (form == 22)
    layout[..., 2:19] = fixed & (i <= x) | exp & (i == 0)
    layout[..., 19:20] = fixed & ((x < 0) | (kept > x + 1)) | exp & (kept > 1)
    layout[..., 20:23] = fixed & (np.arange(3) < -x - 1)
    layout[..., 23:40] = (fixed & (i > x) | exp & (i > 0)) & (i < kept)
    layout[..., 40:] = exp
    tables = (np.column_stack([hi, lo, head, hi - head]), exps.reshape(-1, 5),
              digits.view("<u4").ravel(), layout.reshape(-1, _WIDTH).view(np.uint8))
    for a in tables:
        a.setflags(write=False)
    return tables


def _cells(values) -> np.ndarray:
    """`fmt` of every entry of an array as NUL-padded ASCII rows, (n, _WIDTH) uint8.  The
    digits are D = round(|x| 10^(16 - e)), e = floor(log10 |x|), from Dekker's exact product
    of |x| and 10^(16 - e) as a double-double.  Values within 1e-6 of a rounding tie or 2
    units of a decade edge, nonzero |x| outside [1e-280, 1e280], nan and inf go to `fmt`."""
    pows, exps, digits, layout = _tables()
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    a[~ok] = 1.0
    e = np.clip(np.floor(np.log10(a)), -280, 280).astype(np.intp)
    hi, lo, hh, hl = np.take(pows, 280 - e, axis=0).T
    p, t = a * hi, a * 134217729.0
    ah = t - (t - a)
    al = a - ah
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo    # a 10^(16-e) - p
    n = np.rint(r)
    d = p.astype(np.int64) + n.astype(np.int64)
    ok &= (np.abs(r - n) < 0.5 - 1e-6) & (d >= 10**16 + 2) & (d <= 10**17 - 3)
    top, low = np.divmod(d, 10**8)             # D in groups of 1, 4, 4, 4 and 4 digits
    g = np.stack([*np.divmod(top // 10**4, 10**4), top % 10**4, *np.divmod(low, 10**4)])
    dg = np.take(digits, g.T).view(np.uint8)[:, 3:]
    kept = 17 - np.argmax(dg[:, ::-1] != 48, axis=1)
    form = np.where(x == 0, 22, np.where((e >= -4) & (e <= 16), e + 4, 21))
    out = np.empty((len(x), _WIDTH), np.uint8)
    out[:] = np.frombuffer(_TEMPLATE, np.uint8)
    out[:, 2:19] = out[:, 23:40] = dg
    out[:, 40:] = np.take(exps, 280 - e, axis=0)
    out *= np.take(layout, (form * 18 + kept) * 2 + np.signbit(x), axis=0)
    rest = np.flatnonzero(~ok & (x != 0))
    text = np.array([fmt(v).encode() for v in x[rest].tolist()], dtype=f"S{_WIDTH}")
    out[rest] = text.view(np.uint8).reshape(-1, _WIDTH)
    return out


@dataclass(frozen=True)
class _Lines:
    """Text of `count` whole CSV lines, already formatted, as `_trace_lines` yields it."""

    text: str
    count: int


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence | _Lines]) -> int:
    """Write a CSV header and rows; returns the row count.  A row of cells goes through
    `csv.writer` (a cell that is not a string through `fmt`); a `_Lines` row is written
    as it is and counts as its `count` lines."""
    n = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            if isinstance(row, _Lines):
                fh.write(row.text)
                n += row.count
            else:
                w.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])
                n += 1
    return n


def _labels(cells: np.ndarray, prefix: bytes = b"") -> np.ndarray:
    """Rows of `prefix`, the text of a `_cells` row left-justified, and ','; NUL-padded."""
    keep = cells != 0
    width = keep.sum(1)
    out = np.zeros((len(cells), len(prefix) + width.max(initial=0) + 1), np.uint8)
    out[:, :len(prefix)] = np.frombuffer(prefix, np.uint8)
    out[:, len(prefix):][np.arange(out.shape[1] - len(prefix)) < width[:, None]] = cells[keep]
    out[np.arange(len(cells)), len(prefix) + width] = ord(",")
    return out


def _trace_lines(heads, cols, values, prefix: str = "") -> Iterable[_Lines]:
    """Text of the lines "<prefix><head>,<col>,<value>" over the 2-D `values`, with the
    floats `heads` labelling its rows and `cols` its columns, every float as `fmt` writes
    it; one `_Lines` per block of whole rows, about `_BLOCK` values."""
    values = np.asarray(values, dtype=float)
    (n_rows, n_cols), nh = values.shape, len(heads)
    step = max(1, _BLOCK // max(n_cols, 1))
    cells = _cells(np.concatenate([np.ravel(heads), np.ravel(cols), values[:step].ravel()]))
    heads, cols = _labels(cells[:nh], prefix.encode()), _labels(cells[nh:nh + n_cols])
    wh, wc = heads.shape[1], cols.shape[1]
    for i in range(0, n_rows, step):
        block = cells[nh + n_cols:] if i == 0 else _cells(values[i:i + step])
        lines = np.empty((min(step, n_rows - i), n_cols, wh + wc + _WIDTH + 2), np.uint8)
        lines[:, :, :wh] = heads[i:i + step, None]
        lines[:, :, wh:wh + wc] = cols
        lines[:, :, wh + wc:-2] = block.reshape(len(lines), n_cols, _WIDTH)
        lines[:, :, -2:] = np.frombuffer(b"\r\n", np.uint8)
        text = lines.tobytes().translate(None, b"\0").decode("ascii")
        yield _Lines(text, lines.shape[0] * n_cols)


def write_coeff_trace_csv(times: np.ndarray, coeffs: np.ndarray, path) -> int:
    """Rows "t,k,coeff", one per (time, mode)."""
    ks = np.arange(1.0, coeffs.shape[1] + 1)     # `fmt` of a whole number below 1e17 is str(k)
    return _write_rows(Path(path), ["t", "k", "coeff"], _trace_lines(times, ks, coeffs))


def write_grid_trace_csv(times: np.ndarray, xs: np.ndarray, values: np.ndarray, path) -> int:
    """Rows "t,x,value" on a fixed spatial mesh."""
    return _write_rows(Path(path), ["t", "x", "value"], _trace_lines(times, xs, values))


def write_transport_dump_csv(t: float, s_mesh: np.ndarray, xs: np.ndarray,
                             z: np.ndarray, path) -> int:
    """Rows "t,s,x,value" for one snapshot of the delay-line component."""
    return _write_rows(Path(path), ["t", "s", "x", "value"],
                       _trace_lines(s_mesh, xs, z, prefix=fmt(t) + ","))


def write_keyvalue(mapping: dict, path) -> int:
    """Flat "key = value" report, one entry per line."""
    with open(path, "w") as fh:
        fh.writelines(f"{k} = {fmt(v) if isinstance(v, float) else v}\n" for k, v in mapping.items())
    return len(mapping)


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
