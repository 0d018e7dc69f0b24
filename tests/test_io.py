import csv
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from delayheat import EigenBasis, InvalidArgumentError
from delayheat import io as dio


def test_coeff_trace_csv_roundtrip_digits(tmp_path):
    coeffs = np.array([[1.0 / 3.0, -2.5e-17, 0.0, 7.0]])
    path = tmp_path / "trace.csv"
    n = dio.write_coeff_trace_csv(np.array([0.1]), coeffs, path)
    assert n == 4
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    back = np.array([float(r["coeff"]) for r in rows])
    # 17 significant digits reproduce doubles exactly
    assert_allclose(back, coeffs[0], rtol=0, atol=0)


def test_grid_history_reader(tmp_path):
    basis = EigenBasis(1.0, 3)
    path = tmp_path / "hist.csv"
    path.write_text("gamma,k,coeff\n-1.0,1,0.25\n-1.0,2,1.0\n0.0,2,-0.5\n0.0,1,0.75\n")
    times, rows = dio.read_grid_history_csv(path, basis)
    assert_allclose(times, [-1.0, 0.0])
    # mode 3, which no sample names, reads as 0
    assert_allclose(rows[0], [0.25, 1.0, 0.0])
    assert_allclose(rows[1], [0.75, -0.5, 0.0])


def test_grid_history_reader_rejects_bad_input(tmp_path):
    basis = EigenBasis(1.0, 3)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("t,k,c\n0,1,1\n")
    with pytest.raises(InvalidArgumentError):
        dio.read_grid_history_csv(bad_header, basis)
    single = tmp_path / "single.csv"
    single.write_text("gamma,k,coeff\n-0.5,1,1.0\n")
    with pytest.raises(InvalidArgumentError):
        dio.read_grid_history_csv(single, basis)
    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("gamma,k,coeff\n-1.0,9,1.0\n0.0,1,1.0\n")
    with pytest.raises(InvalidArgumentError):
        dio.read_grid_history_csv(out_of_range, basis)
    # a short row, a cell that does not parse and a non-finite value name the file and line
    for name, line in (("short", "-0.5,1"), ("text", "-0.5,one,1.0"), ("frac", "-0.5,1.5,1.0"),
                       ("nan", "-0.5,1,nan"), ("inf", "-0.5,1,inf"), ("gamma", "-inf,1,1.0")):
        bad = tmp_path / f"{name}.csv"
        bad.write_text(f"gamma,k,coeff\n-1.0,1,1.0\n{line}\n0.0,1,1.0\n")
        with pytest.raises(InvalidArgumentError, match=f"{name}.csv, line 3"):
            dio.read_grid_history_csv(bad, basis)
    # a grid that is not rectangular: a pair missing at one time, or named twice
    missing = tmp_path / "missing.csv"
    missing.write_text("gamma,k,coeff\n-1.0,1,0.25\n-1.0,2,1.0\n-0.5,2,0.5\n"
                       "0.0,1,0.75\n0.0,2,0.0\n")
    with pytest.raises(InvalidArgumentError,
                       match=r"missing.csv: no row for \(gamma, k\) = \(-0.5, 1\)"):
        dio.read_grid_history_csv(missing, basis)
    twice = tmp_path / "twice.csv"
    twice.write_text("gamma,k,coeff\n-1.0,1,0.25\n0.0,1,0.75\n-1.0,1,0.25\n")
    with pytest.raises(InvalidArgumentError,
                       match=r"twice.csv, line 4: second row for \(gamma, k\) = \(-1.0, 1\)"):
        dio.read_grid_history_csv(twice, basis)


def test_transport_dump(tmp_path):
    path = tmp_path / "z.csv"
    z = np.arange(6, dtype=float).reshape(2, 3)
    n = dio.write_transport_dump_csv(0.5, np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]),
                                     z, path)
    assert n == 6
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["t"] == "0.5"
    assert [float(r["value"]) for r in rows] == list(range(6))


def test_keyvalue_report(tmp_path):
    path = tmp_path / "report.txt"
    n = dio.write_keyvalue({"flag": True, "ratio": 1.0 / 3.0, "n": 7}, path)
    assert n == 3
    text = path.read_text()
    assert "flag = True" in text
    assert "0.33333333333333331" in text


def _csv_writer_reference(path, header, rows):
    """The file a plain `csv.writer` writes, which `_write_rows` must reproduce."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([cell if isinstance(cell, str) else dio.fmt(cell) for cell in row])


def test_write_rows_matches_csv_writer_byte_for_byte(tmp_path):
    rng = np.random.default_rng(7)
    numeric = [(t, str(k + 1), c) for t in rng.standard_normal(4)
               for k, c in enumerate(rng.standard_normal(5))]
    mixed = [("per-mode", "delayed exp vs RK4", "PASS", np.float64(3.2e-9), 1e-6, ""),
             ("jumps", "off-lattice probes a=2", "FAIL", 7, 1e-8, "worst at t=1.5"),
             ("picard", "envelope", "PASS", -0.0, float("inf"), "floor=1e-12 C=0.3")]
    text = [("identity", 'bound "tight", still', "FAIL", 0.1, 0.2, "a,b"),
            ("jumps", "modes 1,2", "PASS", 0.5, 1.0, ""),
            ("hybrid", "two\nlines", "PASS", 1.0, 2.0, "carriage\rreturn"),
            ("x", "", "", 0.5, 0.25, ""), ("",), (), ('"',), ("plain", "row", "after", 1, 2, 3)]
    for name, rows in (("numeric", numeric), ("mixed", mixed), ("text", text),
                       ("all", numeric + text + mixed + text)):
        header = ["suite", "check", "status", "value", "threshold", "detail"]
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        assert dio._write_rows(got, header, iter(rows)) == len(rows)
        _csv_writer_reference(want, header, rows)
        assert got.read_bytes() == want.read_bytes(), name


SPECIAL = [-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, 1.0, float("nan"), float("inf"), float("-inf")]


def _trace_reference(path, header, heads, cols, values):
    """A trace as `csv.writer` writes it: one row per entry, `fmt` of every number."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for head, row in zip(heads, values):
            for col, v in zip(cols, row):
                w.writerow([*head, col, dio.fmt(v)])


@pytest.mark.parametrize("n_cols", [1, 31, 33, 301, dio._BLOCK - 1, dio._BLOCK + 1])
@pytest.mark.parametrize("n_times", [0, 1, 3])
def test_trace_writers_match_csv_writer_byte_for_byte(tmp_path, n_times, n_cols):
    values = np.resize(SPECIAL, n_times * n_cols + 1)[1:].reshape(n_times, n_cols)
    times = np.resize(SPECIAL[::-1], n_times)
    xs = np.linspace(0.0, 1.0, n_cols) ** 3
    t_labels = [[dio.fmt(t)] for t in times]
    cases = [
        ("coeff", ["t", "k", "coeff"], lambda p: dio.write_coeff_trace_csv(times, values, p),
         t_labels, [str(k + 1) for k in range(n_cols)]),
        ("grid", ["t", "x", "value"], lambda p: dio.write_grid_trace_csv(times, xs, values, p),
         t_labels, [dio.fmt(x) for x in xs]),
        ("transport", ["t", "s", "x", "value"],
         lambda p: dio.write_transport_dump_csv(1.0 / 3.0, times, xs, values, p),
         [[dio.fmt(1.0 / 3.0), dio.fmt(s)] for s in times], [dio.fmt(x) for x in xs]),
    ]
    for name, header, write, heads, cols in cases:
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        assert write(got) == n_times * n_cols, name
        _trace_reference(want, header, heads, cols, values)
        assert got.read_bytes() == want.read_bytes(), name


def _formatted(values) -> list[str]:
    """The texts `_cells` holds for `values`."""
    return [bytes(row).replace(b"\0", b"").decode() for row in dio._cells(values)]


def _assert_formats_like_fmt(values):
    values = np.asarray(values, dtype=float)
    got, want = _formatted(values), [dio.fmt(v) for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def _ties() -> list[float]:
    """Doubles whose exact decimal value has 18 significant digits ending in 5, so that
    `%.17g` breaks a tie to even: h / 2^s for odd h, s = 2..25 (s = 24 and 25 are the ties
    whose 10^(16 - e) is not a double)."""
    rng = np.random.default_rng(5)
    ties = [1e15 + 0.25]
    for s in range(2, 26):
        lo, hi = -(-10**17 // 5**s), min(10**18 // 5**s, 2**53)
        for h in (rng.integers(lo, hi, 20).tolist() if hi - lo > 20 else range(lo, hi)):
            digits = Decimal((h | 1) / 2**s).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append((h | 1) / 2**s)
    return ties


# Within 1e-15 of a tie but not on it: the double-double product rounds onto the tie,
# and rounding that half to even gives the wrong last digit.
NEAR_TIES = [9.168015998995436e+38, 6.680327267462135e+39, 9.039362603591881e+39,
             1.8078725207183761e+40, 4.2698305731709663e+40]


def test_cells_match_fmt_on_ties():
    assert dio.fmt(1e15 + 0.25) == "1000000000000000.2"
    ties = _ties()
    assert len(ties) > 300
    _assert_formats_like_fmt(ties + NEAR_TIES + [-v for v in ties + NEAR_TIES])


def test_cells_match_fmt_on_decade_edges_and_specials():
    edges = np.array([10.0**p for p in range(-300, 301)] + [1e-280, 1e280])
    _assert_formats_like_fmt(
        np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)]))
    subnormals = np.random.default_rng(3).integers(1, 2**52, 200).view(np.float64)
    _assert_formats_like_fmt([*SPECIAL, -0.0, 0.0, -5e-324, 2.2250738585072014e-308,
                              np.nextafter(2.2250738585072014e-308, 0), 2.0**53, 2.0**53 + 2,
                              1e16 + 2, 1e17 - 16, 0.0001, 0.00012, 1e16, 123.0, *subnormals])


def test_cells_match_fmt_on_random_bit_patterns():
    bits = np.random.default_rng(11).integers(0, 2**64, 10**5, dtype=np.uint64)
    _assert_formats_like_fmt(bits.view(np.float64))


def test_cells_of_no_values():
    assert dio._cells(np.empty(0)).shape == (0, dio._WIDTH)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_cells_match_fmt_property(values):
    _assert_formats_like_fmt(values)


def test_coeff_trace_over_several_blocks_matches_csv_writer(tmp_path):
    # 240 modes: blocks of 17 whole rows, the last one partial, all of random bit patterns
    bits = np.random.default_rng(13).integers(0, 2**64, (101, 240), dtype=np.uint64)
    values, times = bits.view(np.float64), np.linspace(0.0, 2.5, 101)
    got, want = tmp_path / "coeff.csv", tmp_path / "coeff_ref.csv"
    assert dio.write_coeff_trace_csv(times, values, got) == values.size
    _trace_reference(want, ["t", "k", "coeff"], [[dio.fmt(t)] for t in times],
                     [str(k + 1) for k in range(240)], values)
    assert got.read_bytes() == want.read_bytes()
