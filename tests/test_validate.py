"""The validate module's own inputs (its deterministic test fields and the figure suite's median)
and the bounds that follow from an error model."""

import numpy as np
import pytest

from delayheat.validate import (_SEED, _test_field, figure_checks, figure_panels,
                                suite_compatibility, suite_identity)


@pytest.mark.parametrize("seed, shape", [(_SEED, (20, 60)), (_SEED + 1, (60,))])
def test_test_fields_are_reproducible_finite_and_nonzero(seed, shape):
    field = _test_field(seed, shape)
    assert field.shape == shape and field.dtype == np.float64
    assert field.tobytes() == _test_field(seed, shape).tobytes()
    assert np.all(np.isfinite(field)) and np.all(field != 0.0)


def test_the_identity_field_has_distinct_standard_normal_like_entries():
    field = _test_field(_SEED, (20, 60))
    assert np.unique(field).size == field.size
    assert abs(np.mean(field)) < 0.1 and abs(np.std(field) - 1.0) < 0.1
    # the two labels give two different fields
    assert not np.array_equal(field[0], _test_field(_SEED + 1, (60,)))


def test_the_partition_median_is_numpy_median_on_every_figure_panel():
    # figure_checks takes the middle element of np.partition of the 301 magnitudes; np.median,
    # which imports numpy.ma, stays here as the reference
    _, panels = figure_panels(nx=300)      # rows at t = 0, 0.5, ..., 2.5
    assert panels.shape == (6, 301)
    for vals in panels:
        mags = np.abs(vals)
        assert mags.size == 301
        assert np.partition(mags, 150)[150].tobytes() == np.median(mags).tobytes()
    ref = np.max(np.abs(panels[2])) / np.median(np.abs(panels[2]))
    smooth = [row for row in figure_checks().rows if "smooth" in row.name]
    assert len(smooth) == 3
    for row, vals in zip(smooth, panels[1::2]):
        mags = np.abs(vals)
        assert row.value == float(np.max(mags) / np.median(mags))
        assert row.threshold == 0.1 * float(ref)


def test_the_peak_rows_allow_half_a_cell():
    # the mesh node nearest x0 = 0.3 is at most half a cell away; x0 is a node of the 1/300 mesh
    peaks = [row for row in figure_checks().rows if "peak" in row.name]
    assert len(peaks) == 2
    assert all(row.passed and row.value <= 1e-12 and row.threshold == 0.5 / 300 for row in peaks)


def test_the_endpoint_jump_bound_is_its_stencil_error_model():
    # 10 x the Richardson estimate from the same scan at 2h: above the clean gap, and within
    # 100 x of it, so a jump a hundred times the stencil error fails the row
    row = next(row for row in suite_compatibility().rows if "endpoint" in row.name)
    assert row.passed and row.value < row.threshold <= 100.0 * row.value
    assert row.detail.startswith("10 x the stencil error")


def test_the_identity_bounds_are_rounding_times_the_condition_of_the_sums():
    # 4 eps (kappa + 2): each of the 48 rows within 100 x its value and under the 1e-13 the
    # identity-rows command asserts; the fixed 1e-6 they replaced sat 1.25e8 above the largest
    rows = suite_identity().rows
    assert len(rows) == 48
    for row in rows:
        assert row.passed and row.value < row.threshold <= 100.0 * row.value, row
        assert row.detail.startswith("4 eps x (kappa + 2), kappa = ")
    assert max(row.threshold for row in rows) <= 1e-13


def test_the_identity_rows_see_the_weight_factor_off_by_1e_12(monkeypatch):
    # mutant: weight_factor scaled by 1 + 1e-12, which passed every row against 1e-6
    import delayheat.diagnostics as diag
    factor = diag.weight_factor
    monkeypatch.setattr(diag, "weight_factor", lambda a, b: factor(a, b) * (1.0 + 1e-12))
    assert [row.name for row in suite_identity().rows if row.passed] == []
