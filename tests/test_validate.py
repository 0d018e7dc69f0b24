"""The validate module's own inputs: its deterministic test fields and the figure suite's median."""

import numpy as np
import pytest

from delayheat.validate import _SEED, _test_field, figure_checks, figure_panels


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
    _, panels = figure_panels(nx=300)
    for vals in panels.values():
        mags = np.abs(vals)
        assert mags.size == 301
        assert np.partition(mags, 150)[150].tobytes() == np.median(mags).tobytes()
    ref = np.max(np.abs(panels[1.0])) / np.median(np.abs(panels[1.0]))
    smooth = [row for row in figure_checks().rows if "smooth" in row.name]
    assert len(smooth) == 3
    for row, t in zip(smooth, (0.5, 1.5, 2.5)):
        mags = np.abs(panels[t])
        assert row.value == float(np.max(mags) / np.median(mags))
        assert row.threshold == 0.1 * float(ref)
