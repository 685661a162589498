"""Where a moment in simulated time falls on the timeslice grid."""

from hypothesis import example, given
from hypothesis import strategies as st

from tycoon_sim import slices


@given(st.floats(0.0, 100.0), st.floats(1e-4, 1.0))
# 0.07 / 0.01 rounds up past 7, though 7 * 0.01 == 0.07; and
# 0.030000000000000002 / 0.01 rounds down to 3, though 3 * 0.01 == 0.03.
@example(0.07, 0.01)
@example(0.030000000000000002, 0.01)
def test_first_slice_at_is_the_first_slice_the_float_test_reaches(t, dt):
    limit = 10**7
    j = slices._first_slice_at(t, dt, limit)
    assert j * dt >= t
    assert j == 0 or (j - 1) * dt < t
    assert slices._first_slice_at(t, dt, j) == j
    assert slices._first_slice_at(t, dt, j + 1) == j
