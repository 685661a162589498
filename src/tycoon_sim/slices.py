"""Where a moment in simulated time falls on the timeslice grid."""

import math


def _first_slice_at(t: float, dt: float, limit: int) -> int:
    """The first slice ``j`` with ``j * dt >= t``, or ``limit`` if none
    comes before it: the slice on which ``now = j * dt`` first passes the
    float test that pumps a message, kills a host, activates a seat or
    lands a deposit.  The steps correct ``ceil`` where ``t / dt`` rounds
    across an integer.
    """
    if not t <= (limit - 1) * dt:
        return limit
    j = max(0, math.ceil(t / dt))
    while j > 0 and (j - 1) * dt >= t:
        j -= 1
    while j * dt < t:
        j += 1
    return j
