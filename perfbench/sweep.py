"""Layer sweep: time single layers directly at three sizes each.

Run as ``python sweep.py`` with the package on PYTHONPATH; prints one JSON
object mapping each slope metric to its ``[size, seconds]`` points. Each
point is the best of up to three calls on a fresh object, so no memo is
reused between calls. The sizes span 4x, enough for a log-log slope to
tell k^4 from k^2.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter

from zetaeven.euler_bernoulli import BernoulliTable
from zetaeven.numeric_core import compute_pi
from zetaeven.series_verifier import identity_check_expansion
from zetaeven.zeta_recurrence import ZetaEvenTable

SWEEPS = {
    "zeta_recurrence.table_slope": ((100, 200, 400), lambda k: ZetaEvenTable().ratio(k)),
    "euler_bernoulli.table_slope": ((100, 200, 400), lambda k: BernoulliTable().value(2 * k)),
    "series_verifier.expansion_slope": (
        (12, 25, 50),
        lambda j: identity_check_expansion(1, Fraction(3, 2), j, 50),
    ),
    "numeric_core.pi_slope": ((1000, 4000, 16000), compute_pi),
}


def _best_time(call, size) -> float:
    best, spent = float("inf"), 0.0
    for _ in range(3):
        start = perf_counter()
        call(size)
        elapsed = perf_counter() - start
        best, spent = min(best, elapsed), spent + elapsed
        if spent > 1.0:
            break
    return best


def main() -> int:
    points = {
        metric: [[size, _best_time(call, size)] for size in sizes]
        for metric, (sizes, call) in SWEEPS.items()
    }
    json.dump(points, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
