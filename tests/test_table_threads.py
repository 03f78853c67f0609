"""The memo tables extend safely when several threads ask at once.

``ZetaEvenTable`` and ``BernoulliTable`` serialize extension behind a
lock. Here 8 threads race to extend one fresh table, with the
interpreter switching threads every microsecond, and every value they
read, and the table left behind, must equal a table built in one thread.
The series kernel's one scaled-weight list (``_cvz_scaled``) is raced
the same way through ``phi_series``.
"""

import sys
import threading
from fractions import Fraction

import pytest

from zetaeven import series_verifier
from zetaeven.euler_bernoulli import BernoulliTable
from zetaeven.zeta_recurrence import ZetaEvenTable

THREADS = 8


def race(make_table, read, snapshot, indices, rounds):
    """Run ``rounds`` races of THREADS threads over a fresh table each.

    Thread t reads ``indices[t::THREADS]`` in order, so the threads
    extend the table in turns. Returns the first wrong round, or None.
    """
    sequential = make_table()
    expected_reads = [[read(sequential, i) for i in indices[t::THREADS]] for t in range(THREADS)]
    expected_table = snapshot(sequential)

    def run_round():
        table = make_table()
        start = threading.Barrier(THREADS)
        reads = [None] * THREADS

        def work(t):
            start.wait()
            try:
                reads[t] = [read(table, i) for i in indices[t::THREADS]]
            except Exception as exc:  # a torn table may index past its end
                reads[t] = exc

        threads = [threading.Thread(target=work, args=(t,)) for t in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return reads, snapshot(table)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for number in range(rounds):
            if run_round() != (expected_reads, expected_table):
                return number
    finally:
        sys.setswitchinterval(interval)
    return None


@pytest.mark.parametrize(
    "make_table, read, snapshot, indices, rounds",
    (
        (ZetaEvenTable, ZetaEvenTable.ratio, ZetaEvenTable.ratios, range(1, 81), 20),
        (BernoulliTable, BernoulliTable.value, lambda table: table.values, range(0, 241, 2), 30),
    ),
    ids=("zeta", "bernoulli"),
)
def test_racing_threads_build_the_sequential_table(make_table, read, snapshot, indices, rounds):
    assert race(make_table, read, snapshot, list(indices), rounds) is None


# m-major, so threads next to each other sum one kernel shape at several
# u: the list is read, rebuilt for a longer sum and replaced by a new
# shape while other threads use it
PHI_CASES = [(m, u) for m in (-3, 0, 4, 9) for u in map(Fraction, ("11/10", "3/2", "2", "3"))]


def fresh_kernel_cache():
    series_verifier._cvz_cache = None


def read_phi(_, i):
    return series_verifier.phi_series(*PHI_CASES[i % len(PHI_CASES)], 20)


def test_racing_threads_share_the_kernel_weights(monkeypatch):
    monkeypatch.setattr(series_verifier, "_cvz_cache", None)
    indices = list(range(2 * len(PHI_CASES)))
    assert race(fresh_kernel_cache, read_phi, lambda _: None, indices, 20) is None
