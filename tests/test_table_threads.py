"""The memo tables extend safely when several threads ask at once.

``ZetaEvenTable`` and ``BernoulliTable`` serialize extension behind the
lock of their base, ``numeric_core._ExactTable``. Here 8 threads race to
extend one fresh table, with the interpreter switching threads every
microsecond, and every value or unreduced pair they read, and the table
left behind, must equal a table built in one thread.
The series kernel's one scaled-weight list (``_cvz_scaled``) is raced
the same way through ``phi_series``, and so are the decimal contexts
that every thread shares (``numeric_core._context``): created on first
use, read by all, changed by none.
"""

import sys
import threading
from fractions import Fraction

import pytest

from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal

from zetaeven import numeric_core, series_verifier
from zetaeven.euler_bernoulli import BernoulliTable
from zetaeven.numeric_core import _rational_decimal, round_significant
from zetaeven.series_verifier import SUITES, run_suite
from zetaeven.zeta_recurrence import ZetaEvenTable, zeta_even_decimal

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


# Thread t reads the indices at positions t, t + 8, t + 16, ..., which
# share their residue mod 8 (mod 16 for the even Bernoulli indices): the
# threads of four residues read unreduced pairs, the other four values,
# so no pair a thread reads is one that another reduces.
def zeta_pair_or_ratio(table, k):
    return table._pair(k - 1) if k % 8 < 4 else table.ratio(k)


def bernoulli_pair_or_value(table, n):
    return table._pair(n) if n % 16 < 8 else table.value(n)


@pytest.mark.parametrize(
    "make_table, read, snapshot, indices, rounds",
    (
        (ZetaEvenTable, ZetaEvenTable.ratio, ZetaEvenTable.ratios, range(1, 81), 20),
        (BernoulliTable, BernoulliTable.value, lambda table: table.values, range(0, 241, 2), 30),
        # high indices first: the first read extends the whole table, and
        # the others race to build the values it left unbuilt
        (ZetaEvenTable, ZetaEvenTable.ratio, ZetaEvenTable.ratios, range(80, 0, -1), 20),
        (BernoulliTable, BernoulliTable.value, lambda table: table.values, range(240, -1, -2), 30),
        # half the threads read pairs, which extend the table too
        (ZetaEvenTable, zeta_pair_or_ratio, ZetaEvenTable.ratios, range(1, 81), 20),
        (BernoulliTable, bernoulli_pair_or_value, lambda table: table.values, range(0, 241, 2), 30),
        (ZetaEvenTable, zeta_pair_or_ratio, ZetaEvenTable.ratios, range(80, 0, -1), 20),
        (BernoulliTable, bernoulli_pair_or_value, lambda table: table.values, range(240, -1, -2), 30),
    ),
    ids=(
        "zeta", "bernoulli", "zeta-high-first", "bernoulli-high-first",
        "zeta-pairs", "bernoulli-pairs", "zeta-pairs-high-first", "bernoulli-pairs-high-first",
    ),
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


# each a call whose decimal result comes from a shared context: several
# precisions, and each rounding mode the package uses
DECIMAL_CASES = [
    *((series_verifier.phi_series, (m, Fraction(u), digits))
      for m, u, digits in ((-2, "11/10", 12), (3, "3/2", 20), (7, "2", 31), (0, "3", 24))),
    *((zeta_even_decimal, (k, digits)) for k, digits in ((1, 15), (3, 40), (6, 24))),
    *((round_significant, (Decimal("2.718281828459045235360287471352662497757"), digits))
      for digits in (3, 11, 24, 31)),
    *((_rational_decimal, (Fraction(-22, 7), digits, rounding))
      for digits in (12, 20, 31)
      for rounding in (ROUND_HALF_EVEN, ROUND_CEILING, ROUND_FLOOR)),
]


def fresh_contexts():
    # the threads then race to create the contexts as well as to read them
    numeric_core._context.cache_clear()
    series_verifier._cvz_cache = None


def read_decimal(_, i):
    function, args = DECIMAL_CASES[i % len(DECIMAL_CASES)]
    return function(*args)


def test_racing_threads_share_the_decimal_contexts(monkeypatch):
    monkeypatch.setattr(series_verifier, "_cvz_cache", None)
    indices = list(range(2 * len(DECIMAL_CASES)))
    assert race(fresh_contexts, read_decimal, lambda _: None, indices, 300) is None


def test_cached_contexts_keep_their_settings(monkeypatch):
    # every suite and every case above reads the shared contexts; none may
    # change the precision or rounding of its key, or the base's traps and
    # exponent range. A wrapper records each context handed out; the cache
    # starts empty, so none is evicted before it is compared.
    cached = numeric_core._context
    cached.cache_clear()
    handed_out = []

    def recording(prec, rounding):
        ctx = cached(prec, rounding)
        handed_out.append(((prec, rounding), ctx))
        return ctx

    monkeypatch.setattr(numeric_core, "_context", recording)
    for name in SUITES:
        run_suite(name, digits=20)
    for function, args in DECIMAL_CASES:
        function(*args)
    base = numeric_core._BASE_CONTEXT
    assert len(dict(handed_out)) > 10
    for (prec, rounding), ctx in handed_out:
        assert ctx is cached(prec, rounding), (prec, rounding)
        assert (ctx.prec, ctx.rounding) == (prec, rounding)
        assert (ctx.Emin, ctx.Emax) == (base.Emin, base.Emax)
        assert ctx.traps == base.traps, (prec, rounding)
