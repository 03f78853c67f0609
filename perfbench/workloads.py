"""Seeded operation lists for the benchmark workloads.

Every operation is one ``python -m zetaeven`` invocation; the program sees
only its argv. Each size drawn from the seed comes as a pair mirrored
around a fixed centre (centre + d and centre - d) inside one metric class.
Costs grow like k^4, J^3 or digits^2, and a mirrored pair cancels the
first-order change, so the seed changes the inputs while the work summed
into each class metric stays nearly the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

EXACT, VERIFY, DECIMAL, PROBE = "exact", "verify", "decimal", "probe"
CLASSES = (EXACT, VERIFY, DECIMAL)

# Wall-clock budget of one operation; past it the child is killed and the
# operation counts as failed. The largest seeded operation takes about 1.3 s.
OP_BUDGET_S = 30.0
PROBE_BUDGET_S = 3.0

JSON = ("--format", "json-lines")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what counts as a right outcome for it.

    ``expect`` is "answer" (exit 0 with checked output), "error" (exit 2
    with a one-line message) or "either".
    """

    id: str
    argv: tuple[str, ...]
    cls: str
    expect: str = "answer"
    budget_s: float = OP_BUDGET_S


def _pair(rng: random.Random, centre: int, spread: int) -> tuple[int, int]:
    d = rng.randint(0, spread)
    return centre + d, centre - d


def _rational_u(rng: random.Random, low: Fraction, high: Fraction) -> Fraction:
    """A rational u with low < u <= high and a denominator of at most 8."""
    q = rng.randint(2, 8)
    p = rng.randint(int(low * q) + 1, int(high * q))
    return Fraction(p, q)


def _exact_tables(rng: random.Random) -> list[tuple]:
    hi, lo = _pair(rng, 110, 6)
    ops = [(EXACT, "zeta", "--kmax", hi, "--exact", *JSON), (EXACT, "zeta", "--k", lo, "--exact", *JSON)]
    for k in _pair(rng, 110, 6):
        ops.append((VERIFY, "verify", "--suite", "recurrence", "--kmax", k, *JSON))
    for k in _pair(rng, 110, 6):
        ops.append((EXACT, "bernoulli", "--n", 2 * k, *JSON))
    for k in _pair(rng, 55, 5):
        ops.append((EXACT, "zeta", "--k", k, "--exact", *JSON))
    digits = rng.randint(30, 60)
    for centre in (20, 40):
        for k in _pair(rng, centre, 5):
            ops.append((DECIMAL, "zeta", "--k", k, "--digits", digits, *JSON))
    return ops


def _expansion_checks(rng: random.Random) -> list[tuple]:
    ops = []
    for centre, spread in ((20, 2), (12, 1)):
        for j in _pair(rng, centre, spread):
            ops.append((VERIFY, "verify", "--suite", "expansion", "--jmax", j, *JSON))
    for u in (_rational_u(rng, Fraction(1), Fraction(4)) for _ in range(2)):
        for m in _pair(rng, 36, 3):
            ops.append((EXACT, "phi", "--route", "taylor", "--m", m, "--u", u, *JSON))
        for m in _pair(rng, 20, 8):
            ops.append((DECIMAL, "phi", "--route", "series", "--m", m, "--u", u, "--digits", 30))
    return ops


def _certified_decimals(rng: random.Random) -> list[tuple]:
    ops = [(VERIFY, "verify", "--suite", "all", *JSON)]
    for d in _pair(rng, 24, 4):
        ops.append((VERIFY, "verify", "--suite", "phi", "--digits", d, *JSON))
    for d in _pair(rng, 32, 6):
        ops.append((VERIFY, "verify", "--suite", "abel", "--digits", d, *JSON))
    for d in _pair(rng, 1500, 200):
        ops.append((DECIMAL, "zeta", "--kmax", 8, "--digits", d, *JSON))
    m = rng.randint(0, 3)
    for m, n in zip((m, 3 - m), _pair(rng, 1000, 200)):  # u = 1 + 1/n: a series of ~10^5 terms
        ops.append((DECIMAL, "phi", "--route", "series", "--m", m, "--u", Fraction(n + 1, n), "--digits", 50))
    u = _rational_u(rng, Fraction(3), Fraction(4))
    for m in _pair(rng, 10, 3):  # u far from 1: a short series
        ops.append((DECIMAL, "phi", "--route", "series", "--m", m, "--u", u, "--digits", 50))
    for centre in (12, 20, 28):  # small k, asked for many times
        for k in _pair(rng, centre, 4):
            ops.append((EXACT, "zeta", "--k", k, "--exact", *JSON))
    return ops


# Inputs that have no answer, or none within a small budget, on the seed
# program. Each must end in exit 2 with a one-line message; the last may
# instead be answered correctly.
PROBES = (
    Op("probe-1", ("phi", "--m", "1", "--u", "1/0"), PROBE, "error", PROBE_BUDGET_S),
    Op("probe-2", ("zeta", "--kmax", "0"), PROBE, "error", PROBE_BUDGET_S),
    Op("probe-3", ("verify", "--suite", "phi", "--tolerance", "nan"), PROBE, "error", PROBE_BUDGET_S),
    Op("probe-4", ("verify", "--suite", "expansion", "--tolerance", "abc"), PROBE, "error", PROBE_BUDGET_S),
    Op("probe-5", ("phi", "--m", "-2", "--u", "1.000000001", "--digits", "50"), PROBE, "either", PROBE_BUDGET_S),
)

WORKLOADS = {
    "exact-tables": (_exact_tables, ()),
    "expansion-checks": (_expansion_checks, ()),
    "certified-decimals": (_certified_decimals, PROBES),
}


def generate(workload: str, seed: int) -> tuple[list[Op], tuple[Op, ...]]:
    """The workload's operations in run order, and its edge probes."""
    build, probes = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    specs = build(rng)
    rng.shuffle(specs)
    ops = [
        Op(f"op-{i}", tuple(str(a) for a in spec[1:]), spec[0])
        for i, spec in enumerate(specs, 1)
    ]
    return ops, probes
