"""A fixed task that gauges how fast the machine runs the CLI's kind of work.

    python3 perfbench/reference.py

It starts an interpreter, imports what the CLI imports, builds Bernoulli
numbers with Fractions and computes pi in fixed point with big integers:
the mix of start-up, rational and big-integer work that the zetaeven
operations do, without importing zetaeven. Its time changes only with the
machine, so run.py scales each run's times by it. It prints one
JSON line, the same on every run.
"""

import argparse
import json
from decimal import Decimal, localcontext
from fractions import Fraction

BERNOULLI_N = 170
PI_DIGITS = 2000


def bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n (with B_1 = +1/2) by the Akiyama-Tanigawa algorithm."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def arctan_inv(x: int, one: int) -> int:
    """one * arctan(1/x), in fixed point with unit ``one``."""
    total = term = one // x
    x2, k, sign = x * x, 1, -1
    while term:
        term //= x2
        total += sign * (term // (2 * k + 1))
        sign, k = -sign, k + 1
    return total


def pi_decimal(digits: int) -> Decimal:
    """pi to ``digits`` significant digits, by Machin's formula."""
    one = 10 ** (digits + 10)
    pi = 4 * (4 * arctan_inv(5, one) - arctan_inv(239, one))
    with localcontext() as ctx:
        ctx.prec = digits
        return +(Decimal(pi) / one)


def main() -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    b = bernoulli(BERNOULLI_N)
    pi = pi_decimal(PI_DIGITS)
    print(json.dumps({"B_%d" % BERNOULLI_N: str(b[-1]), "pi_tail": str(pi)[-20:]}))


if __name__ == "__main__":
    main()
