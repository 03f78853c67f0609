"""Exact even zeta values zeta(2k) as rational multiples of pi^(2k).

The recurrence route (zeta_even_ratio) and the Bernoulli-number route
(zeta_even_via_euler) are computed independently and must agree exactly;
series_verifier checks the analytic identities behind the recurrence
numerically with explicit error bounds.
"""

from .euler_bernoulli import (
    BernoulliTable,
    EulerPolynomial,
    bernoulli,
    euler_polynomial,
    euler_polynomial_eval,
    zeta_even_via_euler,
)
from .numeric_core import (
    HighPrecisionReal,
    PiAgreementError,
    binomial,
    compute_pi,
    positional_str,
    round_significant,
)
from .reports import VerificationReport
from .series_verifier import (
    SUITES,
    PhiEvaluation,
    SeriesBudgetError,
    abel_limit_check,
    direct_zeta_partial,
    eta_partial,
    identity_check_expansion,
    phi_coefficients,
    phi_series,
    phi_taylor_coeff,
    run_suite,
)
from .zeta_recurrence import (
    ZetaEvenTable,
    recurrence_cross_check,
    zeta_even_decimal,
    zeta_even_ratio,
    zeta_even_table,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliTable",
    "EulerPolynomial",
    "HighPrecisionReal",
    "PhiEvaluation",
    "PiAgreementError",
    "SUITES",
    "SeriesBudgetError",
    "VerificationReport",
    "ZetaEvenTable",
    "abel_limit_check",
    "bernoulli",
    "binomial",
    "compute_pi",
    "direct_zeta_partial",
    "eta_partial",
    "euler_polynomial",
    "euler_polynomial_eval",
    "identity_check_expansion",
    "phi_coefficients",
    "phi_series",
    "phi_taylor_coeff",
    "positional_str",
    "recurrence_cross_check",
    "round_significant",
    "run_suite",
    "zeta_even_decimal",
    "zeta_even_ratio",
    "zeta_even_table",
    "zeta_even_via_euler",
]
