"""Exact even zeta values zeta(2k) as rational multiples of pi^(2k).

The recurrence route (zeta_even_ratio) and the Bernoulli-number route
(zeta_even_via_euler) are computed independently and must agree exactly;
series_verifier checks the analytic identities behind the recurrence
numerically with explicit error bounds.

The package exports exactly what its runtime modules declare in their
``__all__``; ``powerseries`` (a test oracle) and ``cli`` stay out.
"""

from . import euler_bernoulli, numeric_core, reports, series_verifier, zeta_recurrence
from .euler_bernoulli import *  # noqa: F403
from .numeric_core import *  # noqa: F403
from .reports import *  # noqa: F403
from .series_verifier import *  # noqa: F403
from .zeta_recurrence import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (euler_bernoulli, numeric_core, reports, series_verifier, zeta_recurrence)
    for name in module.__all__
]
