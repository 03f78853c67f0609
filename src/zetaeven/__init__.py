"""Exact even zeta values zeta(2k) as rational multiples of pi^(2k).

The recurrence route (zeta_even_ratio) and the Bernoulli-number route
(zeta_even_via_euler) are computed independently and must agree exactly;
series_verifier checks the analytic identities behind the recurrence
numerically with explicit error bounds.

The package exports exactly what its runtime modules declare in their
``__all__``; ``powerseries`` (a test oracle) and ``cli`` stay out.

The exports are lazy (PEP 562): importing the package, or ``zetaeven.cli``,
imports none of the runtime modules. The first access to a public name,
to a runtime module's name, to ``__all__`` or to ``dir()`` -- and so
``from zetaeven import *`` too -- imports all five and binds their
exports here, in the order of ``_LAYERS``, as the star-imports did. From
then on the names are plain module attributes: ``zetaeven.bernoulli`` is
``zetaeven.euler_bernoulli.bernoulli``. A command of the CLI imports only
the modules it runs.
"""

__version__ = "0.1.0"

_LAYERS = ("euler_bernoulli", "numeric_core", "reports", "series_verifier", "zeta_recurrence")


def _export() -> None:
    """Import the runtime modules and bind their exports here, once."""
    namespace = globals()
    if "__all__" in namespace:
        return
    names = []
    for layer in _LAYERS:
        __import__(f"{__name__}.{layer}")  # binds the module here
        module = namespace[layer]
        namespace.update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    namespace["__all__"] = names  # last: its presence means every name is bound


def __getattr__(name: str):
    if name == "__all__" or not name.startswith("_"):
        _export()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _export()
    return sorted(globals())
