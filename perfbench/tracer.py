"""Traced CLI run: spans around every public function of the zetaeven layers.

Run as ``python tracer.py SPANS_OUT OP_ID CLI_ARG...`` with the package on
PYTHONPATH. It wraps every name in each layer module's ``__all__`` (public
methods, for classes) and rebinds the copies other modules hold through
``from .x import y``, then calls ``zetaeven.cli.main`` with the CLI
arguments. The package itself is not edited. Spans stay in memory and are
written to SPANS_OUT as JSON when the CLI returns or raises.

A span is ``[name, start, end, parent, info]``: ``name`` is
``layer.function``, ``parent`` the index of the enclosing span or -1, and
``info`` the counts read off the call's arguments and return value.
``summarize`` turns the span files of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from decimal import Decimal
from time import perf_counter

LAYERS = (
    "cli",
    "zeta_recurrence",
    "euler_bernoulli",
    "series_verifier",
    "powerseries",
    "numeric_core",
    "reports",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _ratio_before(args, kwargs):
    return args[0].max_k


def _ratio_info(before, args, kwargs, result):
    digits = len(str(result.numerator)) + len(str(result.denominator))
    return {"new": args[0].max_k - before, "digits": digits}


def _bernoulli_info(before, args, kwargs, result):
    return {"n": args[1]}


def _pi_info(before, args, kwargs, result):
    return {"digits": _arg(args, kwargs, 0, "digits")}


def _phi_series_info(before, args, kwargs, result):
    precision = _arg(args, kwargs, 2, "precision", 50)
    return {"terms": result.terms_used, "loose": result.error_bound.value > Decimal(1).scaleb(-precision)}


def _expansion_info(before, args, kwargs, result):
    return {"terms": result.parameters["lhs_terms"]}


def _abel_info(before, args, kwargs, result):
    return {"terms": sum(int(t) for t in result.parameters["terms"].split(","))}


def _report_info(before, args, kwargs, result):
    return {"failed": not args[0].passed}


def _length_info(before, args, kwargs, result):
    return {"len": len(result)}


# Counts taken at the layer boundary, keyed by span name: an optional hook
# run before the call, and one that reads the arguments and the result.
HOOKS = {
    "zeta_recurrence.ZetaEvenTable.ratio": (_ratio_before, _ratio_info),
    "euler_bernoulli.BernoulliTable.value": (None, _bernoulli_info),
    "numeric_core.compute_pi": (None, _pi_info),
    "series_verifier.phi_series": (None, _phi_series_info),
    "series_verifier.identity_check_expansion": (None, _expansion_info),
    "series_verifier.abel_limit_check": (None, _abel_info),
    "reports.VerificationReport.__post_init__": (None, _report_info),
    **{
        f"powerseries.{name}": (None, _length_info)
        for name in ("series_mul", "series_recip", "series_div", "exp_series", "scaled_exp_series")
    },
}


class Tracer:
    """Span recorder for one process; spans nest by call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        before_hook, info_hook = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = before_hook(args, kwargs) if before_hook else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info_hook:
                span[4] = info_hook(before, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer and rebind all copies."""
    modules = {layer: importlib.import_module(f"zetaeven.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name in module.__all__:
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exported stdlib names such as ExactRational
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                _wrap_methods(tracer, layer, obj)
    for module in (*modules.values(), importlib.import_module("zetaeven")):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])


def _wrap_methods(tracer: Tracer, layer: str, cls: type) -> None:
    for attr, member in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{attr}"
        if attr.startswith("_") and name not in HOOKS:
            continue
        if isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(tracer.wrap(name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, member))


def summarize(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the span files of its operations."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts = dict.fromkeys(
        ("ratios", "ratio_digits", "bernoulli_max_n", "coeffs_computed", "phi_terms",
         "loose", "reciprocal_terms", "pi_digits", "pi_repeats", "reports", "failed"), 0)
    for doc in docs:
        spans = doc["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        pi_seen = set()
        for i, (name, start, end, parent, info) in enumerate(spans):
            layer = name.split(".", 1)[0]
            for key in (layer, name):
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + (end - start - child_s[i])
            if info is None:
                continue
            if name == "zeta_recurrence.ZetaEvenTable.ratio":
                counts["ratios"] += info["new"]
                counts["ratio_digits"] = max(counts["ratio_digits"], info["digits"])
            elif name == "euler_bernoulli.BernoulliTable.value":
                counts["bernoulli_max_n"] = max(counts["bernoulli_max_n"], info["n"])
            elif layer == "powerseries":
                if parent < 0 or not spans[parent][0].startswith("powerseries."):
                    counts["coeffs_computed"] += info["len"]
            elif name == "series_verifier.phi_series":
                counts["phi_terms"] += info["terms"]
                counts["loose"] += info["loose"]
            elif name == "numeric_core.compute_pi":
                counts["pi_digits"] += info["digits"]
                counts["pi_repeats"] += info["digits"] in pi_seen
                pi_seen.add(info["digits"])
            elif name.startswith("reports."):
                counts["reports"] += 1
                counts["failed"] += info["failed"]
            else:  # identity_check_expansion and abel_limit_check
                counts["reciprocal_terms"] += info["terms"]

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    sv = "series_verifier."
    pi_calls = calls.get("numeric_core.compute_pi", 0)
    taylor_calls = calls.get(sv + "phi_taylor_coeff", 0)
    metrics.update({
        "zeta_recurrence.ratios": counts["ratios"],
        "zeta_recurrence.ratio_digits": counts["ratio_digits"],
        "euler_bernoulli.bernoulli_max_n": counts["bernoulli_max_n"],
        "powerseries.series_div.calls": calls.get("powerseries.series_div", 0),
        "powerseries.coeffs_computed": counts["coeffs_computed"],
        # every coefficient handed to phi_taylor_coeff's callers, over all
        # the layer computed for them; 1 when it computed none (no waste)
        "powerseries.coeff_yield": (
            taylor_calls / counts["coeffs_computed"] if counts["coeffs_computed"] else 1.0
        ),
        sv + "phi_taylor_coeff.self_s": self_s.get(sv + "phi_taylor_coeff", 0.0),
        sv + "identity_check_expansion.self_s": self_s.get(sv + "identity_check_expansion", 0.0),
        sv + "phi_series.calls": calls.get(sv + "phi_series", 0),
        sv + "phi_series.terms": counts["phi_terms"],
        sv + "phi_series.self_s": self_s.get(sv + "phi_series", 0.0),
        sv + "phi_series.loose_bounds": counts["loose"],
        sv + "abel_limit_check.self_s": self_s.get(sv + "abel_limit_check", 0.0),
        sv + "eta_partial.self_s": self_s.get(sv + "eta_partial", 0.0),
        sv + "reciprocal_terms": counts["reciprocal_terms"],
        "numeric_core.compute_pi.calls": pi_calls,
        "numeric_core.compute_pi.digits": counts["pi_digits"],
        "numeric_core.compute_pi.repeat_share": counts["pi_repeats"] / pi_calls if pi_calls else 0.0,
        "reports.reports": counts["reports"],
        "reports.failed": counts["failed"],
    })
    return metrics


def main(argv: list[str]) -> int:
    out_path, op_id, *cli_args = argv
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("zetaeven.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w") as out:
            json.dump({"op": op_id, "spans": tracer.spans}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
