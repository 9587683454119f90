"""Which flagcsm functions the traced run wraps, what each boundary
counts, and how spans and counts become the per-layer metrics.

Metric names are ``<module>.<function>.<stat>``; see NOTES.md for the
end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import sys
from math import factorial


def _in_terms(args, out):
    return {"in_terms": len(args[0].terms)}


def _out_coeffs(args, out):
    return {"out_terms": len(out.coeffs)}


def _expansion(args, out):
    # nonzero coefficients against the n! permutations the expansion visits
    return {"in_terms": len(args[0].terms), "nonzero": len(out.coeffs),
            "visited": factorial(args[1])}


# (module, function, measure); the span is named "<module>.<function>"
FUNCTIONS = [
    ("csm", "expand_in_csm", _expansion),
    ("csm", "csm_class", None),
    ("schubert", "double_schubert", None),
    ("schubert", "localize", _in_terms),
    ("schubert", "expand_in_schubert",
     lambda args, out: {"nonzero": len(out.coeffs),
                        "visited": factorial(args[1])}),
    ("exact", "divide_exact_linear", _in_terms),
    ("exact", "limit_ratio_at_root", None),
    ("bruhat", "enumerate_paths",
     lambda args, out: {"paths": sum(len(v) for v in out.values())}),
    ("bruhat", "k_edges_from", None),
    ("perm", "cycles_through", None),
    ("symfun", "complete_sym", None),
    ("symfun", "elem_sym", None),
    ("symfun", "schur_hook", None),
    ("symfun", "power_sum", None),
    ("rules", "pieri_hook_csm", _out_coeffs),
    ("rules", "pieri_hook_schubert", _out_coeffs),
    ("rules", "mn_csm", _out_coeffs),
    ("rules", "mn_schubert", _out_coeffs),
    ("rules", "pieri_eh_localized", _out_coeffs),
    ("rht", "y_poly", lambda args, out: {"out_degree": max(out.degree(), 0)}),
    ("rht", "rht_count_limit", None),
    ("rht", "rht_count_maj", lambda args, out: {"counted": out}),
    ("rht", "standard_tableaux_maj", lambda args, out: {"tableaux": len(out)}),
    ("rht", "enumerate_rht", lambda args, out: {"tableaux": len(out)}),
    ("grassmann", "rim_hook_removals", None),
    ("cli", "main", None),
]

RULES = ("pieri_hook_csm", "pieri_hook_schubert", "mn_csm", "mn_schubert",
         "pieri_eh_localized")
SYMFUN = ("complete_sym", "elem_sym", "schur_hook", "power_sum")

# metric -> (span name, stat, unit); stat is calls, self_s or a count key
SPAN_METRICS = {}
for _name, _stats in [
    ("csm.expand_in_csm", ("calls", "self_s", "in_terms")),
    ("csm.csm_class", ("calls", "self_s")),
    ("schubert.double_schubert", ("calls", "self_s")),
    ("exact.divide_exact_linear", ("calls", "self_s", "in_terms")),
    ("exact.MPoly.mul", ("calls", "self_s", "out_terms")),
    ("schubert.localize", ("calls", "self_s", "in_terms")),
    ("schubert.expand_in_schubert", ("calls", "self_s")),
    ("bruhat.enumerate_paths", ("calls", "self_s", "paths")),
    ("bruhat.k_edges_from", ("calls", "self_s")),
    ("perm.cycles_through", ("calls", "self_s")),
    ("rht.y_poly", ("calls", "self_s", "out_degree")),
    ("rht.rht_count_limit", ("self_s",)),
    ("exact.limit_ratio_at_root", ("calls", "self_s")),
    ("rht.rht_count_maj", ("self_s",)),
    ("rht.standard_tableaux_maj", ("self_s", "tableaux")),
    ("rht.enumerate_rht", ("calls", "self_s", "tableaux")),
    ("grassmann.rim_hook_removals", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
] + [("rules." + r, ("calls", "self_s", "out_terms")) for r in RULES]:
    for _stat in _stats:
        SPAN_METRICS["%s.%s" % (_name, _stat)] = (
            _name, _stat, "s" if _stat == "self_s" else "count")

CACHES = [
    ("cache.schub_entries", "flagcsm.schubert", "_SCHUB_CACHE"),
    ("cache.csm_entries", "flagcsm.csm", "_CSM_CACHE"),
    ("cache.loc_entries", "flagcsm.schubert", "_LOC_TABLE"),
]


def install(tracer):
    """Wrap every traced function; names that no longer exist are skipped,
    so their metrics read zero."""
    from flagcsm.exact import MPoly

    for module, func, measure in FUNCTIONS:
        tracer.wrap_function("flagcsm." + module, func,
                             "%s.%s" % (module, func), measure)
    tracer.wrap_method(MPoly, ("__mul__", "__rmul__"), "exact.MPoly.mul",
                       lambda args, out: {"out_terms": len(out.terms)})
    # counted, not timed: its time belongs to csm_class (the table) or to
    # expand_in_csm (the unpacked fallback)
    tracer.wrap_function("flagcsm.csm", "dl_operator", "csm.dl_operator",
                         span=False)


def cache_metrics():
    """Entry counts of the module caches (two-level dicts keyed by n) and
    the polynomial terms they hold.  A cache that no longer exists, or no
    longer has that layout, is left out: its metric reads as absent."""
    out = {}
    held = None
    for metric, module, attr in CACHES:
        cache = getattr(sys.modules.get(module), attr, None)
        try:
            tables = list(cache.values())
            out[metric] = sum(len(t) for t in tables)
            terms = sum(len(getattr(p, "terms", ())) for t in tables
                        for p in t.values())
        except (AttributeError, TypeError):
            out.pop(metric, None)
            continue
        held = terms if held is None else held + terms
    if held is not None:
        out["cache.terms_held"] = held
    return out


def metrics(tracer):
    """Per-layer metrics as {name: (value, unit)}."""
    summary = tracer.summary()
    counts = tracer.counts

    def stat(name, key):
        if key in ("calls", "self_s"):
            return summary.get(name, {}).get(key, 0)
        return counts[name][key] if name in counts else 0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, (name, key, unit) in SPAN_METRICS.items():
        out[metric] = (stat(name, key), unit)
    for name in ("csm.expand_in_csm", "schubert.expand_in_schubert"):
        out[name + ".nonzero_ratio"] = (
            ratio(stat(name, "nonzero"), stat(name, "visited")), "ratio")
    out["csm.expand_in_csm.unpacked_steps"] = (
        stat("csm.dl_operator", "under csm.expand_in_csm"), "count")
    out["symfun.calls"] = (sum(stat("symfun." + f, "calls") for f in SYMFUN),
                           "count")
    out["symfun.self_s"] = (sum(stat("symfun." + f, "self_s")
                                for f in SYMFUN), "s")
    # zero counts still enumerate their tableaux: count them as one
    out["rht.maj_tableaux_per_count"] = (
        ratio(stat("rht.standard_tableaux_maj", "tableaux"),
              max(stat("rht.rht_count_maj", "counted"), 1)), "ratio")
    for metric, value in cache_metrics().items():
        out[metric] = (value, "count")
    return out
