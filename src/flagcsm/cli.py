"""Command-line front end.

Subcommands: pieri, mn, graph, rht, grassmann, scan-positivity.  Exit
codes partition the failure modes: 2 malformed flags, 3 domain errors
(shape overflow and friends, inputs refused up front for their size), 4
invariant violations (counting methods disagreeing, or one failing its
exact arithmetic), 5 conjecture violations found by a scan.

Output is byte-deterministic: tables sort endpoints by one-line
notation, polynomials print in the canonical term order, and JSON uses
a fixed schema {basis, equivariant, diagonal, terms:[{perm, coeff}]}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from itertools import combinations

from .exact import canonical_str
from .perm import Permutation, beads_to_partition

__all__ = [
    "EXIT_USAGE", "EXIT_DOMAIN", "EXIT_INVARIANT", "EXIT_CONJECTURE",
    "DomainError", "MN_MAX_CYCLES", "MN_MAX_TERMS", "GRAPH_MAX_N",
    "PARTITION_GRAPH_MAX_SHAPES", "RHT_ENUMERATE_MAX_NODES",
    "GRASSMANN_MN_MAX_TERMS", "SCAN_MAX_N", "main"
]

EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INVARIANT = 4
EXIT_CONJECTURE = 5


class DomainError(ValueError):
    pass


def _parse_perm(text, n):
    try:
        u = Permutation.parse(text)
    except ValueError as exc:
        raise DomainError(str(exc))
    if u.n != n:
        raise DomainError("permutation %s is not in S_%d" % (text, n))
    return u


def _check_k(k, n):
    if not 1 <= k < n:
        raise DomainError("need 1 <= k < n, got k=%d n=%d" % (k, n))


def _check_hook(alpha, beta):
    if alpha < 0 or beta < 0:
        raise DomainError("alpha and beta must be nonnegative")


def _render_expansion(out, u, coh, fmt, header):
    diag = coh.coeffs.get(u)
    diag_str = canonical_str(diag) if diag is not None else "0"
    terms = [(str(w), canonical_str(c)) for w, c in coh.items_sorted()
             if w != u]
    if fmt == "json":
        doc = {
            "basis": coh.basis,
            "equivariant": coh.equivariant,
            "diagonal": diag_str,
            "terms": [{"perm": p, "coeff": c} for p, c in terms],
        }
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    out.write("# %s\n" % header)
    out.write("diagonal %s %s\n" % (u, diag_str))
    for p, c in terms:
        out.write("%s %s\n" % (p, c))


def cmd_pieri(args, out):
    from .rules import pieri_hook_csm, pieri_hook_schubert

    _check_k(args.k, args.n)
    u = _parse_perm(args.u, args.n)
    _check_hook(args.alpha, args.beta)
    if args.beta + 1 > args.k:
        raise DomainError("hook leg %d too tall for k=%d" % (args.beta, args.k))
    equivariant = args.equivariant == "on"
    rule = pieri_hook_csm if args.basis == "csm" else pieri_hook_schubert
    coh = rule(u, args.k, (args.alpha, args.beta), equivariant)
    header = "pieri n=%d k=%d u=%s alpha=%d beta=%d basis=%s equivariant=%s" \
        % (args.n, args.k, u, args.alpha, args.beta, args.basis,
           args.equivariant)
    _render_expansion(out, u, coh, args.format, header)
    return 0


# The MN rules test every candidate cycle of length 2..r+1 in S_n, about
# 6 us each (2-core VM): the 703,604 at n = 12, r = 6 take 4-5 s.
MN_MAX_CYCLES = 2_000_000
# An equivariant cycle of length m prints h_{r-m+1} on m values, at most
# C(r, m-1) terms, about 1 us and 7 bytes each (2-core VM): a bound of
# 2,505,760 (n = 5, r = 40) took 2.4 s at 98 MB.  n = 12, r = 6 stays in.
MN_MAX_TERMS = 2_000_000


def _refuse_over(cap, bound, command, unit):
    """Refuse an input up front when a bound on its size exceeds cap."""
    if bound > cap:
        raise DomainError("%s supports at most %d %s: this input would take "
                          "up to %d" % (command, cap, unit, bound))


def cmd_mn(args, out):
    from .rules import mn_csm, mn_schubert

    _check_k(args.k, args.n)
    u = _parse_perm(args.u, args.n)
    if args.r < 1:
        raise DomainError("r must be positive")
    _refuse_over(MN_MAX_CYCLES, sum(
        math.comb(args.n, m) * math.factorial(m - 1)
        for m in range(2, min(args.r + 1, args.n) + 1)), "mn",
        "candidate cycles")
    equivariant = args.equivariant == "on"
    if equivariant:
        _refuse_over(MN_MAX_TERMS, sum(
            math.comb(args.n, m) * math.factorial(m - 1)
            * math.comb(args.r, m - 1)
            for m in range(2, min(args.r + 1, args.n) + 1)), "mn", "terms")
    rule = mn_csm if args.basis == "csm" else mn_schubert
    coh = rule(u, args.k, args.r, equivariant)
    header = "mn n=%d k=%d u=%s r=%d basis=%s equivariant=%s" \
        % (args.n, args.k, u, args.r, args.basis, args.equivariant)
    _render_expansion(out, u, coh, args.format, header)
    return 0


# The S_n graph's DOT text grows about tenfold per step in n (15 MB at 8).
GRAPH_MAX_N = 8
# The partition graph has C(n, k) vertices: C(16, 8) = 12,870 wrote 27 MB in
# 3.1 s at 125 MB, C(17, 8) = 24,310 59 MB in 7.5 s at 246 MB (2-core VM).
# `grassmann --op pieri` steps through the same shapes, layer by layer: at
# lam = 0 the slowest allowed cases took 7.6-10.0 s at 174-204 MB, k = 7,
# n = 17 (hooks (9,6), (4,3)), k = 6, n = 18 ((11,5), (5,3)) and k = 5,
# n = 20 ((7,4)).  A thin rectangle costs more per shape: k = 2, n = 100
# (4,950 shapes), hook (3,1), took 21 s at 188 MB.
PARTITION_GRAPH_MAX_SHAPES = 20_000


def cmd_graph(args, out):
    _check_k(args.k, args.n)
    if args.partitions:
        _refuse_over(PARTITION_GRAPH_MAX_SHAPES, math.comb(args.n, args.k),
                     "graph --partitions", "vertices")
        out.write(_partition_graph_dot(args.k, args.n))
    elif args.n > GRAPH_MAX_N:
        raise DomainError("graph supports n <= %d: n=%d would write %d vertices"
                          % (GRAPH_MAX_N, args.n, math.factorial(args.n)))
    else:
        from .bruhat import export_dot

        out.write(export_dot(args.n, args.k, cover_only=args.covers_only))
    return 0


def _partition_graph_dot(k, n):
    from .grassmann import partition_str, rim_hook_additions

    shapes = sorted(beads_to_partition(first[::-1])
                    for first in combinations(range(1, n + 1), k))
    lines = ["digraph partition_kbruhat {"]
    lines.append('  label="partitions in %dx%d";' % (k, n - k))
    for lam in shapes:
        lines.append('  "%s";' % partition_str(lam, k))
    for lam in shapes:
        for rh in rim_hook_additions(lam, k, n):
            style = "" if rh.size == 1 else ", style=dashed"
            lines.append('  "%s" -> "%s" [label="%d"%s];'
                         % (partition_str(lam, k), partition_str(rh.outer, k),
                            rh.tau, style))
    lines.append("}")
    return "\n".join(lines) + "\n"


# `rht` enumeration visits 80k search nodes a second on 3-4 rows, 27k on 8
# rows, and holds about 120 bytes a node (2-core VM): 200k nodes take 2.5-7.5
# s and 25 MB.  4x4 with r = 1, 105720 nodes, stays allowed.
RHT_ENUMERATE_MAX_NODES = 200_000


def cmd_rht(args, out):
    from .exact import ExactnessError, PoleError
    from .grassmann import contains, parse_partition
    from .rht import (
        enumerate_rht,
        enumeration_nodes,
        rht_count_hook,
        rht_count_limit,
        rht_count_maj,
    )

    try:
        outer = parse_partition(args.outer)
        inner = parse_partition(args.inner)
    except ValueError as exc:
        raise DomainError(str(exc))
    if not contains(outer, inner):
        raise DomainError("inner shape not contained in outer")
    size = sum(outer) - sum(inner)
    if args.r < 1 or size % args.r:
        raise DomainError("skew size %d not divisible by r=%d" % (size, args.r))
    if args.method in ("enumerate", "all"):
        nodes = enumeration_nodes(outer, inner, args.r)
        if nodes > RHT_ENUMERATE_MAX_NODES:
            raise DomainError("enumeration supports at most %d search nodes: "
                              "r=%d on %s/%s would visit %d (the limit and "
                              "maj methods have no such bound)"
                              % (RHT_ENUMERATE_MAX_NODES, args.r, args.outer,
                                 args.inner, nodes))

    def run(method):
        if method == "enumerate":
            return len(enumerate_rht(outer, inner, args.r))
        if method == "limit":
            return rht_count_limit(outer, inner, args.r)
        if method == "maj":
            return rht_count_maj(outer, inner, args.r)
        if method == "hook":
            if inner:
                raise DomainError("hook formula needs a straight shape")
            return rht_count_hook(outer, args.r)
        raise DomainError("unknown method %r" % method)

    if args.method == "all":
        methods = ["enumerate", "limit", "maj"] + ([] if inner else ["hook"])
    else:
        methods = [args.method]
    try:
        counts = {m: run(m) for m in methods}
    except (PoleError, ExactnessError, AssertionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INVARIANT
    if args.method != "all":
        out.write("%d\n" % counts[args.method])
        return 0
    for m in methods:
        out.write("%s %d\n" % (m, counts[m]))
    if len(set(counts.values())) != 1:
        out.write("DISAGREEMENT\n")
        return EXIT_INVARIANT
    return 0


# `grassmann --op mn` prints at most k hooks of each size s <= r, each
# with C(r, s) terms of h_{r-s}, about 3 us and 160 bytes each (2-core VM):
# a bound of 1,047,370 (k = 2, n = 5, r = 60) took 3.3 s at 166 MB.
GRASSMANN_MN_MAX_TERMS = 500_000


def cmd_grassmann(args, out):
    from .grassmann import (
        fits_in_rectangle,
        parabolic_mn,
        parabolic_pieri,
        parse_partition,
        partition_str,
    )

    _check_k(args.k, args.n)
    try:
        lam = parse_partition(args.lam)
    except ValueError as exc:
        raise DomainError(str(exc))
    if not fits_in_rectangle(lam, args.k, args.n):
        raise DomainError("%s does not fit in %dx%d"
                          % (args.lam, args.k, args.n - args.k))
    if args.op == "pieri":
        if args.alpha is None or args.beta is None:
            raise DomainError("pieri needs --alpha and --beta")
        _check_hook(args.alpha, args.beta)
        _refuse_over(PARTITION_GRAPH_MAX_SHAPES, math.comb(args.n, args.k),
                     "grassmann --op pieri", "shapes")
        table = parabolic_pieri(lam, args.k, args.n, (args.alpha, args.beta))
        out.write("# grassmann pieri lambda=%s k=%d n=%d alpha=%d beta=%d\n"
                  % (partition_str(lam, args.k), args.k, args.n,
                     args.alpha, args.beta))
        for mu, c in table.items():
            out.write("%s %d\n" % (partition_str(mu, args.k), c))
    else:
        if args.r is None:
            raise DomainError("mn needs --r")
        if args.r < 1:
            raise DomainError("r must be positive")
        _refuse_over(GRASSMANN_MN_MAX_TERMS, sum(
            args.k * math.comb(args.r, s)
            for s in range(1, min(args.r, args.n - 1) + 1)),
            "grassmann --op mn", "terms")
        table = parabolic_mn(lam, args.k, args.n, args.r)
        out.write("# grassmann mn lambda=%s k=%d n=%d r=%d\n"
                  % (partition_str(lam, args.k), args.k, args.n, args.r))
        for mu, c in table.items():
            out.write("%s %s\n" % (partition_str(mu, args.k), canonical_str(c)))
    return 0


def _scan_product_mode(n):
    from .csm import oracle_product
    from .exact import at_t0
    from .perm import all_permutations
    from .schubert import double_schubert

    perms = all_permutations(n)
    singles = {v: at_t0(double_schubert(v)) for v in perms}

    violations = []
    for u in perms:
        for v in perms:
            got = oracle_product(u, singles[v], "csm", equivariant=False)
            for w, c in got.coeffs.items():
                val = c.constant_value()
                if val != int(val) or val < 0:
                    violations.append((str(u), str(v), str(w), str(val)))
    return len(perms) ** 2, sorted(violations)


def _scan_schubert_mode(n):
    from .perm import all_permutations
    from .schubert import interpolate, localization_table

    violations = []
    for w in all_permutations(n):
        got = interpolate("schubert",
                          localization_table("csm", w)).specialize_t0()
        for v, c in got.coeffs.items():
            val = c.constant_value()
            if val != int(val) or val < 0:
                violations.append((str(w), str(v), str(val)))
    return len(all_permutations(n)), sorted(violations)


# From n = 6 on, product mode transports CSM representatives of the
# 2^(n(n-1)/2)-term top double Schubert polynomial (32768 terms at n = 6),
# and schubert-expansion mode interpolates n! CSM localization tables (the
# one of the identity alone takes about 50 s and 1.4 GB at n = 6).
SCAN_MAX_N = 5


def cmd_scan_positivity(args, out):
    if args.n < 1:
        raise DomainError("n must be positive")
    product = args.mode == "product"
    label = "pairs" if product else "classes"
    if args.n > SCAN_MAX_N:
        raise DomainError(
            "scan-positivity supports n <= %d: n=%d would expand %d %s"
            % (SCAN_MAX_N, args.n, math.factorial(args.n) ** (1 + product),
               label))
    if product:
        cases, violations = _scan_product_mode(args.n)
    else:
        cases, violations = _scan_schubert_mode(args.n)
    if violations:
        out.write("VIOLATION count=%d\n" % len(violations))
        for wit in violations[:20]:
            out.write("witness %s\n" % " ".join(wit))
        return EXIT_CONJECTURE
    out.write("ok mode=%s n=%d %s=%d violations=0\n"
              % (args.mode, args.n, label, cases))
    return 0


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each subcommand's function is bound here."""
    top = argparse.ArgumentParser(
        prog="flagcsm",
        description="Exact CSM/Schubert class products in the type-A flag "
                    "variety, Bruhat path rules, and rim hook counting.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pieri", help="hook Schur polynomial times a class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--basis", choices=["csm", "schubert"], default="csm")
    p.add_argument("--equivariant", choices=["on", "off"], default="on")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("mn", help="power sum times a class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--basis", choices=["csm", "schubert"], default="csm")
    p.add_argument("--equivariant", choices=["on", "off"], default="on")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_mn)

    p = sub.add_parser("graph", help="labeled k-Bruhat graph as DOT")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--partitions", action="store_true",
                   help="the partition graph instead of the S_n graph")
    p.add_argument("--covers-only", action="store_true")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("rht", help="standard r-rim-hook tableau counting")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", default="0")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method",
                   choices=["enumerate", "limit", "maj", "hook", "all"],
                   default="all")
    p.set_defaults(func=cmd_rht)

    p = sub.add_parser("grassmann", help="parabolic Pieri / MN tables")
    p.add_argument("--op", choices=["pieri", "mn"], required=True)
    p.add_argument("--lam", required=True, help="partition, e.g. 4,2,2,0")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--r", type=int)
    p.set_defaults(func=cmd_grassmann)

    p = sub.add_parser("scan-positivity",
                       help="scan CSM expansions for negative coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["product", "schubert-expansion"],
                   default="product")
    p.set_defaults(func=cmd_scan_positivity)

    return top


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except DomainError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
