"""Demazure-Lusztig operators, CSM class representatives for Schubert
cells, expansion of classes in the CSM basis, and the brute-force product
oracle used to verify every closed-form rule.

A CSM class is represented by a polynomial obtained from the point class
(the top double Schubert polynomial) by Demazure-Lusztig operators, one
per step down the weak order, in the recursion that `schubert` also
uses for double Schubert polynomials and localization tables.
Representatives are only well defined modulo the symmetric ideal, so
nothing here ever asserts equality of raw representatives: all
comparisons go through basis coefficients.

The equivariant oracle never multiplies representatives.  It reads the
localizations basis(u)|_w from `schubert.localization_table`, forms the
product pointwise at the fixed points, and recovers the coefficients by
the fixed-point interpolation of `schubert` (Goresky-Kottwitz-MacPherson).
The nonequivariant CSM oracle keeps the operator-transport route (the DL
walk in `expand_in_csm`), so the two routes check each other at t = 0.
"""

from __future__ import annotations

from .exact import at_t0, divided_difference, ring
from .perm import Permutation, all_permutations
from .schubert import (
    _LOC_TABLE,
    _SCHUB_CACHE,
    _lower,
    CohClass,
    double_schubert,
    interpolate,
    localization_table,
    localize,
)

__all__ = [
    "dl_operator", "csm_class", "csm_class_nonequivariant", "expand_in_csm",
    "oracle_product", "clear_caches"
]


def dl_operator(f, i, n):
    """T_i = -s_i + d_i on x_i, x_{i+1}: an involution satisfying the braid
    relations (the swap=-1 case of `divided_difference`)."""
    rg = ring(n)
    return divided_difference(f, rg.x_slot(i), rg.x_slot(i + 1), swap=-1)


_CSM_CACHE = {}


def _csm_leaf(w):
    return double_schubert(w) if w == Permutation.longest(w.n) else None


def csm_class(w):
    """Polynomial representative of the equivariant CSM class of the
    Schubert cell of w: csm(w) = T_i csm(w s_i) at the first ascent i of
    w, from the point class (the top double Schubert polynomial) at w0.
    Cached per n."""
    return _lower(_CSM_CACHE.setdefault(w.n, {}), w, _csm_leaf, dl_operator)


def csm_class_nonequivariant(w):
    """The t = 0 specialization of the CSM representative."""
    return at_t0(csm_class(w))


def _min_left_descent(w):
    inv = w.inverse()
    for i in range(1, w.n):
        if inv(i) > inv(i + 1):
            return i
    return None


def expand_in_csm(f, n, equivariant=True):
    """Coefficients c^w(t) with f = sum c^w csm(w) modulo the symmetric
    ideal.

    Equivariantly: fixed-point interpolation of the localizations of f in
    the CSM basis.  Nonequivariantly f must be free of t (else
    ValueError): walks a spanning tree of left multiplications in weak
    order, so each permutation costs one operator application; the
    coefficient at w is the constant term of T_w(f)."""
    if equivariant:
        return interpolate("csm", {w: localize(f, w)
                                   for w in all_permutations(n)})
    if any(any(e[n:]) for e in f.terms):
        raise ValueError("nonequivariant expansion needs t-free input")
    rg = ring(n)
    zero = (0,) * f.nvars
    out = CohClass("csm", False)

    def rec(w, fw):
        c = fw.terms.get(zero)
        if c:
            out.add(w, rg.const(c))
        lw = w.length()
        for i in range(1, n):
            w2 = Permutation.transposition(i, i + 1, n).compose(w)
            if w2.length() == lw + 1 and _min_left_descent(w2) == i:
                rec(w2, dl_operator(fw, i, n))

    rec(Permutation.identity(n), f)
    return out


def oracle_product(u, g, basis, equivariant=True):
    """Brute-force product of u's class (CSM or Schubert) by g.

    Equivariantly, in either basis, the product is formed pointwise,
    basis(u)|_w * g|_w over the localization table of u, and
    interpolated; the product polynomial is never built.  The
    nonequivariant CSM product multiplies the t = 0 representatives and
    walks Demazure-Lusztig operators.  The independent verifier for every
    closed-form rule.

    Nothing here is bounded: at n >= 6 the tables and the interpolation
    grow with n! (the CSM table of the identity at n = 6 takes about 50 s
    and 1.4 GB to build), and the nonequivariant CSM route transports the
    2^(n(n-1)/2)-term top double Schubert polynomial."""
    n = u.n
    if basis == "csm" and not equivariant:
        return expand_in_csm(csm_class_nonequivariant(u) * at_t0(g), n, False)
    got = interpolate(basis, {w: val * localize(g, w) for w, val
                              in localization_table(basis, u).items()})
    return got if equivariant else got.specialize_t0()


def clear_caches():
    """Empty every per-n memo table: Schubert polynomials, CSM
    representatives, and the localization tables of both bases."""
    for table in (_SCHUB_CACHE, _CSM_CACHE, _LOC_TABLE):
        table.clear()
