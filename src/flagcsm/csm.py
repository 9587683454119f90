"""Demazure-Lusztig operators, CSM class representatives for Schubert
cells, their fixed-point localizations, expansion of classes in the CSM
basis, and the brute-force product oracle used to verify every
closed-form rule.

A CSM class is represented by a polynomial obtained from the point class
(the top double Schubert polynomial) by a chain of Demazure-Lusztig
operators.  Representatives are only well defined modulo the symmetric
ideal, so nothing here ever asserts equality of raw representatives:
all comparisons go through basis coefficients.

The equivariant oracle never multiplies representatives.  It tabulates
the localizations csm(w)|_u with T_i = -s_i + d_i acting on localization
vectors, forms the product pointwise at the fixed points, and recovers
the coefficients by the fixed-point interpolation of `schubert`
(Goresky-Kottwitz-MacPherson).  The nonequivariant oracle keeps the
operator-transport route (the DL walk in `expand_in_csm`), so the two
routes check each other at t = 0.
"""

from __future__ import annotations

from .exact import divide_exact_linear, divided_difference, ring
from .perm import Permutation, all_permutations
from .schubert import (
    _LOC_TABLE,
    _SCHUB_CACHE,
    CohClass,
    double_schubert,
    interpolate,
    localize,
    schubert_diagonal_factors,
    schubert_localization,
)


def dl_operator(f, i, n):
    """T_i = -s_i + d_i on x_i, x_{i+1}: an involution satisfying the braid
    relations (the swap=-1 case of `divided_difference`)."""
    rg = ring(n)
    return divided_difference(f, rg.x_slot(i), rg.x_slot(i + 1), swap=-1)


_CSM_CACHE = {}


def csm_class(w):
    """Polynomial representative of the equivariant CSM class of the
    Schubert cell of w: transport the point class along Demazure-Lusztig
    operators for any word of w^-1 w0.  Cached per n."""
    n = w.n
    cache = _CSM_CACHE.setdefault(n, {})
    hit = cache.get(w)
    if hit is not None:
        return hit
    w0 = Permutation.longest(n)
    cur = cache.get(w0)
    if cur is None:
        cur = double_schubert(w0)
        cache[w0] = cur
    word = w.inverse().compose(w0).reduced_word()
    # T_u f applies the last letter first; track the cell as we go
    node = w0
    for i in reversed(word):
        cur = dl_operator(cur, i, n)
        node = node.compose(Permutation.transposition(i, i + 1, n))
        cache.setdefault(node, cur)
    if node != w:
        raise AssertionError("operator chain ended at %s, wanted %s" % (node, w))
    return cur


_CSM_LOC_TABLE = {}


def csm_localization(w):
    """The localizations {u: csm(w)|_u} over the support u >= w; cached
    per n.

    csm(w0) is the point class, supported at w0 alone.  Otherwise take an
    ascent i of w (w(i) < w(i+1)), so csm(w) = T_i csm(w s_i), and
    localize T_i = -s_i + d_i: with w' = w s_i,

        csm(w)|_u = (csm(w')|_u - csm(w')|_{u s_i}) / (t_{u(i)} - t_{u(i+1)})
                    - csm(w')|_{u s_i}.

    The quotient is the same at u and u s_i, so it is computed once per
    pair; each division must be exact."""
    n = w.n
    table = _CSM_LOC_TABLE.setdefault(n, {})
    hit = table.get(w)
    if hit is not None:
        return hit
    w0 = Permutation.longest(n)
    if w == w0:
        vec = {w0: localize(double_schubert(w0), w0)}
    else:
        i = next(i for i in range(1, n) if w(i) < w(i + 1))
        s = Permutation.transposition(i, i + 1, n)
        prev = csm_localization(w.compose(s))
        rg = ring(n)
        zero = rg.zero
        vec = {}
        pairs = dict.fromkeys(u if u(i) < u(i + 1) else u.compose(s)
                              for u in prev)
        for u in pairs:
            us = u.compose(s)
            a, b = prev.get(u, zero), prev.get(us, zero)
            q = divide_exact_linear(a - b, rg.t(u(i)) - rg.t(u(i + 1)))
            for point, val in ((u, q - b), (us, q - a)):
                if not val.is_zero():
                    vec[point] = val
    table[w] = vec
    return vec


def _csm_lookup(v, w):
    return csm_localization(v).get(w)


def csm_diagonal_factors(w):
    """The linear factors of csm(w)|_w: those of the Schubert diagonal,
    t_{w(a)} - t_{w(b)} per inversion, and 1 + t_{w(a)} - t_{w(b)} per
    pair a < b with w(a) < w(b)."""
    rg = ring(w.n)
    out = schubert_diagonal_factors(w)
    for a in range(1, w.n + 1):
        for b in range(a + 1, w.n + 1):
            if w(a) < w(b):
                out.append(rg.one + rg.t(w(a)) - rg.t(w(b)))
    return out


def csm_class_nonequivariant(w):
    """The t = 0 specialization of the CSM representative."""
    n = w.n
    rg = ring(n)
    return csm_class(w).specialize({rg.t_slot(i): 0 for i in range(1, n + 1)})


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
    the CSM basis.  Nonequivariantly f must be free of t, q and z (else
    ValueError): walks a spanning tree of left multiplications in weak
    order, so each permutation costs one operator application; the
    coefficient at w is the constant term of T_w(f)."""
    if equivariant:
        points = all_permutations(n)
        return interpolate("csm", points, [localize(f, w) for w in points],
                           _csm_lookup, csm_diagonal_factors)
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

    Equivariantly, and in the Schubert basis, the product is formed
    pointwise, basis(u)|_w * g|_w over the support of u's class, and
    interpolated; the product polynomial is never built.  The
    nonequivariant CSM product multiplies the t = 0 representatives and
    walks Demazure-Lusztig operators.  The independent verifier for every
    closed-form rule."""
    n = u.n
    rg = ring(n)
    if basis == "csm":
        if not equivariant:
            g0 = g.specialize({rg.t_slot(i): 0 for i in range(1, n + 1)})
            return expand_in_csm(csm_class_nonequivariant(u) * g0, n, False)
        support = csm_localization(u)
        loc, diagonal = _csm_lookup, csm_diagonal_factors
    elif basis == "schubert":
        support = {w: schubert_localization(u, w) for w in all_permutations(n)
                   if u.bruhat_le(w)}
        loc, diagonal = schubert_localization, schubert_diagonal_factors
    else:
        raise ValueError("basis must be 'csm' or 'schubert'")
    points = [w for w in all_permutations(n) if w in support]
    got = interpolate(basis, points,
                      [support[w] * localize(g, w) for w in points],
                      loc, diagonal)
    return got if equivariant else got.specialize_t0()


def clear_caches():
    """Empty every per-n memo table: Schubert polynomials, CSM
    representatives, Schubert localizations and CSM localizations."""
    for table in (_SCHUB_CACHE, _CSM_CACHE, _LOC_TABLE, _CSM_LOC_TABLE):
        table.clear()
