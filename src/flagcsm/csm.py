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

from .exact import MPoly, divide_exact_linear, ring
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
    """T_i = -s_i + d_i: negated swap of x_i, x_{i+1} plus the divided
    difference.  An involution satisfying the braid relations.

    Fused single pass over the terms: each monomial emits its divided-
    difference summands and its negated swap at once."""
    rg = ring(n)
    a, b = rg.x_slot(i), rg.x_slot(i + 1)
    out = {}
    get = out.get
    for e, c in f.terms.items():
        p, q = e[a], e[b]
        if p == q:
            key = e
        else:
            if p > q:
                lo, hi, sgn = q, p, c
            else:
                lo, hi, sgn = p, q, -c
            base = list(e)
            tot = p + q - 1
            for s in range(lo, hi):
                base[a] = s
                base[b] = tot - s
                key = tuple(base)
                v = get(key, 0) + sgn
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
            base[a] = q
            base[b] = p
            key = tuple(base)
        v = get(key, 0) - c
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    r = MPoly(f.nvars)
    r.terms = out
    return r


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


_PACK_BITS = 5
_PACK_MAX = (1 << _PACK_BITS) - 1  # T_i never raises an exponent


def _pack_terms(p):
    """Exponent tuples packed into ints, 5 bits per slot; None when some
    exponent is too large for the packed form."""
    out = {}
    for e, c in p.terms.items():
        key = 0
        for i, d in enumerate(e):
            if d > _PACK_MAX:
                return None
            key |= d << (_PACK_BITS * i)
        out[key] = c
    return out


def _dl_packed(terms, a, b):
    """The Demazure-Lusztig kernel on packed exponent keys."""
    bits = _PACK_BITS
    mask = (1 << bits) - 1
    sa, sb = bits * a, bits * b
    out = {}
    get = out.get
    for key, c in terms.items():
        p = (key >> sa) & mask
        q = (key >> sb) & mask
        if p == q:
            k2 = key
        else:
            base = key - (p << sa) - (q << sb)
            if p > q:
                lo, hi, sgn = q, p, c
            else:
                lo, hi, sgn = p, q, -c
            tot = p + q - 1
            k = base + (lo << sa) + ((tot - lo) << sb)
            step = (1 << sa) - (1 << sb)
            for _ in range(lo, hi):
                v = get(k, 0) + sgn
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
                k += step
            k2 = base + (q << sa) + (p << sb)
        v = get(k2, 0) - c
        if v:
            out[k2] = v
        elif k2 in out:
            del out[k2]
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
    the CSM basis.  Nonequivariantly (f free of t): walks a spanning tree
    of left multiplications in weak order, so each permutation costs one
    operator application; the coefficient at w is T_w(f) at x = 0."""
    if equivariant:
        points = all_permutations(n)
        return interpolate("csm", points, [localize(f, w) for w in points],
                           _csm_lookup, csm_diagonal_factors)
    rg = ring(n)
    out = CohClass("csm", False)
    xmask = sum(((1 << _PACK_BITS) - 1) << (_PACK_BITS * i) for i in range(n))

    def coefficient_packed(terms):
        const = 0
        for key, c in terms.items():
            if not key & xmask:
                if key:
                    raise ValueError("nonequivariant expansion needs t-free input")
                const += c
        return const if const else None

    def coefficient_poly(fw):
        val = fw.specialize({rg.x_slot(i): 0 for i in range(1, n + 1)})
        if val.is_zero():
            return None
        return val.constant_value()

    packed = _pack_terms(f)

    def rec(w, fw):
        if packed is not None:
            c = coefficient_packed(fw)
        else:
            c = coefficient_poly(fw)
        if c is not None:
            out.add(w, rg.const(c))
        lw = w.length()
        for i in range(1, n):
            w2 = Permutation.transposition(i, i + 1, n).compose(w)
            if w2.length() == lw + 1 and _min_left_descent(w2) == i:
                if packed is not None:
                    child = _dl_packed(fw, rg.x_slot(i), rg.x_slot(i + 1))
                else:
                    child = dl_operator(fw, i, n)
                rec(w2, child)

    rec(Permutation.identity(n), packed if packed is not None else f)
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
