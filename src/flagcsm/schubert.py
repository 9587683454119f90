"""Double Schubert polynomials, divided-difference operators, fixed-point
localization, and expansion of equivariant classes by fixed-point
interpolation.

Every class is built by one memoized recursion down the weak order
(`_lower`): class(w) = D_i class(w s_i) at an ascent i of w, from the
point class at w0.  D_i is d_i for `double_schubert`, T_i for
`csm.csm_class`, and the localized d_i or T_i for `localization_table`,
which works on localization vectors and builds no representative.  A
Grassmannian class is localized directly, as a factorial Schur sum over
tableaux (`grassmannian_restriction`).

A class is determined by its localizations at the torus-fixed points
(the permutations).  `interpolate` recovers the coefficients of a class
in either basis, each of whose elements v localizes to zero at every w
not above v in Bruhat order: processing the points along a linear
extension of Bruhat order, each coefficient is the residual localization
divided (exactly) by the basis element's diagonal value, a product of
linear forms (`diagonal_factors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .exact import MPoly, at_t0, divide_exact_linear, divided_difference, \
    ring
from .perm import Permutation, all_permutations, coset_decompose
from .symfun import tableau_sum

__all__ = [
    "CohClass", "demazure_i", "localize", "grassmannian_restriction",
    "double_schubert", "diagonal_factors", "localization_table", "interpolate",
    "expand_in_schubert"
]


@dataclass
class CohClass:
    """A cohomology class as a finite basis-element -> coefficient map.

    Coefficients are polynomials in t alone; in the nonequivariant case
    they are constants.  Zero coefficients are never stored."""

    basis: str  # 'schubert' or 'csm'
    equivariant: bool
    coeffs: dict = field(default_factory=dict)

    def add(self, w, poly):
        cur = self.coeffs.get(w)
        val = poly if cur is None else cur + poly
        if val.is_zero():
            self.coeffs.pop(w, None)
        else:
            self.coeffs[w] = val

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].oneline)

    def specialize_t0(self):
        """The class at t = 0.  Endpoints that share a coefficient object
        share its specialization: one `at_t0` per object, memoized for
        this call."""
        out = CohClass(self.basis, False)
        memo = {}
        for w, c in self.coeffs.items():
            c0 = memo.get(id(c))
            if c0 is None:
                c0 = memo[id(c)] = at_t0(c)
            if c0.terms:
                out.coeffs[w] = c0
        return out


def demazure_i(f, i, n):
    """The divided difference d_i on x_i, x_{i+1}."""
    rg = ring(n)
    return divided_difference(f, rg.x_slot(i), rg.x_slot(i + 1))


def localize(f, w):
    """Restriction to the fixed point of w: substitute x_i -> t_{w(i)}.

    Direct exponent surgery: the x-exponent of slot i is added onto the
    t-exponent of slot w(i)."""
    n = w.n
    perm = w.oneline
    zeros = (0,) * n
    out = {}
    get = out.get
    for e, c in f.terms.items():
        head = e[:n]
        if any(head):
            tail = list(e[n:])
            for i, d in enumerate(head):
                if d:
                    tail[perm[i] - 1] += d
            key = zeros + tuple(tail)
        else:
            key = e
        v = get(key, 0) + c
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    r = MPoly(f.nvars)
    r.terms = out
    return r


def _lower(memo, w, leaf, step):
    """The value at w of a family built down the weak order: the value
    memoized at w if there is one, else leaf(w) unless that is None (a
    base case), else step(value at w s_i, i, n) at the first ascent i of
    w (w(i) < w(i+1)).  Every value reached is memoized, so building all
    of S_n from the top takes n! - 1 steps."""
    val = memo.get(w)
    if val is None:
        val = leaf(w)
        if val is None:
            n = w.n
            i = next(i for i in range(1, n) if w(i) < w(i + 1))
            s = Permutation.transposition(i, i + 1, n)
            val = step(_lower(memo, w.compose(s), leaf, step), i, n)
        memo[w] = val
    return val


_SCHUB_CACHE = {}


def _longest_schubert(n):
    rg = ring(n)
    out = rg.one
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            out = out * (rg.x(i) - rg.t(j))
    return out


def _grassmannian_tableau_schubert(w, k):
    """Double Schubert polynomial of a Grassmannian permutation with
    descent at k: the factorial Schur sum over semistandard tableaux, a box
    filled with v at content c giving x_v - t_{v+c}.  Each tableau's
    product is built on its own from its (v, c) pairs."""
    rg = ring(w.n)
    tableaux = []
    tableau_sum(coset_decompose(w, k)[0], k, (),
                lambda pairs, v, c: pairs + ((v, c),), tableaux.append)
    return sum((prod((rg.x(v) - rg.t(v + c) for v, c in pairs), start=rg.one)
                for pairs in tableaux), rg.zero)


def grassmannian_restriction(lam, values, n):
    """S_{w_lam}|_u for the Grassmannian permutation of lam with descent
    at k = len(values), at any u whose first k values are `values`: the
    factorial Schur sum over semistandard tableaux of lam with entries
    <= k, a box filled with v at content c giving t_{u(v)} - t_{v+c},
    a filling dropped at its first zero factor (Knutson-Tao)."""
    rg = ring(n)
    products = []
    tableau_sum(lam, len(values), rg.one,
                lambda p, v, c: None if values[v - 1] == v + c
                else p * (rg.t(values[v - 1]) - rg.t(v + c)), products.append)
    return sum(products, rg.zero)


def _schubert_leaf(w):
    """The top polynomial at w0 and, from n = 6 on, the tableau formula at
    a permutation with at most one descent.  No caller in this package
    reaches the second: the rules use `grassmannian_restriction`."""
    if w == Permutation.longest(w.n):
        return _longest_schubert(w.n)
    desc = w.descents()
    if w.n >= 6 and len(desc) <= 1:
        return _grassmannian_tableau_schubert(w, desc[0] if desc else 1)
    return None


def double_schubert(w):
    """The double Schubert polynomial of w: S_w = d_i S_{w s_i} at the
    first ascent i of w, from the top polynomial at w0; cached per n.

    From n = 6 on, a permutation with at most one descent is a base case
    too (the tableau formula), so Grassmannian classes of large symmetric
    groups never pass through the (huge) top polynomial; any other
    permutation at n >= 6 does, so its cost is unbounded there."""
    return _lower(_SCHUB_CACHE.setdefault(w.n, {}), w, _schubert_leaf,
                  demazure_i)


def diagonal_factors(basis, w):
    """The localization basis(w)|_w as its forced list of linear factors:
    t_{w(a)} - t_{w(b)} per inversion pair a < b of w, and in the CSM
    basis also 1 + t_{w(a)} - t_{w(b)} per non-inversion pair."""
    if basis not in ("schubert", "csm"):
        raise ValueError("basis must be 'csm' or 'schubert'")
    rg = ring(w.n)
    pairs = [(w(a), w(b)) for a in range(1, w.n + 1)
             for b in range(a + 1, w.n + 1)]
    out = [rg.t(p) - rg.t(q) for p, q in pairs if p > q]
    if basis == "csm":
        out += [rg.one + rg.t(p) - rg.t(q) for p, q in pairs if p < q]
    return out


_LOC_TABLE = {}


def localization_table(basis, w):
    """The localizations {u: basis(w)|_u} over the support u >= w, zero
    values left out; cached per (n, basis).

    At w0 both classes are the point class, whose one localization is the
    product of its diagonal factors.  Otherwise, at the first ascent i of
    w, basis(w) = D_i basis(w s_i) with D_i = d_i for Schubert classes and
    T_i = -s_i + d_i for CSM classes, and D_i is localized: with
    a = basis(w s_i)|_u and b = basis(w s_i)|_{u s_i},

        basis(w)|_u = (a - b) / (t_{u(i)} - t_{u(i+1)}) [- b for T_i].

    The quotient is the same at u and u s_i, so it is computed once per
    pair; each division must be exact."""
    table = _LOC_TABLE.setdefault((w.n, basis), {})
    hit = table.get(w)
    if hit is not None:
        return hit
    rg = ring(w.n)

    def leaf(v):
        if v == Permutation.longest(v.n):
            return {v: prod(diagonal_factors(basis, v), start=rg.one)}
        return None

    def step(prev, i, n):
        s = Permutation.transposition(i, i + 1, n)
        zero = rg.zero
        vec = {}
        pairs = dict.fromkeys(u if u(i) < u(i + 1) else u.compose(s)
                              for u in prev)
        for u in pairs:
            us = u.compose(s)
            a, b = prev.get(u, zero), prev.get(us, zero)
            q = divide_exact_linear(a - b, rg.t(u(i)) - rg.t(u(i + 1)))
            if basis == "csm":
                vals = ((u, q - b), (us, q - a))
            else:
                vals = ((u, q), (us, q))
            for point, val in vals:
                if not val.is_zero():
                    vec[point] = val
        return vec

    return _lower(table, w, leaf, step)


def interpolate(basis, values):
    """The class with localization values[w] at each point w of a
    nonempty {point: value} map and zero at every other fixed point,
    expanded in `basis`.

    The points run in `all_permutations` order, a linear extension of
    Bruhat order.  At each, the coefficient is the residual localization
    divided by the diagonal factors of `basis`; those divisions must be
    exact."""
    coeffs = {}
    for w in all_permutations(next(iter(values)).n):
        val = values.get(w)
        if val is None:
            continue
        for v, cv in coeffs.items():
            sv = localization_table(basis, v).get(w)
            if sv is not None:
                val = val - cv * sv
        if val.is_zero():
            continue
        for form in diagonal_factors(basis, w):
            val = divide_exact_linear(val, form)
        coeffs[w] = val
    return CohClass(basis, True, coeffs)


def expand_in_schubert(f, n):
    """Coefficients c_w(t) with f = sum c_w S_w(x,t) modulo the symmetric
    ideal, by interpolation over all fixed points."""
    return interpolate("schubert",
                       {u: localize(f, u) for u in all_permutations(n)})

