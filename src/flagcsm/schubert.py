"""Double Schubert polynomials, divided-difference operators, fixed-point
localization, and expansion of equivariant classes by fixed-point
interpolation.

Every class is built by one memoized recursion down the weak order
(`_lower`): class(w) = D_i class(w s_i) at an ascent i of w, from the
point class at w0.  D_i is d_i for `double_schubert`, T_i for
`csm.csm_class`, and the localized d_i or T_i for `localization_table`,
which works on localization vectors and builds no representative.

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
        out = CohClass(self.basis, False)
        for w, c in self.coeffs.items():
            out.add(w, at_t0(c))
        return out

    def __eq__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        return (self.basis == other.basis
                and self.equivariant == other.equivariant
                and self.coeffs == other.coeffs)


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
    descent at k, as the factorial Schur sum over semistandard tableaux:
    each box (i, j) filled with v contributes (x_v - t_{v+j-i}).

    Equivalent to the divided-difference recursion but independent of n!,
    so `double_schubert` uses it from n = 6 on, where the closed-form
    rules and the rim-hook benchmark ask for Grassmannian classes of
    large symmetric groups."""
    from .symfun import _ssyt

    n = w.n
    rg = ring(n)
    lam, _ = coset_decompose(w, k)
    out = rg.zero
    for tab in _ssyt(lam, k):
        term = rg.one
        for i, row in enumerate(tab, start=1):
            for j, v in enumerate(row, start=1):
                term = term * (rg.x(v) - rg.t(v + j - i))
        out = out + term
    return out


def _schubert_leaf(w):
    if w == Permutation.longest(w.n):
        return _longest_schubert(w.n)
    if w.n >= 6:
        desc = w.descents()
        if not desc:
            return ring(w.n).one
        if len(desc) == 1:
            return _grassmannian_tableau_schubert(w, desc[0])
    return None


def double_schubert(w):
    """The double Schubert polynomial of w: S_w = d_i S_{w s_i} at the
    first ascent i of w, from the top polynomial at w0; cached per n.

    From n = 6 on, a permutation with at most one descent is a base case
    too (the tableau formula), so Grassmannian classes of large symmetric
    groups never pass through the (huge) top polynomial."""
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


def giambelli_hook(alpha, beta, k, n):
    """A representative of the Schubert class of the hook-shape
    Grassmannian permutation built from hook Schur polynomials: the
    x-free term is the single Schubert polynomial of the inverse
    permutation evaluated at -t, and each smaller hook contributes an
    e/h correction at negated t-variables."""
    from .perm import grassmannian_from_partition
    from .symfun import complete_sym, elem_sym, schur_hook, t_range, x_range

    lam = (alpha + 1,) + (1,) * beta
    w_hook = grassmannian_from_partition(lam, k, n)  # raises on overflow
    rg = ring(n)

    single = at_t0(double_schubert(w_hook.inverse()))
    single = single.substitute({rg.x_slot(i): -rg.t(i) for i in range(1, n + 1)})

    out = single
    for a2 in range(alpha + 1):
        for b2 in range(beta + 1):
            out = out + (schur_hook(n, a2, b2, x_range(k))
                         * elem_sym(n, alpha - a2, t_range(k + alpha), sign=-1)
                         * complete_sym(n, beta - b2, t_range(k - beta), sign=-1))
    return out


def column_perm(k, r, n):
    """The Grassmannian permutation of the one-column partition (1^r)
    with descent at k."""
    from .perm import grassmannian_from_partition

    return grassmannian_from_partition((1,) * r, k, n)


def row_perm(k, r, n):
    """The Grassmannian permutation of the one-row partition (r) with
    descent at k."""
    from .perm import grassmannian_from_partition

    return grassmannian_from_partition((r,), k, n)


def molev_class(kind, k, r, n):
    """Chern/Segre-type representatives of the one-column and one-row
    Grassmannian Schubert classes, produced in both displayed forms and
    asserted equal:

      column: sum over 1<=i_1<...<i_r<=k of prod (x_{i_j} - t_{i_j-j+1})
            = sum_{i+j=r} e_i(x_[k]) h_j(-t_[k-r+1])
      row:    sum over 1<=i_1<=...<=i_r<=k of prod (x_{i_j} - t_{i_j+j-1})
            = sum_{i+j=r} h_i(x_[k]) e_j(-t_[k+r-1])
    """
    from itertools import combinations, combinations_with_replacement

    from .symfun import complete_sym, elem_sym, t_range, x_range

    rg = ring(n)
    if kind == "column":
        if r > k or k >= n:
            raise ValueError("no column permutation c[%d,%d] in S_%d" % (k, r, n))
        direct = rg.zero
        for idx in combinations(range(1, k + 1), r):
            term = rg.one
            for j, i in enumerate(idx, start=1):
                term = term * (rg.x(i) - rg.t(i - j + 1))
            direct = direct + term
        eh = rg.zero
        for i in range(r + 1):
            eh = eh + elem_sym(n, i, x_range(k)) \
                * complete_sym(n, r - i, t_range(k - r + 1), sign=-1)
    elif kind == "row":
        if k + r > n:
            raise ValueError("no row permutation c'[%d,%d] in S_%d" % (k, r, n))
        direct = rg.zero
        for idx in combinations_with_replacement(range(1, k + 1), r):
            term = rg.one
            for j, i in enumerate(idx, start=1):
                term = term * (rg.x(i) - rg.t(i + j - 1))
            direct = direct + term
        eh = rg.zero
        for i in range(r + 1):
            eh = eh + complete_sym(n, i, x_range(k)) \
                * elem_sym(n, r - i, t_range(k + r - 1), sign=-1)
    else:
        raise ValueError("kind must be 'column' or 'row'")
    if direct != eh:
        raise AssertionError("the two displayed forms disagree for %s[%d,%d]"
                             % (kind, k, r))
    return direct
