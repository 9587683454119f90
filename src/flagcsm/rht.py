"""Standard r-rim-hook tableaux counted three independent ways:

1. direct enumeration by recursive hook stripping;
2. an exact limit, at a primitive r-th root of unity, of the ratio of
   Schubert-class localizations specialized at t_i = z^i, each summed
   box by box over the factorial Schur tableaux (`symfun.tableau_sum`);
3. the major-index generating function of standard Young tableaux
   evaluated at the root of unity, by a dynamic program over the
   intermediate shapes;

plus the hook-length quotient formula for straight shapes.  All three
agree shape by shape; disagreement aborts, since each method checks the
other two.  Only enumeration lists tableaux, and it costs time and memory
in proportion to the nodes of its search (`enumeration_nodes`); the
other methods are polynomial in the number of boxes for a fixed number
of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from operator import add

from .exact import (
    CycloElt,
    ExactnessError,
    UPoly,
    limit_ratio_at_root,
)
from .grassmann import (
    contains,
    normalize_partition,
    rim_hook_removals,
)
from .perm import grassmannian_from_partition
from .symfun import tableau_sum

__all__ = [
    "RimHookTableau", "enumerate_rht", "enumeration_nodes", "rht_sign",
    "y_poly", "rht_count_limit", "rht_count_maj", "hook_lengths",
    "rht_count_hook"
]


@dataclass(frozen=True)
class RimHookTableau:
    """A chain of partitions from the inner shape to the outer one, each
    step adding a rim hook of size exactly r; carries the summed height."""

    chain: tuple
    r: int
    total_height: int


def _hook_height(outer, inner):
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    rows = [i for i in range(len(outer)) if outer[i] > inner[i]]
    return max(rows) - min(rows)


def _skew(Lam, lam, r):
    Lam = normalize_partition(Lam)
    lam = normalize_partition(lam)
    if not contains(Lam, lam):
        raise ValueError("inner shape not contained in outer")
    size = sum(Lam) - sum(lam)
    if size % r:
        raise ValueError("skew size %d not divisible by r=%d" % (size, r))
    return Lam, lam


def enumerate_rht(Lam, lam, r):
    """All standard r-rim-hook tableaux of the skew shape, by stripping
    r-hooks from the outer shape.  Asserts that their heights share one
    parity, which `rht_sign` relies on."""
    Lam, lam = _skew(Lam, lam, r)
    out = []

    def strip(cur, suffix, height):
        if sum(cur) == sum(lam):
            if cur == lam:
                out.append(RimHookTableau(
                    chain=(lam,) + suffix, r=r, total_height=height))
            return
        for mu in rim_hook_removals(cur, r):
            if contains(mu, lam):
                strip(mu, (cur,) + suffix, height + _hook_height(cur, mu))

    strip(Lam, (), 0)
    if any(t.total_height % 2 != out[0].total_height % 2 for t in out):
        raise AssertionError("height parity differs between tableaux")
    return out


def enumeration_nodes(Lam, lam, r):
    """The number of calls `enumerate_rht`'s search makes, counted over
    shapes without building a tableau."""
    Lam, lam = _skew(Lam, lam, r)
    below = {}

    def nodes(cur):
        if sum(cur) == sum(lam):
            return 1
        if cur not in below:
            below[cur] = 1 + sum(nodes(mu) for mu in rim_hook_removals(cur, r)
                                 if contains(mu, lam))
        return below[cur]

    return nodes(Lam)


def rht_sign(Lam, lam, r):
    """(-1)^height of the first tableau a depth-first search finds (every
    tableau has the same parity, asserted by `enumerate_rht`); 0 when no
    tableau exists."""
    Lam, lam = _skew(Lam, lam, r)
    failed = set()

    def height(cur):
        if cur == lam:
            return 0
        if cur in failed:
            return None
        for mu in rim_hook_removals(cur, r):
            if contains(mu, lam):
                h = height(mu)
                if h is not None:
                    return h + _hook_height(cur, mu)
        failed.add(cur)
        return None

    h = height(Lam)
    if h is None:
        return 0
    return -1 if h % 2 else 1


def _ambient(Lam, k=None, n=None):
    Lam = normalize_partition(Lam)
    if k is None:
        k = max(len(Lam), 1)
    if n is None:
        n = k + (Lam[0] if Lam else 1)
    return k, n


def _times_binomial(coeffs, a, b):
    """coeffs * (z^a - z^b) on coefficient lists, constant term first."""
    out = [0] * (len(coeffs) + max(a, b))
    for i, c in enumerate(coeffs):
        out[i + a] += c
        out[i + b] -= c
    return out


def y_poly(lam, Lam, k=None, n=None):
    """The Schubert class of the inner shape localized at the fixed point
    of the outer shape, specialized t_i -> z^i: a univariate polynomial.

    It is the factorial Schur sum over semistandard tableaux of the inner
    shape with entries <= k, localized box by box on coefficient lists
    (`symfun.tableau_sum`): a box filled with v at content c gives
    z^{w(v)} - z^{v+c}, w the outer shape's Grassmannian permutation, and
    a filling is dropped at its first zero factor.  At inner = outer one
    filling survives, and its product runs over the inversions of w.

    The ambient rectangle defaults to the smallest one containing the
    outer shape; the ratio used downstream is rectangle-independent."""
    lam = normalize_partition(lam)
    Lam = normalize_partition(Lam)
    if not contains(Lam, lam):
        raise ValueError("inner shape not contained in outer")
    k, n = _ambient(Lam, k, n)
    w = (0,) + grassmannian_from_partition(Lam, k, n).oneline
    total = [0] * (n * sum(lam) + 1)  # each factor has degree <= n

    def leaf(partial):
        total[:len(partial)] = map(add, total, partial)

    tableau_sum(lam, k, [1], lambda partial, v, c: None if w[v] == v + c
                else _times_binomial(partial, w[v], v + c), leaf)
    return UPoly(total)


def rht_count_limit(Lam, lam, r, k=None, n=None):
    """Tableau count from the exact limit of
    Y_{lam,Lam}(z) (z^r-1)^d / Y_{Lam,Lam}(z) at a primitive r-th root of
    unity, scaled by sign . r^d . d!; the result must be a nonnegative
    rational integer."""
    Lam, lam = _skew(Lam, lam, r)
    d = (sum(Lam) - sum(lam)) // r
    if d == 0:
        return 1
    num = y_poly(lam, Lam, k, n) * (UPoly.monomial(r) - 1) ** d
    den = y_poly(Lam, Lam, k, n)
    lim = limit_ratio_at_root(num, den, r)
    if not lim.is_rational():
        raise ExactnessError("limit is not rational: %r" % lim)
    sgn = rht_sign(Lam, lam, r)
    count = sgn * r ** d * factorial(d) * lim.rational_value()
    if count != int(count) or count < 0:
        raise ExactnessError("limit count is not a nonnegative integer: %r"
                             % count)
    return int(count)


def _maj_residues(Lam, lam, r):
    """The number of standard Young tableaux of the skew shape with each
    major index mod r, where maj(T) is the sum of i such that box i+1
    sits in a strictly lower row than box i.  A dynamic program over
    (shape, row of the last box), one box at a time."""
    rows = len(Lam)
    layer = {(lam + (0,) * (rows - len(lam)), -1): [1] + [0] * (r - 1)}
    for m in range(sum(Lam) - sum(lam)):
        nxt = {}
        for (cur, last), counts in layer.items():
            for i in range(rows):
                if cur[i] < Lam[i] and (i == 0 or cur[i] < cur[i - 1]):
                    shift = m if i > last else 0
                    key = (cur[:i] + (cur[i] + 1,) + cur[i + 1:], i)
                    acc = nxt.setdefault(key, [0] * r)
                    for c, v in enumerate(counts):
                        acc[(c + shift) % r] += v
        layer = nxt
    total = [0] * r
    for counts in layer.values():
        for c, v in enumerate(counts):
            total[c] += v
    return total


def rht_count_maj(Lam, lam, r):
    """Tableau count as sign times the major-index generating function of
    standard Young tableaux evaluated at a primitive r-th root of unity,
    computed exactly in the cyclotomic quotient ring."""
    Lam, lam = _skew(Lam, lam, r)
    if Lam == lam:
        return 1
    total = CycloElt(r, UPoly(_maj_residues(Lam, lam, r)))
    sgn = rht_sign(Lam, lam, r)
    val = sgn * total
    if not val.is_rational():
        raise ExactnessError("maj evaluation is not rational: %r" % val)
    count = val.rational_value()
    if count != int(count) or count < 0:
        raise ExactnessError("maj count is not a nonnegative integer: %r"
                             % count)
    return int(count)


def hook_lengths(Lam):
    Lam = normalize_partition(Lam)
    conj = [0] * (Lam[0] if Lam else 0)
    for p in Lam:
        for j in range(p):
            conj[j] += 1
    return [Lam[i] - (j + 1) + conj[j] - (i + 1) + 1
            for i in range(len(Lam)) for j in range(Lam[i])]


def rht_count_hook(Lam, r):
    """Hook-length quotient count for a straight shape: zero unless the
    number of hook lengths divisible by r is exactly the number of hooks
    to place, else r^d d! over the product of those hook lengths."""
    Lam = normalize_partition(Lam)
    size = sum(Lam)
    if size % r:
        raise ValueError("size %d not divisible by r=%d" % (size, r))
    d = size // r
    hooks = hook_lengths(Lam)
    divisible = [h for h in hooks if h % r == 0]
    if len(divisible) != d:
        return 0
    num = r ** d * factorial(d)
    den = 1
    for h in divisible:
        den *= h
    if num % den:
        raise ExactnessError("hook quotient is not integral: %d/%d"
                             % (num, den))
    return num // den
