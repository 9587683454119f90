"""Symmetric-polynomial constructors on arbitrary variable subsets, and
`tableau_sum`, the one walk over semistandard tableaux behind every
tableau sum in the package: the Grassmannian classes of `schubert` and
`rht.y_poly`.

All constructors return `MPoly` values in the shared ring for the
session's n; a subset of variables is a `VarSubset` naming x- or
t-variables by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .exact import MPoly, ring

__all__ = [
    "VarSubset", "ts", "x_range", "t_range", "elem_sym", "complete_sym",
    "power_sum", "schur_hook", "tableau_sum"
]


@dataclass(frozen=True)
class VarSubset:
    """A sorted subset of the x- or t-variables, by 1-based index."""

    kind: str  # 'x' or 't'
    indices: tuple

    def __post_init__(self):
        if self.kind not in ("x", "t"):
            raise ValueError("kind must be 'x' or 't'")
        object.__setattr__(self, "indices", tuple(sorted(self.indices)))
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("indices must be distinct")

    def slots(self, rg):
        pick = rg.x_slot if self.kind == "x" else rg.t_slot
        return [pick(i) for i in self.indices]


def ts(*indices):
    return VarSubset("t", indices)


def x_range(k):
    return VarSubset("x", range(1, k + 1))


def t_range(k):
    return VarSubset("t", range(1, k + 1))


def elem_sym(n, r, vs, sign=1):
    """e_r on the subset; e_0 = 1, e_r = 0 for r < 0 or r > |vs|.

    With sign=-1 the variables are negated first, i.e. e_r(-v) =
    (-1)^r e_r(v)."""
    rg = ring(n)
    if r < 0:
        return rg.zero
    if r == 0:
        return rg.one
    slots = vs.slots(rg)
    if r > len(slots):
        return rg.zero
    out = MPoly(rg.nvars)
    coef = sign ** r
    for combo in combinations(slots, r):
        e = [0] * rg.nvars
        for s in combo:
            e[s] += 1
        out.terms[tuple(e)] = coef
    return out


def complete_sym(n, r, vs, sign=1):
    """h_r on the subset; h_0 = 1, h_r = 0 for r < 0, h_r(empty) = 0 for
    r >= 1.  With sign=-1: h_r(-v) = (-1)^r h_r(v)."""
    rg = ring(n)
    if r < 0:
        return rg.zero
    if r == 0:
        return rg.one
    slots = vs.slots(rg)
    if not slots:
        return rg.zero
    out = MPoly(rg.nvars)
    coef = sign ** r
    for combo in combinations_with_replacement(slots, r):
        e = [0] * rg.nvars
        for s in combo:
            e[s] += 1
        key = tuple(e)
        out.terms[key] = out.terms.get(key, 0) + coef
    return out


def power_sum(n, r, vs):
    """p_r on the subset: the sum of r-th powers."""
    if r < 1:
        raise ValueError("power sums need r >= 1")
    rg = ring(n)
    out = MPoly(rg.nvars)
    for s in vs.slots(rg):
        e = [0] * rg.nvars
        e[s] = r
        out.terms[tuple(e)] = 1
    return out


def schur_hook(n, alpha, beta, vs):
    """Schur polynomial of the hook with arm alpha and leg beta, via the
    alternating sum s = sum_j (-1)^j h_{alpha+1+j} e_{beta-j} coming from
    the Pieri identity h_{a+1} e_b = s_{(1+a,1^b)} + s_{(2+a,1^{b-1})}.

    Shapes with more rows than variables come out as 0 automatically."""
    rg = ring(n)
    if alpha < 0 or beta < 0:
        return rg.zero
    out = rg.zero
    for j in range(beta + 1):
        term = complete_sym(n, alpha + 1 + j, vs) * elem_sym(n, beta - j, vs)
        out = out + (term if j % 2 == 0 else -term)
    return out


def tableau_sum(lam, k, start, times, leaf):
    """Walk the semistandard tableaux of the partition lam with entries
    <= k box by box along the rows, from the partial product `start`.
    times(partial, v, c) multiplies in a box filled with v at content
    c = j - i, or returns None for a zero factor, which drops every
    filling below it; leaf(partial) receives each tableau's product.  An
    entry leaves room for the strictly increasing column below it, so no
    branch dead-ends."""
    room = [k + 1 - sum(p > j for p in lam)  # k + 1 - column height
            for j in range(max(lam, default=0))]
    boxes = []  # (content, largest entry, index of the box left, above)
    for i, part in enumerate(lam):
        for j in range(part):
            boxes.append((j - i, room[j] + i, len(boxes) - 1 if j else -2,
                          len(boxes) - lam[i - 1] if i else -1))
    fill = [0] * len(boxes) + [1, 0]  # sentinels: left of a row, above row 0

    def place(m, partial):
        if m == len(boxes):
            leaf(partial)
            return
        c, top, left, up = boxes[m]
        lo = fill[left]
        if fill[up] >= lo:
            lo = fill[up] + 1
        for v in range(lo, top + 1):
            nxt = times(partial, v, c)
            if nxt is not None:
                fill[m] = v
                place(m + 1, nxt)

    place(0, start)
    del place  # place holds itself: free the walk now, not at the next GC
