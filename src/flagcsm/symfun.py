"""Symmetric-polynomial constructors on arbitrary variable subsets.

All constructors return `MPoly` values in the shared ring for the
session's n; a subset of variables is a `VarSubset` naming x- or
t-variables by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .exact import MPoly, ring


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


def xs(*indices):
    return VarSubset("x", indices)


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


def _ssyt(shape, maxval):
    """Semistandard tableaux of a partition shape with entries <= maxval,
    as row tuples.  Desk scale only."""
    shape = tuple(shape)
    if not shape:
        yield ()
        return

    def fill(rows, r):
        if r == len(shape):
            yield tuple(rows)
            return
        width = shape[r]
        above = rows[r - 1] if r > 0 else None

        def cells(row, c):
            if c == width:
                yield from fill(rows + [tuple(row)], r + 1)
                return
            lo = row[c - 1] if c > 0 else 1
            if above is not None and c < len(above):
                lo = max(lo, above[c] + 1)
            for v in range(lo, maxval + 1):
                yield from cells(row + [v], c + 1)

        yield from cells([], 0)

    yield from fill([], 0)


def schur_general(n, lam, vs):
    """Schur polynomial of any partition on the subset, by summing over
    semistandard tableaux.  Intended for tests and small shapes."""
    rg = ring(n)
    lam = tuple(p for p in lam if p > 0)
    slots = vs.slots(rg)
    if len(lam) > len(slots):
        return rg.zero
    if not lam:
        return rg.one
    out = MPoly(rg.nvars)
    for tab in _ssyt(lam, len(slots)):
        e = [0] * rg.nvars
        for row in tab:
            for v in row:
                e[slots[v - 1]] += 1
        key = tuple(e)
        out.terms[key] = out.terms.get(key, 0) + 1
    return out
