"""The closed-form rules at n = 6-8 against products built by Monk's rule,
with no code shared with `bruhat` or `symfun` (`perm` only builds the
rules' arguments).

A class is a Schubert vector {one-line tuple w: coefficient of S_w}.  On
these vectors (Aluffi-Mihalcea-Schuermann-Su, arXiv:1709.08697):

    x_i S_w = t_{w(i)} S_w + sum_{b > i} S_{w t_ib} - sum_{a < i} S_{w t_ai}

with both sums over Bruhat covers (the equivariant Monk rule; the first
term drops at t = 0), d_i S_w = S_{w s_i} when w(i) > w(i+1) and 0
otherwise, and csm(w) = T_i csm(w s_i) at the first ascent i of w, from
the point class S_{w0}, with T_i = -1 + (1 + x_i - x_{i+1}) d_i.  A
multiplier is a sum of x-monomials, each applied as a chain of Monk steps.
A CSM expansion sum_w c_w csm(w) is checked by rebuilding its Schubert
vector, so nothing is ever divided.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from flagcsm.exact import ring
from flagcsm.perm import Permutation, all_permutations
from flagcsm.rules import mn_csm, mn_schubert, pieri_hook_csm, \
    pieri_hook_schubert
from flagcsm.schubert import double_schubert, expand_in_schubert


def _add(vec, w, c):
    s = vec.get(w, 0) + c
    if s == 0:
        vec.pop(w, None)
    else:
        vec[w] = s


def _swap(w, a, b):
    w = list(w)
    w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
    return tuple(w)


def _is_cover(w, a, b):
    """Positions a < b with w(a) < w(b) and no value between the two at a
    position between them."""
    lo, hi = w[a - 1], w[b - 1]
    return lo < hi and not any(lo < v < hi for v in w[a:b - 1])


def monk(vec, i, t):
    """x_i times a Schubert vector; t maps j to t_j, or is None at t = 0."""
    out = {}
    for w, c in vec.items():
        if t is not None:
            _add(out, w, c * t[w[i - 1]])
        for b in range(i + 1, len(w) + 1):
            if _is_cover(w, i, b):
                _add(out, _swap(w, i, b), c)
        for a in range(1, i):
            if _is_cover(w, a, i):
                _add(out, _swap(w, a, i), -c)
    return out


def times_polynomial(vec, terms, t):
    """vec times sum c x^e over terms {(e_1, .., e_m): c}, Horner-style in
    x_1, then x_2, ..."""
    def rec(v, terms, i):
        if () in terms:
            return {w: c * terms[()] for w, c in v.items()}
        by_first = {}
        for e, c in terms.items():
            by_first.setdefault(e[0], {})[e[1:]] = c
        out = {}
        top = max(by_first)
        for d in range(top + 1):
            if d in by_first:
                for w, c in rec(v, by_first[d], i + 1).items():
                    _add(out, w, c)
            if d < top:
                v = monk(v, i, t)
        return out

    return rec(vec, terms, 1)


def hook_schur_terms(k, alpha, beta):
    """s_(1+alpha, 1^beta)(x_1..x_k) as exponent tuples: one per
    semistandard hook tableau, its column strictly increasing and its arm
    weakly increasing from the corner."""
    terms = Counter()
    for column in combinations(range(1, k + 1), beta + 1):
        for arm in combinations_with_replacement(range(column[0], k + 1),
                                                 alpha):
            e = [0] * k
            for v in column + arm:
                e[v - 1] += 1
            terms[tuple(e)] += 1
    return dict(terms)


def power_sum_terms(k, r):
    return {tuple(r if j == i else 0 for j in range(k)): 1 for i in range(k)}


def csm_vectors(n, t):
    """csm(w) as a Schubert vector, memoized along the ascent chains."""
    memo = {}

    def csm(w):
        if w not in memo:
            i = next((i for i in range(1, n) if w[i - 1] < w[i]), None)
            if i is None:
                memo[w] = {w: 1}
            else:
                v = csm(_swap(w, i, i + 1))
                d = {_swap(x, i, i + 1): c for x, c in v.items()
                     if x[i - 1] > x[i]}
                out = {x: -c for x, c in v.items()}
                for part, sign in ((d, 1), (monk(d, i, t), 1),
                                   (monk(d, i + 1, t), -1)):
                    for x, c in part.items():
                        _add(out, x, sign * c)
                memo[w] = out
        return memo[w]

    return csm


def _check(u, k, rules, terms, equivariant):
    """Each rule's expansion of csm(u) (or S_u) times the multiplier,
    rebuilt as a Schubert vector, equals the Monk product."""
    n = len(u)
    rg = ring(n)
    t = {j: rg.t(j) for j in range(1, n + 1)} if equivariant else None
    csm = csm_vectors(n, t)
    for basis, rule in rules:
        got = rule(Permutation(u), k, equivariant)
        coeffs = {w.oneline: c if equivariant else c.constant_value()
                  for w, c in got.coeffs.items()}
        if basis == "schubert":
            want, rebuilt = times_polynomial({u: 1}, terms, t), coeffs
        else:
            want = times_polynomial(csm(u), terms, t)
            rebuilt = {}
            for w, c in coeffs.items():
                for x, a in csm(w).items():
                    _add(rebuilt, x, c * a)
        assert want and rebuilt == want, (u, k, basis, equivariant)


def _pieri(hook):
    return [("csm", lambda u, k, eq: pieri_hook_csm(u, k, hook, eq)),
            ("schubert", lambda u, k, eq: pieri_hook_schubert(u, k, hook, eq))]


def _mn(r):
    return [("csm", lambda u, k, eq: mn_csm(u, k, r, eq)),
            ("schubert", lambda u, k, eq: mn_schubert(u, k, r, eq))]


def test_monk_matches_expand_in_schubert_s4():
    # the helper against the library's polynomial route, both at t = 0 and
    # equivariantly, for every w and i in S4
    n = 4
    rg = ring(n)
    t = {j: rg.t(j) for j in range(1, n + 1)}
    for w in all_permutations(n):
        for i in range(1, n + 1):
            want = expand_in_schubert(rg.x(i) * double_schubert(w), n)
            got = monk({w.oneline: 1}, i, t)
            assert {x.oneline: c for x, c in want.coeffs.items()} == got


# (u, k, multiplier); u = 531642 with k = 3 is the smallest case with a
# path count above 1 (two peakless paths to 642531 at hook (1, 1))
CASES_T0 = [
    ("531642", 3, ("hook", (1, 1))),
    ("531642", 3, ("power", 3)),
    ("1625734", 3, ("hook", (1, 1))),
    ("1653274", 4, ("hook", (2, 1))),
    ("1527364", 2, ("power", 4)),
    ("45372168", 4, ("hook", (1, 2))),
    ("42736185", 3, ("hook", (2, 0))),
    ("63172485", 4, ("hook", (1, 1))),
    ("68231457", 4, ("power", 3)),
    ("51648372", 5, ("power", 2)),
]

CASES_EQUIVARIANT = [
    ("531642", 3, ("hook", (1, 1))),
    ("531642", 3, ("hook", (2, 1))),
    ("531642", 3, ("power", 2)),
    ("642513", 2, ("power", 3)),
    ("642513", 4, ("hook", (0, 2))),
]


def _multiplier(k, kind, param):
    if kind == "hook":
        return _pieri(param), hook_schur_terms(k, *param)
    return _mn(param), power_sum_terms(k, param)


@pytest.mark.parametrize("u, k, mult", CASES_T0)
def test_rules_match_monk_at_t0(u, k, mult):
    rules, terms = _multiplier(k, *mult)
    _check(tuple(map(int, u)), k, rules, terms, equivariant=False)


@pytest.mark.parametrize("u, k, mult", CASES_EQUIVARIANT)
def test_rules_match_monk_equivariant_n6(u, k, mult):
    rules, terms = _multiplier(k, *mult)
    _check(tuple(map(int, u)), k, rules, terms, equivariant=True)
