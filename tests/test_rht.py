from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from flagcsm.exact import (
    CycloElt,
    UPoly,
    limit_ratio_at_root,
    ring,
)
from flagcsm.grassmann import contains
from flagcsm.perm import all_permutations, grassmannian_from_partition
from flagcsm.rht import (
    enumerate_rht,
    hook_lengths,
    rht_count_hook,
    rht_count_limit,
    rht_count_maj,
    rht_sign,
    y_poly,
)
from flagcsm.schubert import localization_table
from reference import billey_localizations


def all_partitions_in(k, cols):
    out = [()]
    def rec(prefix, row, cap):
        if row == k:
            return
        for p in range(cap, 0, -1):
            out.append(tuple(prefix) + (p,))
            rec(prefix + [p], row + 1, p)
    rec([], 0, cols)
    return sorted(set(out))


def standard_tableaux_maj(Lam, lam):
    """Reference listing: the major index of every standard Young tableau
    of Lam/lam, i.e. the sum of i such that box i+1 sits in a strictly
    lower row than box i, one growth chain at a time."""
    Lam, lam = tuple(Lam), tuple(lam) + (0,) * (len(Lam) - len(lam))
    out = []

    def rec(cur, last_row, m, maj):
        if cur == Lam:
            out.append(maj)
            return
        for i in range(len(Lam)):
            if cur[i] < Lam[i] and (i == 0 or cur[i] < cur[i - 1]):
                nxt = cur[:i] + (cur[i] + 1,) + cur[i + 1:]
                rec(nxt, i, m + 1, maj + (m if i > last_row else 0))

    rec(lam, -1, 0, 0)
    return out


@lru_cache(maxsize=None)
def _billey_at(Lam, k, n):
    """Billey's formula at the fixed point of the outer shape, t_i -> z^i:
    {w: S_w|_{w_Lam}} as univariate polynomials."""
    return billey_localizations(
        grassmannian_from_partition(Lam, k, n),
        lambda p, q: UPoly.monomial(p) - UPoly.monomial(q), UPoly([1]))


def reference_y_poly(lam, Lam, k, n):
    """y_poly's definition, the Schubert class of the inner shape localized
    at the outer shape's fixed point with t_i -> z^i, by Billey's formula:
    a sum over subwords of a reduced word, not over tableaux."""
    return _billey_at(Lam, k, n).get(grassmannian_from_partition(lam, k, n),
                                     UPoly())


def skew_pairs(k, cols, r):
    shapes = all_partitions_in(k, cols)
    for Lam in shapes:
        for lam in shapes:
            padded = lam + (0,) * len(Lam)
            if lam != Lam and len(lam) <= len(Lam) and \
                    all(padded[i] <= Lam[i] for i in range(len(Lam))) \
                    and (sum(Lam) - sum(lam)) % r == 0:
                yield Lam, lam


def test_enumerate_examples():
    assert len(enumerate_rht((4, 4, 1), (1,), 2)) == 4
    assert len(enumerate_rht((2, 1), (2, 1), 3)) == 1  # empty tableau
    assert len(enumerate_rht((3, 1), (), 2)) == 1
    assert len(enumerate_rht((2, 2), (), 2)) == 2


def test_sign_examples():
    assert rht_sign((4, 4, 1), (1,), 2) == 1
    assert rht_sign((), (), 2) == 1
    assert rht_sign((3, 1), (), 2) == -1  # the vertical+horizontal chain


def test_sign_parity_invariance():
    for r in (2, 3):
        for Lam, lam in skew_pairs(4, 4, r):
            enumerate_rht(Lam, lam, r)  # raises on parity mismatch


def all_skews(k, cols):
    shapes = all_partitions_in(k, cols)
    return [(Lam, lam) for Lam in shapes for lam in shapes
            if contains(Lam, lam)]


def test_rht_sign_is_first_enumerated_parity():
    for k, cols in ((4, 4), (3, 5)):
        for Lam, lam in all_skews(k, cols):
            for r in range(2, 6):
                if (sum(Lam) - sum(lam)) % r:
                    continue
                tabs = enumerate_rht(Lam, lam, r)
                want = 0 if not tabs else (-1) ** tabs[0].total_height
                assert rht_sign(Lam, lam, r) == want, (Lam, lam, r)
            # one-box hooks have height 0
            assert rht_sign(Lam, lam, 1) == 1


def test_maj_count_matches_listing():
    for k, cols in ((4, 4), (3, 5)):
        for Lam, lam in all_skews(k, cols):
            majs = Counter(standard_tableaux_maj(Lam, lam))
            for r in range(1, 6):
                if (sum(Lam) - sum(lam)) % r:
                    continue
                at_root = CycloElt(r, UPoly())
                for m, times in majs.items():
                    at_root = at_root + times * CycloElt(
                        r, UPoly.monomial(m % r))
                count = rht_count_maj(Lam, lam, r)
                assert at_root == rht_sign(Lam, lam, r) * count, \
                    (Lam, lam, r, count)


def test_y_poly_matches_localized_double_schubert():
    # the reference first meets the localization tables on S4 and S5
    for n in (4, 5):
        rg = ring(n)
        perms = all_permutations(n)
        tables = {w: localization_table("schubert", w) for w in perms}
        for v in perms:
            want = {w: tables[w][v] for w in perms if v in tables[w]}
            assert billey_localizations(
                v, lambda p, q: rg.t(p) - rg.t(q), rg.one) == want, v
    for k, cols in ((3, 3), (4, 4), (2, 5)):
        for Lam, lam in all_skews(k, cols):
            dk = max(len(Lam), 1)
            dn = dk + (Lam[0] if Lam else 1)
            assert y_poly(lam, Lam) == reference_y_poly(lam, Lam, dk, dn), \
                (Lam, lam)
    for Lam, lam, k, n in [((2, 1), (1,), 2, 4), ((2, 1), (), 3, 5),
                           ((2, 2), (1,), 3, 6), ((3, 1), (3,), 2, 5),
                           ((2, 2, 1), (2, 1), 4, 6), ((1,), (1,), 5, 7)]:
        assert y_poly(lam, Lam, k, n) == reference_y_poly(lam, Lam, k, n), \
            (Lam, lam, k, n)


def test_y_poly_examples():
    assert y_poly((), (2, 1)) == UPoly([1])
    got = y_poly((1,), (1,), 1, 2)
    assert got == UPoly([0, -1, 1])  # z^2 - z


def test_y_poly_hook_product_identity():
    # the self-localization is the hook-length product prod (z^h - 1) up
    # to sign and a power of z
    for Lam in all_partitions_in(3, 3):
        if not Lam:
            continue
        got = y_poly(Lam, Lam)
        prod = UPoly([1])
        for h in hook_lengths(Lam):
            prod = prod * (UPoly.monomial(h) - 1)
        # strip the z-power: divide by z^(lowest nonzero coeff index)
        low = next(i for i, c in enumerate(got.coeffs) if c)
        shifted = UPoly(got.coeffs[low:])
        assert shifted == prod or shifted == -prod


def test_rht_count_limit_examples():
    assert rht_count_limit((4, 4, 1), (1,), 2) == 4
    assert rht_count_limit((2, 1), (2, 1), 5) == 1


def test_rht_count_maj_examples():
    assert rht_count_maj((4, 4, 1), (1,), 2) == 4
    assert rht_count_maj((2,), (), 2) == 1
    assert rht_count_maj((1, 1), (), 2) == 1


def test_three_way_agreement_3x3():
    for r in (2, 3):
        for Lam, lam in skew_pairs(3, 3, r):
            ne = len(enumerate_rht(Lam, lam, r))
            nl = rht_count_limit(Lam, lam, r)
            nm = rht_count_maj(Lam, lam, r)
            assert ne == nl == nm, (Lam, lam, r, ne, nl, nm)


def test_limit_is_rectangle_independent():
    for Lam, lam in [((3, 1), ()), ((2, 2), ()), ((3, 2, 1), (1, 1))]:
        if (sum(Lam) - sum(lam)) % 2:
            continue
        a = rht_count_limit(Lam, lam, 2)
        b = rht_count_limit(Lam, lam, 2, k=5, n=10)
        assert a == b


def test_no_pole_in_limit():
    # the scaled ratio never has a pole at the root of unity
    r = 2
    for Lam, lam in skew_pairs(3, 4, r):
        d = (sum(Lam) - sum(lam)) // r
        if d == 0:
            continue
        num = y_poly(lam, Lam) * (UPoly.monomial(r) - 1) ** d
        den = y_poly(Lam, Lam)
        limit_ratio_at_root(num, den, r)  # raises PoleError on a pole


def test_hook_formula_examples():
    assert rht_count_hook((2, 2), 2) == 2
    assert rht_count_hook((3, 1), 2) == 1
    assert rht_count_hook((2, 1, 1), 2) == 1
    # hooks of (4,4,1) divisible by 3 are {6,3,3}: 27*6/54
    assert rht_count_hook((4, 4, 1), 3) == 3


def test_hook_formula_r1_is_classical():
    import math

    for Lam in all_partitions_in(4, 4):
        size = sum(Lam)
        if size == 0 or size > 8:
            continue
        want = len(enumerate_rht(Lam, (), 1))
        prod = 1
        for h in hook_lengths(Lam):
            prod *= h
        assert rht_count_hook(Lam, 1) == math.factorial(size) // prod == want


def test_hook_formula_vs_enumeration_small():
    for Lam in all_partitions_in(4, 4):
        size = sum(Lam)
        for r in (2, 3):
            if size == 0 or size % r:
                continue
            assert rht_count_hook(Lam, r) == len(enumerate_rht(Lam, (), r))


def test_maj_statistic_direct():
    # (2,1): tableaux 12/3 (maj 2) and 13/2 (maj 1)
    assert sorted(standard_tableaux_maj((2, 1), ())) == [1, 2]


def test_complete_sym_at_roots_vanishes():
    # h_i at distinct powers of a primitive root vanishes for
    # r - l < i < r
    from itertools import combinations

    for r in range(2, 9):
        for ell in range(1, r + 1):
            for powers in combinations(range(r), ell):
                for i in range(r - ell + 1, r):
                    # h_i(zeta^a1..zeta^al) via exact cyclotomic arithmetic
                    from itertools import combinations_with_replacement

                    total = CycloElt(r, UPoly())
                    for combo in combinations_with_replacement(powers, i):
                        total = total + CycloElt(
                            r, UPoly.monomial(sum(combo) % r))
                    assert total.is_zero(), (r, ell, powers, i)


def test_principal_specialization_vs_maj():
    # Y_{lam,Lam}/Y_{Lam,Lam} = +- z^g * sum_T z^maj(T) / prod(1 - z^i):
    # cross-multiplied and matched up to a sign and a power of z
    for Lam, lam in [((2, 1), ()), ((2, 2), (1,)), ((3, 2), (1,)),
                     ((3, 3), (2, 1)), ((2, 2, 1), (1, 1))]:
        m = sum(Lam) - sum(lam)
        gen = UPoly()
        for mj in standard_tableaux_maj(Lam, lam):
            gen = gen + UPoly.monomial(mj)
        denom = UPoly([1])
        for i in range(1, m + 1):
            denom = denom * (UPoly([1]) - UPoly.monomial(i))
        lhs = y_poly(lam, Lam) * denom
        rhs = y_poly(Lam, Lam) * gen
        # compare up to sign and a power of z
        lo_l = next(i for i, c in enumerate(lhs.coeffs) if c)
        lo_r = next(i for i, c in enumerate(rhs.coeffs) if c)
        a = UPoly(lhs.coeffs[lo_l:])
        b = UPoly(rhs.coeffs[lo_r:])
        assert a == b or a == -b, (Lam, lam)
