import random

from hypothesis import given
from hypothesis import strategies as st

from flagcsm.exact import MPoly, at_t0, ring
from flagcsm.perm import Permutation, all_permutations, grassmannian_from_partition
from flagcsm.schubert import (
    demazure_i,
    diagonal_factors,
    double_schubert,
    expand_in_schubert,
    grassmannian_restriction,
    localization_table,
    localize,
)
from flagcsm.symfun import x_range
from reference import billey_localizations, giambelli_hook, molev_class, \
    reduced_word, schur_general, substitute


def P(s):
    return Permutation.parse(s)


def rand_poly(n, rnd, nterms=5, maxdeg=3):
    rg = ring(n)
    p = rg.zero
    for _ in range(nterms):
        term = rg.const(rnd.randint(-3, 3))
        for _ in range(rnd.randint(0, maxdeg)):
            i = rnd.randint(1, n)
            term = term * (rg.x(i) if rnd.random() < 0.7 else rg.t(i))
        p = p + term
    return p


def test_demazure_basics():
    rg = ring(3)
    assert demazure_i(rg.x(1), 1, 3) == rg.one
    assert demazure_i(rg.x(1) * rg.x(2), 1, 3).is_zero()


def test_demazure_square_zero_and_braid():
    rnd = random.Random(11)
    for _ in range(25):
        f = rand_poly(3, rnd)
        assert demazure_i(demazure_i(f, 1, 3), 1, 3).is_zero()
        lhs = demazure_i(demazure_i(demazure_i(f, 1, 3), 2, 3), 1, 3)
        rhs = demazure_i(demazure_i(demazure_i(f, 2, 3), 1, 3), 2, 3)
        assert lhs == rhs


def test_double_schubert_base_cases():
    rg = ring(2)
    assert double_schubert(P("21")) == rg.x(1) - rg.t(1)
    assert double_schubert(Permutation.identity(3)) == ring(3).one


def test_double_schubert_grassmannian_is_schur_at_t0():
    w = P("13524")
    assert at_t0(double_schubert(w)) == schur_general(5, (2, 1), x_range(3))


def test_double_schubert_word_independence():
    # recompute each S_w along a different chain: via the inverse's word
    # reflected through position swaps applied in reverse
    from flagcsm.exact import divided_difference

    n = 4
    rg = ring(n)
    w0 = Permutation.longest(n)
    for w in all_permutations(n):
        v = w0.compose(w)
        # alternative word: reverse of the deterministic word of v^{-1},
        # which is again a reduced word for v
        alt = tuple(reversed(reduced_word(v.inverse())))
        cur = double_schubert(w0)
        node = w0
        for i in alt:
            node = node.compose(Permutation.transposition(i, i + 1, n))
            cur = divided_difference(cur, rg.x_slot(i), rg.x_slot(i + 1))
        assert node == w
        assert cur == double_schubert(w)


def test_localize_examples():
    rg = ring(2)
    assert localize(rg.x(1), P("21")) == rg.t(2)
    assert localize(double_schubert(P("21")), P("21")) == rg.t(2) - rg.t(1)


def _polys_on(n):
    nvars = ring(n).nvars
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars),
                           st.integers(-5, 5).filter(bool), max_size=6).map(
        lambda terms: MPoly(nvars, terms))


@given(st.sampled_from([3, 4]).flatmap(_polys_on))
def test_localize_is_substitution(f):
    # every w in S_n: the exponent surgery equals x_i -> t_{w(i)} as a
    # ring homomorphism, and leaves no x exponent behind
    n = f.nvars // 2
    rg = ring(n)
    for w in all_permutations(n):
        got = localize(f, w)
        assert got == substitute(f, {rg.x_slot(i): rg.t(w(i))
                                     for i in range(1, n + 1)})
        assert not any(any(e[:n]) for e in got.terms)


def test_localization_vanishing_s3():
    # S_u at w vanishes unless u is below w in Bruhat order, detected here
    # by exhaustive comparison against subword reachability
    def bruhat_leq(u, w):
        # u <= w iff some reduced word of w contains one of u (checked by
        # the standard subword test on the deterministic word of w)
        word = reduced_word(w)
        n = u.n
        target = u

        def rec(idx, cur):
            if cur == target:
                return True
            if idx == len(word):
                return False
            if rec(idx + 1, cur):
                return True
            i = word[idx]
            nxt = cur.compose(Permutation.transposition(i, i + 1, n))
            if nxt.length() == cur.length() + 1 and rec(idx + 1, nxt):
                return True
            return False

        return rec(0, Permutation.identity(n))

    # subword property: scan letters of w's word left to right
    for n in (3, 4):
        for u in all_permutations(n):
            su = double_schubert(u)
            for w in all_permutations(n):
                vanishes = localize(su, w).is_zero()
                assert vanishes == (not bruhat_leq(u, w))


def test_diagonal_factors_match_localization():
    for n in (2, 3, 4):
        for u in all_permutations(n):
            prod = ring(n).one
            for f in diagonal_factors("schubert", u):
                prod = prod * f
            assert prod == localize(double_schubert(u), u)


def test_schubert_localization_table_matches_representatives():
    # the localized d_i recursion against localizing the divided-difference
    # representatives at every pair of S4 and S5: a point is a key of the
    # table exactly when the localization there is nonzero
    for n in (4, 5):
        perms = all_permutations(n)
        for v in perms:
            table = localization_table("schubert", v)
            sv = double_schubert(v)
            for u in perms:
                loc = localize(sv, u)
                if u in table:
                    assert table[u] == loc and not loc.is_zero(), (v, u)
                else:
                    assert loc.is_zero(), (v, u)


def test_expand_unit_and_roundtrip():
    n = 3
    for w in all_permutations(n):
        got = expand_in_schubert(double_schubert(w), n)
        assert list(got.coeffs) == [w]
        assert got.coeffs[w] == ring(n).one

    rnd = random.Random(3)
    rg = ring(n)
    for _ in range(5):
        # random class: random t-polynomial coefficients on a few Schuberts
        cls = {}
        f = rg.zero
        for w in rnd.sample(all_permutations(n), 4):
            c = rg.const(rnd.randint(1, 3)) + rg.t(rnd.randint(1, n))
            cls[w] = c
            f = f + c * double_schubert(w)
        got = expand_in_schubert(f, n)
        assert got.coeffs == cls


def test_expand_x1_squared():
    n = 3
    rg = ring(n)
    got = expand_in_schubert(rg.x(1) * rg.x(1), n).specialize_t0()
    assert got.coeffs == {P("312"): ring(n).one}
    assert at_t0(double_schubert(P("312"))) == rg.x(1) * rg.x(1)


def test_expand_chevalley_coefficients():
    # (x1+x2) * S_23154: covers of 23154 in the 2-Bruhat order get 1,
    # the diagonal picks up t2+t3
    from flagcsm.bruhat import k_edges_from

    n, k = 5, 2
    rg = ring(n)
    u = P("23154")
    f = (rg.x(1) + rg.x(2)) * double_schubert(u)
    got = expand_in_schubert(f, n)
    assert got.coeffs[u] == rg.t(2) + rg.t(3)
    covers = {e.target for e in k_edges_from(u, k, cover_only=True)}
    for w in covers:
        assert got.coeffs[w] == rg.one
    assert set(got.coeffs) == covers | {u}


def test_giambelli_hook_examples():
    rg = ring(2)
    assert giambelli_hook(0, 0, 1, 2) == rg.x(1) - rg.t(1)

    # one-column hooks agree with the column-class representative
    for k, r, n in [(2, 1, 4), (2, 2, 4), (3, 2, 5)]:
        assert giambelli_hook(0, r - 1, k, n) == molev_class("column", k, r, n)


def test_giambelli_hook_expands_to_schubert_class():
    n, k = 4, 2
    for alpha in range(2):
        for beta in range(2):
            w_hook = grassmannian_from_partition(
                (alpha + 1,) + (1,) * beta, k, n)
            got = expand_in_schubert(giambelli_hook(alpha, beta, k, n), n)
            assert got.coeffs == {w_hook: ring(n).one}


def test_molev_classes():
    rg = ring(3)
    assert molev_class("column", 2, 0, 3) == rg.one
    assert molev_class("column", 2, 1, 3) == \
        (rg.x(1) - rg.t(1)) + (rg.x(2) - rg.t(2))
    assert molev_class("row", 2, 1, 3) == \
        (rg.x(1) - rg.t(1)) + (rg.x(2) - rg.t(2))

    # representatives expand to exactly the column/row Schubert classes
    for k, r, n in [(2, 1, 4), (2, 2, 4), (1, 2, 4)]:
        if r <= k:
            got = expand_in_schubert(molev_class("column", k, r, n), n)
            w = grassmannian_from_partition((1,) * r, k, n)
            assert got.coeffs == {w: ring(n).one}
        if k + r <= n:
            got = expand_in_schubert(molev_class("row", k, r, n), n)
            w = grassmannian_from_partition((r,), k, n)
            assert got.coeffs == {w: ring(n).one}


def test_grassmannian_fastpath_matches_chain():
    # the tableau formula (used for n >= 6) agrees with the chain for all
    # Grassmannian permutations in S_4 and S_5
    from flagcsm.perm import coset_decompose
    from flagcsm.schubert import _grassmannian_tableau_schubert

    for n in (4, 5):
        for w in all_permutations(n):
            desc = w.descents()
            if len(desc) != 1:
                continue
            assert _grassmannian_tableau_schubert(w, desc[0]) == double_schubert(w)


def _grassmannian_classes(n):
    """(lam, k, w_lam) for every partition lam in every k x (n - k) box."""
    from flagcsm.perm import coset_decompose

    for w in all_permutations(n):
        for k in range(1, n):
            if all(w(i) < w(i + 1) for i in range(1, n) if i != k):
                yield coset_decompose(w, k)[0], k, w


def test_grassmannian_restriction_matches_divided_differences_s5():
    # all 3,600 (class, point) pairs of S5, k = 1..4
    pairs = 0
    for lam, k, w in _grassmannian_classes(5):
        cls = double_schubert(w)
        for u in all_permutations(5):
            assert grassmannian_restriction(lam, u.oneline[:k], 5) == \
                localize(cls, u), (lam, k, u)
            pairs += 1
    assert pairs == 3600


def test_billey_pruned_to_one_target_matches_the_full_sum_s5():
    rg = ring(5)
    perms = all_permutations(5)
    for v in random.Random(5).sample(perms, 12):
        full = billey_localizations(v, lambda p, q: rg.t(p) - rg.t(q), rg.one)
        for w in perms:
            got = billey_localizations(
                v, lambda p, q: rg.t(p) - rg.t(q), rg.one, w)
            assert got == ({w: full[w]} if w in full else {}), (v, w)


def test_grassmannian_restriction_matches_billey_n6_n7():
    # 1,320 sampled pairs against Billey's formula, a sum over subwords of
    # a reduced word of the point that walks no tableau
    rnd = random.Random(7)
    for n in (6, 7):
        rg = ring(n)
        classes = list(_grassmannian_classes(n))
        perms = all_permutations(n)
        for lam, k, w in rnd.sample(classes, 33):
            for u in rnd.sample(perms, 20):
                want = billey_localizations(
                    u, lambda p, q: rg.t(p) - rg.t(q), rg.one, w)
                assert grassmannian_restriction(lam, u.oneline[:k], n) == \
                    want.get(w, rg.zero), (lam, k, u)
