import pytest

from flagcsm.perm import (
    Permutation,
    all_permutations,
    coset_decompose,
    cycles_through,
    grassmannian_from_partition,
)
from reference import all_cycles, reduced_word


def P(s):
    return Permutation.parse(s)


def test_length():
    assert P("123").length() == 0
    assert P("321").length() == 3
    assert P("23154").length() == 3


def test_compose_and_inverse():
    u = P("23154")
    assert u.compose(Permutation.transposition(1, 4, 5)) == P("53124")
    assert u.compose(u.inverse()) == Permutation.identity(5)
    eta = Permutation.from_cycle((1, 4, 5), 5)
    assert u.compose(eta) == P("53142")


def test_parse_forms():
    assert P("2,3,1,5,4") == P("23154")
    with pytest.raises(ValueError):
        P("2215")


def test_nonfixed_set():
    assert Permutation.identity(4).nonfixed_set() == ()
    assert Permutation.transposition(2, 5, 5).nonfixed_set() == (2, 5)
    assert Permutation.from_cycle((1, 4, 2, 5), 5).nonfixed_set() == (1, 2, 4, 5)


def test_k_height():
    assert Permutation.transposition(1, 4, 5).k_height(2) == 0
    assert Permutation.from_cycle((1, 2, 4), 5).k_height(2) == 1
    assert Permutation.identity(5).k_height(2) == -1


def test_grassmannian_from_partition():
    assert grassmannian_from_partition((2, 1, 0), 3, 5) == P("13524")
    assert grassmannian_from_partition((), 4, 6) == Permutation.identity(6)
    assert grassmannian_from_partition((4, 2, 2, 0), 4, 9) == P("145823679")
    with pytest.raises(ValueError):
        grassmannian_from_partition((5,), 2, 6)


def test_coset_decompose():
    lam, v = coset_decompose(P("516342"), 4)
    assert lam == (2, 2, 1)
    assert grassmannian_from_partition(lam, 4, 6) == P("135624")

    w = grassmannian_from_partition((2, 1), 2, 4)
    lam, v = coset_decompose(w, 2)
    assert v.is_identity() and lam == (2, 1)


def test_coset_decompose_roundtrip_s4():
    for k in (1, 2, 3):
        for w in all_permutations(4):
            lam, v = coset_decompose(w, k)
            wlam = grassmannian_from_partition(lam, k, 4)
            assert wlam.compose(v) == w
            assert w.length() == wlam.length() + v.length()


def test_reduced_word():
    for n in (2, 3, 4):
        for w in all_permutations(n):
            word = reduced_word(w)
            assert len(word) == w.length()
            acc = Permutation.identity(n)
            for i in word:
                acc = acc.compose(Permutation.transposition(i, i + 1, n))
            assert acc == w


def test_length_parity_of_transposition():
    for w in all_permutations(4):
        for a in range(1, 4):
            for b in range(a + 1, 5):
                t = Permutation.transposition(a, b, 4)
                assert (w.compose(t).length() - w.length()) % 2 == 1


def test_cycles_through_23154():
    u = P("23154")
    got = {cyc for cyc, _ in cycles_through(u, 2, 3)}
    want = {
        (1, 4), (1, 5), (2, 4), (2, 5),
        (1, 4, 5), (1, 2, 4), (1, 2, 5), (2, 4, 5),
        (1, 4, 2, 5), (1, 2, 4, 5), (1, 5, 2, 4),
    }
    assert got == want


def test_cycles_through_trivial():
    u = Permutation.identity(2)
    assert [cyc for cyc, _ in cycles_through(u, 1, 1)] == [(1, 2)]


def test_cycles_through_matches_bruteforce_filter():
    from flagcsm.bruhat import leq_k

    cases = [(P("23154"), 2, 3)]
    cases += [(u, k, r) for u in all_permutations(4) for k in (1, 2, 3)
              for r in (1, 2, 3)]
    for u, k, r in cases:
        brute = [(cyc, eta) for cyc, eta in all_cycles(u.n, 2, r + 1)
                 if leq_k(u, u.compose(eta), k)]
        assert cycles_through(u, k, r) == brute


def test_height_vs_support_in_s5():
    for cyc, eta in all_cycles(5, 2, 5):
        m = eta.nonfixed_set()
        for k in range(1, 5):
            assert eta.k_height(k) + 1 == len([i for i in m if i <= k])
