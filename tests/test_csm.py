import random

import pytest

from flagcsm import csm, schubert
from flagcsm.csm import (
    clear_caches,
    csm_class,
    csm_class_nonequivariant,
    dl_operator,
    expand_in_csm,
    oracle_product,
)
from flagcsm.exact import ring
from flagcsm.perm import Permutation, all_permutations
from flagcsm.schubert import (
    diagonal_factors,
    double_schubert,
    expand_in_schubert,
    localization_table,
    localize,
)
from flagcsm.symfun import power_sum, schur_hook, x_range
from reference import reduced_word, substitute


def P(s):
    return Permutation.parse(s)


def rand_poly(n, rnd, nterms=5, maxdeg=3):
    rg = ring(n)
    p = rg.zero
    for _ in range(nterms):
        term = rg.const(rnd.randint(-2, 2))
        for _ in range(rnd.randint(0, maxdeg)):
            term = term * rg.x(rnd.randint(1, n))
        p = p + term
    return p


def test_dl_operator_example():
    rg = ring(2)
    got = dl_operator(rg.x(1) - rg.t(1), 1, 2)
    assert got == rg.one - rg.x(2) + rg.t(1)


def test_dl_involution_and_braid():
    rnd = random.Random(17)
    for _ in range(25):
        f = rand_poly(3, rnd)
        assert dl_operator(dl_operator(f, 1, 3), 1, 3) == f
        lhs = dl_operator(dl_operator(dl_operator(f, 1, 3), 2, 3), 1, 3)
        rhs = dl_operator(dl_operator(dl_operator(f, 2, 3), 1, 3), 2, 3)
        assert lhs == rhs


def test_dl_leibniz():
    # T_i(fg) = T_i f . s_i g + f . d_i g
    from flagcsm.exact import divided_difference

    rnd = random.Random(23)
    rg = ring(3)
    a, b = rg.x_slot(1), rg.x_slot(2)
    for _ in range(20):
        f, g = rand_poly(3, rnd), rand_poly(3, rnd)
        lhs = dl_operator(f * g, 1, 3)
        rhs = dl_operator(f, 1, 3) \
            * substitute(g, {a: rg.x(2), b: rg.x(1)}) \
            + f * divided_difference(g, a, b)
        assert lhs == rhs


def test_csm_point_class():
    for n in (2, 3):
        w0 = Permutation.longest(n)
        assert csm_class(w0) == double_schubert(w0)


def test_csm_identity_small():
    rg = ring(2)
    got = csm_class(P("12"))
    assert got == rg.one - rg.x(2) + rg.t(1)
    assert localize(got, P("12")) == rg.one + rg.t(1) - rg.t(2)


def test_csm_localization_certificates_s4():
    n = 4
    rg = ring(n)
    idp = Permutation.identity(n)
    prod = rg.one
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            prod = prod * (rg.one + rg.t(i) - rg.t(j))
    for w in all_permutations(n):
        loc = localize(csm_class(w), idp)
        if w == idp:
            assert loc == prod
        else:
            assert loc.is_zero()


def test_csm_word_independence_s4():
    # rebuild each class along a different word of w^-1 w0 and compare
    # basis coefficients (representatives agree on the nose here because
    # the operators are deterministic functions of the polynomial)
    n = 4
    for w in all_permutations(n):
        u = w.inverse().compose(Permutation.longest(n))
        alt = tuple(reversed(reduced_word(u.inverse())))
        cur = double_schubert(Permutation.longest(n))
        for i in reversed(alt):
            cur = dl_operator(cur, i, n)
        assert expand_in_csm(cur - csm_class(w), n).coeffs == {}


def test_csm_lowest_degree_is_schubert_class_s4():
    n = 4
    for w in all_permutations(n):
        f = csm_class(w)
        low = min(sum(e) for e in f.terms)
        assert low == w.length()
        fl = ring(n).zero
        for e, c in f.terms.items():
            if sum(e) == low:
                fl.terms[e] = c
        got = expand_in_schubert(fl, n)
        assert got.coeffs == {w: ring(n).one}


def test_expand_unit():
    n = 3
    for u in all_permutations(n):
        got = expand_in_csm(csm_class(u), n)
        assert got.coeffs == {u: ring(n).one}


def test_expand_csm_times_hook_21():
    # the CSM expansion of csm(23154) * s_(2,1)(x1,x2)
    n = 5
    rg = ring(n)
    t = rg.t
    f = csm_class(P("23154")) * schur_hook(n, 1, 1, x_range(2))
    got = expand_in_csm(f, n)
    want_diag = t(2) ** 2 * t(3) + t(2) * t(3) ** 2  # s_(2,1)(t2,t3)
    assert got.coeffs[P("23154")] == want_diag
    assert got.coeffs[P("53124")] == t(2) * t(3) + t(3) ** 2 + t(3) * t(5)
    assert got.coeffs[P("53142")] == t(3)
    assert got.coeffs[P("45123")] == rg.one
    assert got.coeffs[P("54132")] == rg.one
    assert got.coeffs[P("35142")] == rg.one
    assert len(got.coeffs) == 14


def test_expand_csm_times_p3():
    n = 5
    rg = ring(n)
    t = rg.t
    f = csm_class(P("23154")) * power_sum(n, 3, x_range(2))
    got = expand_in_csm(f, n)
    assert got.coeffs[P("54132")] == -rg.one
    assert got.coeffs[P("43152")] == t(2) ** 2 + t(2) * t(4) + t(4) ** 2
    assert got.coeffs[P("53142")] == t(2) + t(4) + t(5)
    assert len(got.coeffs) == 12


def test_expand_nonequivariant_high_degree():
    # T_w lowers degree by at most l(w) <= 3, so only -3*x1 reaches x = 0
    rg = ring(3)
    x = rg.x
    got = expand_in_csm(x(1) ** 33 * x(2) ** 5 + x(3) ** 40, 3, False)
    assert got.coeffs == {}
    got = expand_in_csm(x(2) ** 12 - 3 * x(1), 3, False)
    assert {str(w): c.constant_value() for w, c in got.coeffs.items()} \
        == {"213": -3, "231": 3, "312": 6, "321": -6}


def test_expand_nonequivariant_rejects_t():
    rg = ring(3)
    for f in (rg.t(1), rg.t(3) ** 2 - rg.x(2), rg.x(1) * rg.t(3),
              rg.x(1) ** 40 * rg.t(2)):
        with pytest.raises(ValueError):
            expand_in_csm(f, 3, False)


def test_oracle_basics():
    n = 3
    idp = Permutation.identity(n)
    got = oracle_product(idp, ring(n).one, "csm")
    assert got.coeffs == {idp: ring(n).one}


def test_oracle_schubert_hook_example():
    n = 5
    got = oracle_product(P("23154"), schur_hook(n, 1, 1, x_range(2)), "schubert")
    rg = ring(n)
    assert got.coeffs[P("45123")] == rg.one
    assert got.coeffs[P("35142")] == rg.one
    assert got.coeffs[P("25143")] == rg.t(2)
    assert len(got.coeffs) == 8


def test_oracle_schubert_powersum_example():
    n = 5
    got = oracle_product(P("23154"), power_sum(n, 3, x_range(2)), "schubert")
    rg = ring(n)
    assert got.coeffs[P("35142")] == -rg.one
    assert got.coeffs[P("45123")] == -rg.one
    assert got.coeffs[P("35124")] == -(rg.t(2) + rg.t(3) + rg.t(5))
    assert len(got.coeffs) == 8


def test_nonequivariant_csm_schubert_positive_s4():
    n = 4
    for w in all_permutations(n):
        got = expand_in_schubert(csm_class_nonequivariant(w), n).specialize_t0()
        for c in got.coeffs.values():
            v = c.constant_value()
            assert v == int(v) and v >= 0


def test_csm_localization_table_matches_representatives():
    # the T_i recursion on localization vectors against localizing the
    # operator-transported representatives; off the support both vanish.
    # The diagonal factors the interpolation divides by multiply out to
    # the diagonal entry.
    for n in (2, 3, 4):
        for w in all_permutations(n):
            table = localization_table("csm", w)
            diag = ring(n).one
            for form in diagonal_factors("csm", w):
                diag = diag * form
            assert table[w] == diag
            for u in all_permutations(n):
                loc = localize(csm_class(w), u)
                if u in table:
                    assert table[u] == loc and not loc.is_zero()
                else:
                    assert loc.is_zero()


def test_oracle_routes_agree_at_t0_s4():
    # the nonequivariant oracle (Demazure-Lusztig transport) against the
    # equivariant one (fixed-point localization) at t = 0, on the
    # multipliers of acceptance criterion C5
    hooks = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    n = 4
    for u in all_permutations(n):
        for k in (1, 2, 3):
            gs = [schur_hook(n, a, b, x_range(k)) for a, b in hooks] \
                + [power_sum(n, r, x_range(k)) for r in (1, 2, 3)]
            for g in gs:
                assert oracle_product(u, g, "csm", False) == \
                    oracle_product(u, g, "csm", True).specialize_t0(), (u, k)


def test_clear_caches():
    n = 4
    u = P("2143")
    g = schur_hook(n, 1, 1, x_range(2))
    want = {b: oracle_product(u, g, b) for b in ("csm", "schubert")}
    csm_class(u)
    tables = (schubert._SCHUB_CACHE, csm._CSM_CACHE, schubert._LOC_TABLE)
    assert all(tables)
    clear_caches()
    assert not any(tables)
    for b, coh in want.items():
        assert oracle_product(u, g, b) == coh


@pytest.mark.parametrize("n", [4, 5])
def test_every_class_is_one_step_from_its_parent(n, monkeypatch):
    # from empty caches, building every class of S_n lowers each w != w0
    # once, from w s_i: n! - 1 operator steps per family, and every memo
    # table ends with one entry per permutation
    steps = {"demazure_i": 0, "dl_operator": 0}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args):
            steps[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    count(schubert, "demazure_i")
    count(csm, "dl_operator")
    clear_caches()
    perms = all_permutations(n)
    for w in perms:
        double_schubert(w)
        csm_class(w)
        for basis in ("schubert", "csm"):
            localization_table(basis, w)
    assert steps == {"demazure_i": len(perms) - 1,
                     "dl_operator": len(perms) - 1}
    tables = [schubert._SCHUB_CACHE[n], csm._CSM_CACHE[n]] + \
        [schubert._LOC_TABLE[n, basis] for basis in ("schubert", "csm")]
    assert [len(t) for t in tables] == [len(perms)] * 4


def test_equivariant_oracle_and_scan_read_only_tables(monkeypatch):
    # the equivariant oracle in both bases and the schubert-expansion scan
    # answer from the localization tables alone: no polynomial
    # representative is built once the caches are empty
    import io

    from flagcsm.cli import main

    n = 4
    u = P("1324")
    g = schur_hook(n, 1, 0, x_range(2))
    want = {b: oracle_product(u, g, b) for b in ("csm", "schubert")}
    clear_caches()

    def no_build(*args):
        raise AssertionError("built a polynomial representative")

    for name in ("flagcsm.schubert.double_schubert",
                 "flagcsm.csm.double_schubert", "flagcsm.csm.csm_class"):
        monkeypatch.setattr(name, no_build)
    for b, coh in want.items():
        assert oracle_product(u, g, b) == coh
    buf = io.StringIO()
    assert main(["scan-positivity", "--n", "3", "--mode",
                 "schubert-expansion"], out=buf) == 0
    assert buf.getvalue() == \
        "ok mode=schubert-expansion n=3 classes=6 violations=0\n"
