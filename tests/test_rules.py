import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flagcsm.bruhat import count_paths, moved_values, sigma_delta
from flagcsm.csm import oracle_product
from flagcsm.exact import MPoly, canonical_str, ring
from flagcsm.perm import (
    Permutation,
    all_permutations,
    cycles_through,
    grassmannian_from_partition,
)
from flagcsm.rules import (
    mn_csm,
    mn_schubert,
    pieri_eh_localized,
    pieri_hook_csm,
    pieri_hook_schubert,
    pieri_schubertclass_csm,
    rigidity_lift_hook,
    rigidity_lift_powersum,
)
from flagcsm.schubert import CohClass, double_schubert, localize
from flagcsm.symfun import (
    VarSubset,
    complete_sym,
    elem_sym,
    power_sum,
    schur_hook,
    t_range,
    ts,
    x_range,
)


def P(s):
    return Permutation.parse(s)


def T(n, *monos):
    """Sum of t-monomials given as index tuples."""
    rg = ring(n)
    out = rg.zero
    for m in monos:
        term = rg.one
        for i in m:
            term = term * rg.t(i)
        out = out + term
    return out


def test_csm_hook_expansion_23154():
    got = pieri_hook_csm(P("23154"), 2, (1, 1))
    n = 5
    rg = ring(n)
    want = {
        "23154": T(n, (2, 2, 3), (2, 3, 3)),
        "53124": T(n, (2, 3), (3, 3), (3, 5)),
        "43152": T(n, (2, 3), (3, 3), (3, 4)),
        "25134": T(n, (2, 2), (2, 3), (2, 5)),
        "24153": T(n, (2, 2), (2, 3), (2, 4)),
        "53142": T(n, (3,)),
        "35124": T(n, (2,), (3,), (5,)),
        "45132": T(n, (2,), (3,), (4,), (5,)),
        "54123": T(n, (2,), (3,), (4,), (5,)),
        "34152": T(n, (2,), (3,), (4,)),
        "25143": T(n, (2,)),
        "45123": rg.one,
        "54132": rg.one,
        "35142": rg.one,
    }
    assert {str(w): c for w, c in got.coeffs.items()} == want


def test_schubert_hook_expansion_23154():
    got = pieri_hook_schubert(P("23154"), 2, (1, 1))
    n = 5
    rg = ring(n)
    want = {
        "23154": T(n, (2, 2, 3), (2, 3, 3)),
        "25134": T(n, (2, 2), (2, 3), (2, 5)),
        "24153": T(n, (2, 2), (2, 3), (2, 4)),
        "35124": T(n, (2,), (3,), (5,)),
        "34152": T(n, (2,), (3,), (4,)),
        "25143": T(n, (2,)),
        "45123": rg.one,
        "35142": rg.one,
    }
    assert {str(w): c for w, c in got.coeffs.items()} == want


def test_chevalley_specialization():
    # hook (1): every k-edge target appears with coefficient 1 plus the
    # diagonal e_1 at t_{u[k]}
    from flagcsm.bruhat import k_edges_from

    n, k = 4, 2
    rg = ring(n)
    for u in all_permutations(n):
        got = pieri_hook_csm(u, k, (0, 0))
        targets = {e.target for e in k_edges_from(u, k)}
        assert set(got.coeffs) - {u} == targets
        for w in targets:
            assert got.coeffs[w] == rg.one
        assert got.coeffs[u] == rg.t(u(1)) + rg.t(u(2))


def test_csm_powersum_expansion_23154():
    got = mn_csm(P("23154"), 2, 3)
    n = 5
    rg = ring(n)
    want = {
        "23154": rg.t(2) ** 3 + rg.t(3) ** 3,
        "53124": T(n, (2, 2), (2, 5), (5, 5)),
        "43152": T(n, (2, 2), (2, 4), (4, 4)),
        "25134": T(n, (3, 3), (3, 5), (5, 5)),
        "24153": T(n, (3, 3), (3, 4), (4, 4)),
        "53142": T(n, (2,), (4,), (5,)),
        "35124": -T(n, (2,), (3,), (5,)),
        "34152": -T(n, (2,), (3,), (4,)),
        "25143": T(n, (3,), (4,), (5,)),
        "54132": -rg.one,
        "35142": -rg.one,
        "45123": -rg.one,
    }
    assert {str(w): c for w, c in got.coeffs.items()} == want


def test_schubert_powersum_expansion_23154():
    got = mn_schubert(P("23154"), 2, 3)
    n = 5
    rg = ring(n)
    want = {
        "23154": rg.t(2) ** 3 + rg.t(3) ** 3,
        "25134": T(n, (3, 3), (3, 5), (5, 5)),
        "24153": T(n, (3, 3), (3, 4), (4, 4)),
        "35124": -T(n, (2,), (3,), (5,)),
        "34152": -T(n, (2,), (3,), (4,)),
        "25143": T(n, (3,), (4,), (5,)),
        "35142": -rg.one,
        "45123": -rg.one,
    }
    assert {str(w): c for w, c in got.coeffs.items()} == want


def test_mn_r1_is_chevalley():
    n, k = 4, 2
    rg = ring(n)
    for u in all_permutations(n)[:8]:
        got = mn_csm(u, k, 1)
        pieri = pieri_hook_csm(u, k, (0, 0))
        assert got.coeffs == pieri.coeffs


HOOKS_2 = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_pieri_hook_vs_oracle_s3_exhaustive():
    n = 3
    for u in all_permutations(n):
        for k in (1, 2):
            for hook in HOOKS_2:
                g = schur_hook(n, hook[0], hook[1], x_range(k))
                assert pieri_hook_csm(u, k, hook).coeffs == \
                    oracle_product(u, g, "csm").coeffs
                assert pieri_hook_schubert(u, k, hook).coeffs == \
                    oracle_product(u, g, "schubert").coeffs


def test_mn_vs_oracle_s3_exhaustive():
    n = 3
    for u in all_permutations(n):
        for k in (1, 2):
            for r in (1, 2, 3):
                g = power_sum(n, r, x_range(k))
                assert mn_csm(u, k, r).coeffs == \
                    oracle_product(u, g, "csm").coeffs
                assert mn_schubert(u, k, r).coeffs == \
                    oracle_product(u, g, "schubert").coeffs


def test_nonequivariant_rules_vs_oracle_s3():
    n = 3
    for u in all_permutations(n):
        for k in (1, 2):
            for hook in HOOKS_2:
                g = schur_hook(n, hook[0], hook[1], x_range(k))
                assert pieri_hook_csm(u, k, hook, equivariant=False).coeffs \
                    == oracle_product(u, g, "csm", equivariant=False).coeffs
            for r in (1, 2):
                g = power_sum(n, r, x_range(k))
                assert mn_csm(u, k, r, equivariant=False).coeffs == \
                    oracle_product(u, g, "csm", equivariant=False).coeffs


def test_signed_unimodal_count_matches_mn():
    # nonequivariant MN coefficient = signed count of unimodal paths of
    # length r, and nonzero only when u^-1 w is a cycle
    from flagcsm.bruhat import enumerate_paths

    n = 4
    for u in all_permutations(n):
        for k in (1, 2, 3):
            for r in (1, 2, 3):
                got = mn_csm(u, k, r, equivariant=False)
                signed = {}
                for w, paths in enumerate_paths(u, k, ("unimodal_len", r)).items():
                    val = sum(-1 if p.stats()[1] % 2 else 1 for p in paths)
                    if val:
                        signed[w] = val
                assert {w: c.constant_value() for w, c in got.coeffs.items()} \
                    == signed
                for w in signed:
                    cyc = u.inverse().compose(w)
                    support = cyc.nonfixed_set()
                    # one orbit covering the whole support
                    orbit = {support[0]}
                    cur = cyc(support[0])
                    while cur != support[0]:
                        orbit.add(cur)
                        cur = cyc(cur)
                    assert orbit == set(support)


def test_lowest_degree_projection_csm_to_schubert():
    # dropping every path that is not a cover chain = taking the lowest
    # degree component; check via coefficient containment on examples
    n, k = 4, 2
    for u in all_permutations(n)[:10]:
        for hook in [(0, 0), (1, 1)]:
            full = pieri_hook_csm(u, k, hook)
            low = pieri_hook_schubert(u, k, hook)
            for w, c in low.coeffs.items():
                assert full.coeffs.get(w) == c


def test_schubertclass_hook_small_consistency():
    # multiplier hook (1): the class representative is x1+..+xk - t1-..-tk
    n, k = 4, 2
    rg = ring(n)
    for u in all_permutations(n)[:8]:
        got = pieri_schubertclass_csm(u, k, (0, 0))
        g = rg.x(1) + rg.x(2) - rg.t(1) - rg.t(2)
        want = oracle_product(u, g, "csm")
        assert got.coeffs == want.coeffs


def test_schubertclass_diag_at_identity():
    # at u = id the diagonal is S_{w_hook}(t, t), which vanishes for any
    # nonidentity w_hook, so the stored coefficient map omits it
    n, k = 4, 2
    u = Permutation.identity(n)
    for hook in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        got = pieri_schubertclass_csm(u, k, hook)
        from flagcsm.perm import grassmannian_from_partition

        w_hook = grassmannian_from_partition((hook[0] + 1,) + (1,) * hook[1], k, n)
        diag = localize(double_schubert(w_hook), u)
        assert diag.is_zero()
        assert got.coeffs.get(u, ring(n).zero) == diag


def test_schubertclass_vs_oracle_s3():
    n = 3
    for u in all_permutations(n):
        for k in (1, 2):
            for hook in HOOKS_2:
                if hook[1] + 1 > k or hook[0] + 1 > n - k:
                    continue
                w_hook = Permutation.identity(n)
                from flagcsm.perm import grassmannian_from_partition

                w_hook = grassmannian_from_partition(
                    (hook[0] + 1,) + (1,) * hook[1], k, n)
                got = pieri_schubertclass_csm(u, k, hook)
                want = oracle_product(u, double_schubert(w_hook), "csm")
                assert got.coeffs == want.coeffs


def test_eh_localized_examples_and_consistency():
    n = 4
    rg = ring(n)
    for u in all_permutations(n)[:8]:
        # r = 0: unit at u
        got = pieri_eh_localized(u, 2, 0, "column")
        assert got.coeffs == {u: rg.one}
    for u in all_permutations(n):
        for k in (1, 2, 3):
            for r in (1, 2):
                if r <= k:
                    a = pieri_eh_localized(u, k, r, "column")
                    b = pieri_schubertclass_csm(u, k, (0, r - 1))
                    assert a.coeffs == b.coeffs
                if k + r <= n:
                    a = pieri_eh_localized(u, k, r, "row")
                    b = pieri_schubertclass_csm(u, k, (r - 1, 0))
                    assert a.coeffs == b.coeffs


def test_eh_localized_remark_formula():
    # explicit product form of the column coefficients
    from itertools import combinations

    from flagcsm.bruhat import enumerate_paths, sigma_delta

    n, k, r = 4, 2, 2
    rg = ring(n)
    for u in all_permutations(n)[:12]:
        got = pieri_eh_localized(u, k, r, "column")
        for rp in range(0, r + 1):
            for w in enumerate_paths(u, k, ("decreasing", rp)):
                delta = sigma_delta(u, w, range(1, k + 1)).delta
                acc = rg.zero
                for idx in combinations(range(1, k - rp + 1), r - rp):
                    term = rg.one
                    for j, i in enumerate(idx, start=1):
                        term = term * (rg.t(delta[i - 1]) - rg.t(i - j + 1))
                    acc = acc + term
                assert got.coeffs.get(w, rg.zero) == acc


def test_eh_localized_choice_independence():
    # any completion of the partial permutation gives the same coefficient
    import itertools

    from flagcsm.bruhat import enumerate_paths, sigma_delta

    n, k, r = 4, 2, 2
    u = P("2143")
    cls = double_schubert(
        grassmannian_from_partition((1,) * (r - 1), k - 1, n))
    for w in enumerate_paths(u, k, ("decreasing", 1)):
        delta = sigma_delta(u, w, range(1, k + 1)).delta
        rest = sorted(set(range(1, n + 1)) - set(delta))
        vals = set()
        for tail in itertools.permutations(rest):
            spot = Permutation(list(delta) + list(tail))
            vals.add(localize(cls, spot))
        assert len(vals) == 1


def test_rigidity_hook_23154():
    # 531642 -> 642531 (k = 3) carries two peakless paths with the same
    # (in, de) = (1, 1), the smallest such repeat
    for u, k in (("23154", 2), ("531642", 3)):
        got = rigidity_lift_hook(P(u), (1, 1), k=k)
        want = pieri_hook_csm(P(u), k, (1, 1))
        assert got.coeffs == want.coeffs


def test_rigidity_powersum_23154():
    got = rigidity_lift_powersum(P("23154"), 3, k=2)
    want = mn_csm(P("23154"), 2, 3)
    assert got.coeffs == want.coeffs


def test_rigidity_t0_recovers_counts():
    n, k = 4, 2
    for u in all_permutations(n)[:6]:
        for hook in [(1, 0), (1, 1)]:
            eq = rigidity_lift_hook(u, hook, k=k).specialize_t0()
            ne = pieri_hook_csm(u, k, hook, equivariant=False)
            eq.coeffs.pop(u, None)  # diagonal vanishes at t=0
            assert eq.coeffs == ne.coeffs


def test_rigidity_general_subset_matches_oracle():
    # rigidity with a non-initial subset A, nonequivariant constants from
    # the oracle, equals the direct equivariant oracle
    from flagcsm.symfun import VarSubset

    n = 3
    A = (1, 3)
    for u in all_permutations(n)[:4]:
        got = rigidity_lift_hook(u, (1, 0), A=A)
        g = schur_hook(n, 1, 0, VarSubset("x", A))
        want = oracle_product(u, g, "csm")
        assert got.coeffs == want.coeffs

        got = rigidity_lift_powersum(u, 2, A=A)
        want = oracle_product(u, power_sum(n, 2, VarSubset("x", A)), "csm")
        assert got.coeffs == want.coeffs


def test_random_s4_rule_oracle_spot_checks():
    rnd = random.Random(41)
    n = 4
    perms = all_permutations(n)
    for _ in range(6):
        u = rnd.choice(perms)
        k = rnd.choice([1, 2, 3])
        hook = rnd.choice(HOOKS_2)
        g = schur_hook(n, hook[0], hook[1], x_range(k))
        assert pieri_hook_csm(u, k, hook).coeffs == \
            oracle_product(u, g, "csm").coeffs
        r = rnd.choice([1, 2, 3])
        assert mn_schubert(u, k, r).coeffs == \
            oracle_product(u, power_sum(n, r, x_range(k)), "schubert").coeffs


# the rules recomputed endpoint by endpoint from the path counts and the
# symfun constructors, with no memo: the rules compute each coefficient
# once per distinct (moved values, counts) key and must agree

def _ref_dress(n, u, w, k, by_stats, alpha, beta):
    sd = sigma_delta(u, w, range(1, k + 1))
    acc = ring(n).zero
    for (pin, pde), cnt in by_stats.items():
        acc = acc + cnt * complete_sym(n, alpha - pin, ts(*sd.sigma)) \
            * elem_sym(n, beta - pde, ts(*sd.delta))
    return acc


def _ref_pieri_hook(u, k, hook, equivariant, cover_only, basis):
    n, (alpha, beta) = u.n, hook
    want = CohClass(basis, equivariant)
    if equivariant:
        want.add(u, schur_hook(n, alpha, beta,
                               VarSubset("t", tuple(u.oneline[:k]))))
    for w, by_stats in count_paths(u, k, ("peakless_le", alpha, beta),
                                   cover_only).items():
        if w == u:
            continue
        if equivariant:
            want.add(w, _ref_dress(n, u, w, k, by_stats, alpha, beta))
        else:
            want.add(w, ring(n).const(by_stats[alpha, beta]))
    return want


def _ref_schubertclass(u, k, hook):
    n, (alpha, beta) = u.n, hook
    want = CohClass("csm", True)
    w_hook = grassmannian_from_partition((alpha + 1,) + (1,) * beta, k, n)
    want.add(u, localize(double_schubert(w_hook), u))
    for w, by_stats in count_paths(u, k, ("peakless_le", alpha, beta)).items():
        if w == u:
            continue
        for a2 in range(alpha + 1):
            for b2 in range(beta + 1):
                want.add(w, elem_sym(n, a2, t_range(k + alpha), sign=-1)
                         * complete_sym(n, b2, t_range(k - beta), sign=-1)
                         * _ref_dress(n, u, w, k, by_stats, alpha - a2,
                                      beta - b2))
    return want


def _ref_mn(u, k, r, equivariant, basis):
    n = u.n
    want = CohClass(basis, equivariant)
    if equivariant:
        want.add(u, power_sum(n, r, VarSubset("t", tuple(u.oneline[:k]))))
    for cyc, eta in cycles_through(u, k, r):
        rp, w = len(cyc) - 1, u.compose(eta)
        if basis == "schubert" and w.length() != u.length() + rp:
            continue
        sign = (-1) ** eta.k_height(k)
        if equivariant:
            want.add(w, sign * complete_sym(n, r - rp,
                                            ts(*moved_values(u, w))))
        elif rp == r:
            want.add(w, ring(n).const(sign))
    return want


def _ref_eh(u, k, r, kind):
    n = u.n
    want = CohClass("csm", True)
    for rp in range(r + 1):
        shape = "decreasing" if kind == "column" else "increasing"
        for w in count_paths(u, k, (shape, rp)):
            sd = sigma_delta(u, w, range(1, k + 1))
            if kind == "column":
                cls = double_schubert(grassmannian_from_partition(
                    (1,) * (r - rp), k - rp, n))
                head = sd.delta
            else:
                cls = double_schubert(grassmannian_from_partition(
                    (r - rp,), k + rp, n))
                head = sd.sigma
            rest = sorted(set(range(1, n + 1)) - set(head))
            want.add(w, localize(cls, Permutation(list(head) + rest)))
    return want


MEMO_CASES = [  # (u, k, hook, r) at n = 6, 7 near the identity
    ("123456", 3, (1, 1), 3), ("213546", 3, (2, 1), 2),
    ("132465", 2, (1, 1), 2), ("124356", 4, (1, 2), 3),
    ("1234567", 3, (2, 1), 3), ("1324657", 4, (1, 1), 2),
]


def test_rules_match_per_endpoint_reference_near_identity():
    for text, k, hook, r in MEMO_CASES:
        u = P(text)
        for eq in (True, False):
            assert pieri_hook_csm(u, k, hook, eq) == \
                _ref_pieri_hook(u, k, hook, eq, False, "csm")
            assert pieri_hook_schubert(u, k, hook, eq) == \
                _ref_pieri_hook(u, k, hook, eq, True, "schubert")
            assert mn_csm(u, k, r, eq) == _ref_mn(u, k, r, eq, "csm")
            assert mn_schubert(u, k, r, eq) == \
                _ref_mn(u, k, r, eq, "schubert")
        assert pieri_schubertclass_csm(u, k, hook) == \
            _ref_schubertclass(u, k, hook)
        for rr in range(1, r + 1):
            if rr <= k:
                assert pieri_eh_localized(u, k, rr, "column") == \
                    _ref_eh(u, k, rr, "column")
            if k + rr <= u.n:
                assert pieri_eh_localized(u, k, rr, "row") == \
                    _ref_eh(u, k, rr, "row")


SHARING_CASES = [("1324657", 3, (1, 1), 3), ("2134576", 4, (2, 1), 2)]


def _expansions_n7(u, k, hook, r):
    """Every expansion of the n = 7 sharing tests: the hook Pieri and MN
    rules in both bases and with and without t, and both localized
    Pieri rules."""
    out = [rule(u, k, hook, eq) for rule in (pieri_hook_csm,
                                             pieri_hook_schubert)
           for eq in (True, False)]
    out += [rule(u, k, r, eq) for rule in (mn_csm, mn_schubert)
            for eq in (True, False)]
    out += [pieri_eh_localized(u, k, r, "column"),
            pieri_eh_localized(u, k, r, "row")]
    return out


def test_shared_coefficients_render_as_fresh_copies_n7():
    for text, k, hook, r in SHARING_CASES:
        for coh in _expansions_n7(P(text), k, hook, r):
            for c in coh.coeffs.values():
                got = canonical_str(c)
                assert got == canonical_str(MPoly(c.nvars, dict(c.terms)))
                assert canonical_str(c) is got


def test_nonequivariant_rules_share_one_object_per_value():
    endpoints = objects = 0
    for text, k, hook, r in SHARING_CASES:
        u = P(text)
        for coh in (pieri_hook_csm(u, k, hook, False),
                    pieri_hook_schubert(u, k, hook, False),
                    mn_csm(u, k, r, False), mn_schubert(u, k, r, False)):
            values = coh.coeffs.values()
            ids = {id(c) for c in values}
            assert len(ids) == len(set(values))
            endpoints += len(values)
            objects += len(ids)
    assert (endpoints, objects) == (529, 13)


def test_specialize_t0_shares_what_its_class_shares():
    for text, k, hook, r in SHARING_CASES:
        u = P(text)
        for eq, ne in ((pieri_hook_csm(u, k, hook), pieri_hook_csm(
                u, k, hook, False)), (mn_csm(u, k, r), mn_csm(u, k, r, False))):
            spec = eq.specialize_t0()
            spec.coeffs.pop(u, None)
            assert spec.coeffs == ne.coeffs
            ids = {id(c) for c in eq.coeffs.values()}
            assert len({id(c) for c in spec.coeffs.values()}) <= len(ids)


# the rules against the oracle on random (u, k, hook, r) at n <= 5; the
# oracle builds its localization tables on demand, and the CSM table of a
# short u at n = 5 takes about a second, so the example count is bounded

_rule_cases = st.integers(3, 5).flatmap(lambda n: st.tuples(
    st.sampled_from(all_permutations(n)), st.integers(1, n - 1),
    st.sampled_from(HOOKS_2), st.integers(1, 3)))


@settings(max_examples=40)
@given(_rule_cases)
def test_rules_match_oracle_random(case):
    u, k, hook, r = case
    n = u.n
    g = schur_hook(n, hook[0], hook[1], x_range(k))
    assert pieri_hook_csm(u, k, hook) == oracle_product(u, g, "csm")
    assert pieri_hook_schubert(u, k, hook) == \
        oracle_product(u, g, "schubert")
    p = power_sum(n, r, x_range(k))
    assert mn_csm(u, k, r) == oracle_product(u, p, "csm")
    assert mn_schubert(u, k, r) == oracle_product(u, p, "schubert")
    if hook[1] + 1 <= k and hook[0] + 1 <= n - k:
        w_hook = grassmannian_from_partition(
            (hook[0] + 1,) + (1,) * hook[1], k, n)
        assert pieri_schubertclass_csm(u, k, hook) == \
            oracle_product(u, double_schubert(w_hook), "csm")
