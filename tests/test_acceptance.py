"""Acceptance suite: one test per criterion, exact expected values, zero
tolerance (all arithmetic is exact).  Each test prints a PASS line; run
with `pytest tests/test_acceptance.py -v` (add -s to see the lines as
they complete)."""

import io
import random
import time

from flagcsm.bruhat import enumerate_paths, leq_k, unique_unimodal_path
from flagcsm.cli import main
from flagcsm.csm import csm_class, oracle_product
from flagcsm.exact import ring
from flagcsm.grassmann import (
    parabolic_mn,
    parabolic_pieri,
    pushforward,
)
from flagcsm.perm import (
    Permutation,
    all_permutations,
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
from flagcsm.rht import enumerate_rht, rht_count_hook, rht_count_limit, rht_count_maj
from flagcsm.schubert import double_schubert, expand_in_schubert, localize
from flagcsm.symfun import power_sum, schur_hook, x_range
from reference import all_cycles


def P(s):
    return Permutation.parse(s)


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def T(n, *monos):
    rg = ring(n)
    out = rg.zero
    for m in monos:
        term = rg.one
        for i in m:
            term = term * rg.t(i)
        out = out + term
    return out


HOOKS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


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


def partitions_of(m):
    if m == 0:
        yield ()
        return

    def rec(rest, cap, prefix):
        if rest == 0:
            yield tuple(prefix)
            return
        for p in range(min(cap, rest), 0, -1):
            yield from rec(rest - p, p, prefix + [p])

    yield from rec(m, m, [])


def test_criterion_01_csm_hook_expansion():
    start = time.time()
    code, got = run_cli(["pieri", "--n", "5", "--k", "2", "--u", "23154",
                         "--alpha", "1", "--beta", "1", "--basis", "csm",
                         "--equivariant", "on"])
    elapsed = time.time() - start
    assert code == 0
    lines = got.strip().splitlines()
    rows = {ln.split()[0 if not ln.startswith("diagonal") else 1]:
            ln.split()[-1] for ln in lines[1:]}
    want = {
        "23154": "t2^2*t3+t2*t3^2",
        "53124": "t2*t3+t3^2+t3*t5",
        "43152": "t2*t3+t3^2+t3*t4",
        "25134": "t2^2+t2*t3+t2*t5",
        "24153": "t2^2+t2*t3+t2*t4",
        "53142": "t3",
        "35124": "t2+t3+t5",
        "45132": "t2+t3+t4+t5",
        "54123": "t2+t3+t4+t5",
        "34152": "t2+t3+t4",
        "25143": "t2",
        "45123": "1",
        "54132": "1",
        "35142": "1",
    }
    assert rows == want
    assert elapsed < 5.0
    print("ACCEPTANCE C1 PASS: CSM hook expansion at 23154 exact (%.2fs)" % elapsed)


def test_criterion_02_schubert_hook_expansion():
    code, got = run_cli(["pieri", "--n", "5", "--k", "2", "--u", "23154",
                         "--alpha", "1", "--beta", "1", "--basis", "schubert"])
    assert code == 0
    lines = got.strip().splitlines()[1:]
    rows = {ln.split()[0 if not ln.startswith("diagonal") else 1]:
            ln.split()[-1] for ln in lines}
    want = {
        "23154": "t2^2*t3+t2*t3^2",
        "25134": "t2^2+t2*t3+t2*t5",
        "24153": "t2^2+t2*t3+t2*t4",
        "35124": "t2+t3+t5",
        "34152": "t2+t3+t4",
        "25143": "t2",
        "45123": "1",
        "35142": "1",
    }
    assert rows == want and len(rows) == 8
    print("ACCEPTANCE C2 PASS: 8-term Schubert hook expansion exact")


def test_criterion_03_powersum_expansions():
    start = time.time()
    code, got = run_cli(["mn", "--n", "5", "--k", "2", "--u", "23154",
                         "--r", "3", "--basis", "csm"])
    assert code == 0
    lines = got.strip().splitlines()[1:]
    rows = {ln.split()[0 if not ln.startswith("diagonal") else 1]:
            ln.split()[-1] for ln in lines}
    want = {
        "23154": "t2^3+t3^3",
        "53124": "t2^2+t2*t5+t5^2",
        "43152": "t2^2+t2*t4+t4^2",
        "25134": "t3^2+t3*t5+t5^2",
        "24153": "t3^2+t3*t4+t4^2",
        "53142": "t2+t4+t5",
        "35124": "-t2-t3-t5",
        "34152": "-t2-t3-t4",
        "25143": "t3+t4+t5",
        "54132": "-1",
        "35142": "-1",
        "45123": "-1",
    }
    assert rows == want

    code, got = run_cli(["mn", "--n", "5", "--k", "2", "--u", "23154",
                         "--r", "3", "--basis", "schubert"])
    assert code == 0
    lines = got.strip().splitlines()[1:]
    rows = {ln.split()[0 if not ln.startswith("diagonal") else 1]:
            ln.split()[-1] for ln in lines}
    want = {
        "23154": "t2^3+t3^3",
        "25134": "t3^2+t3*t5+t5^2",
        "24153": "t3^2+t3*t4+t4^2",
        "35124": "-t2-t3-t5",
        "34152": "-t2-t3-t4",
        "25143": "t3+t4+t5",
        "35142": "-1",
        "45123": "-1",
    }
    assert rows == want and len(rows) == 8
    elapsed = time.time() - start
    assert elapsed < 5.0
    print("ACCEPTANCE C3 PASS: CSM and Schubert power-sum expansions at 23154 exact "
          "(%.2fs)" % elapsed)


def test_criterion_04_kbruhat_graphs_s3():
    want_left = {
        ("123", "213", "1", False),
        ("123", "321", "1", True),
        ("132", "312", "1", False),
        ("132", "231", "1", False),
        ("213", "312", "2", False),
        ("231", "321", "2", False),
    }
    want_right = {
        ("123", "132", "2", False),
        ("123", "321", "1", True),
        ("132", "231", "1", False),
        ("213", "231", "1", False),
        ("213", "312", "2", False),
        ("312", "321", "1", False),
    }

    def edges_of(dot):
        out = set()
        for ln in dot.splitlines():
            if "->" not in ln:
                continue
            src = ln.split('"')[1]
            tgt = ln.split('"')[3]
            lab = ln.split('label="')[1].split('"')[0]
            out.add((src, tgt, lab, "dashed" in ln))
        return out

    code, left = run_cli(["graph", "--n", "3", "--k", "1"])
    assert code == 0 and edges_of(left) == want_left
    code, right = run_cli(["graph", "--n", "3", "--k", "2"])
    assert code == 0 and edges_of(right) == want_right
    print("ACCEPTANCE C4 PASS: S3 k-Bruhat edge sets exact, dashed on non-covers")


def test_criterion_05_oracle_equivalence():
    start = time.time()
    n = 4
    for u in all_permutations(n):
        for k in (1, 2, 3):
            for hook in HOOKS:
                g = schur_hook(n, hook[0], hook[1], x_range(k))
                assert pieri_hook_csm(u, k, hook).coeffs == \
                    oracle_product(u, g, "csm").coeffs, (u, k, hook)
                assert pieri_hook_schubert(u, k, hook).coeffs == \
                    oracle_product(u, g, "schubert").coeffs, (u, k, hook)
            for r in (1, 2, 3):
                g = power_sum(n, r, x_range(k))
                assert mn_csm(u, k, r).coeffs == \
                    oracle_product(u, g, "csm").coeffs, (u, k, r)
                assert mn_schubert(u, k, r).coeffs == \
                    oracle_product(u, g, "schubert").coeffs, (u, k, r)
    mid = time.time()

    rnd = random.Random(20250809)
    n = 5
    perms = all_permutations(n)
    cases = []
    for kind in ("pieri_csm", "pieri_schubert"):
        for _ in range(13):
            k = rnd.randint(1, 4)
            hooks = [h for h in HOOKS if h[1] + 1 <= k]
            cases.append((kind, rnd.choice(perms), k, rnd.choice(hooks)))
    for kind in ("mn_csm", "mn_schubert"):
        for _ in range(12):
            cases.append((kind, rnd.choice(perms), rnd.randint(1, 4),
                          rnd.randint(1, 3)))
    assert len(cases) == 50
    for kind, u, k, param in cases:
        if kind == "pieri_csm":
            g = schur_hook(n, param[0], param[1], x_range(k))
            assert pieri_hook_csm(u, k, param).coeffs == \
                oracle_product(u, g, "csm").coeffs, (kind, u, k, param)
        elif kind == "pieri_schubert":
            g = schur_hook(n, param[0], param[1], x_range(k))
            assert pieri_hook_schubert(u, k, param).coeffs == \
                oracle_product(u, g, "schubert").coeffs, (kind, u, k, param)
        elif kind == "mn_csm":
            g = power_sum(n, param, x_range(k))
            assert mn_csm(u, k, param).coeffs == \
                oracle_product(u, g, "csm").coeffs, (kind, u, k, param)
        else:
            g = power_sum(n, param, x_range(k))
            assert mn_schubert(u, k, param).coeffs == \
                oracle_product(u, g, "schubert").coeffs, (kind, u, k, param)
    elapsed = time.time() - start
    assert elapsed < 600.0
    print("ACCEPTANCE C5 PASS: rules = oracle on all of S4 (%.0fs) and 50 "
          "random S5 instances (%.0fs total)" % (mid - start, elapsed))


def test_criterion_06_rigidity():
    n = 4
    for u in all_permutations(n):
        for k in (1, 2, 3):
            for hook in HOOKS:
                eq = pieri_hook_csm(u, k, hook)
                assert rigidity_lift_hook(u, hook, k=k).coeffs == eq.coeffs
                ne = pieri_hook_csm(u, k, hook, equivariant=False)
                spec = eq.specialize_t0()
                spec.coeffs.pop(u, None)
                assert spec.coeffs == ne.coeffs
                eqs = pieri_hook_schubert(u, k, hook)
                nes = pieri_hook_schubert(u, k, hook, equivariant=False)
                specs = eqs.specialize_t0()
                specs.coeffs.pop(u, None)
                assert specs.coeffs == nes.coeffs
            for r in (1, 2, 3):
                eq = mn_csm(u, k, r)
                assert rigidity_lift_powersum(u, r, k=k).coeffs == eq.coeffs
                ne = mn_csm(u, k, r, equivariant=False)
                spec = eq.specialize_t0()
                spec.coeffs.pop(u, None)
                assert spec.coeffs == ne.coeffs
                specs = mn_schubert(u, k, r).specialize_t0()
                specs.coeffs.pop(u, None)
                assert specs.coeffs == \
                    mn_schubert(u, k, r, equivariant=False).coeffs
    print("ACCEPTANCE C6 PASS: rigidity lifts and t=0 specializations "
          "exact on the S4 grid")


def test_criterion_07_path_theorems():
    # uniqueness of monotone paths (S4)
    n = 4
    for u in all_permutations(n):
        for k in (1, 2, 3):
            for shape in ("decreasing", "increasing"):
                seen = set()
                for r in range(0, 5):
                    for w, ps in enumerate_paths(u, k, (shape, r)).items():
                        assert len(ps) == 1 and w not in seen
                        seen.add(w)
    # unique unimodal path with de = k-height, all admissible cycles in S5
    n = 5
    cyc5 = all_cycles(n, 2, 5)
    for u in all_permutations(n):
        for k in (1, 2, 3, 4):
            by_len = {m: enumerate_paths(u, k, ("unimodal_len", m))
                      for m in (1, 2, 3, 4)}
            for cyc, eta in cyc5:
                w = u.compose(eta)
                if not leq_k(u, w, k):
                    continue
                m = len(cyc) - 1
                paths = by_len[m].get(w, [])
                assert len(paths) == 1, (u, k, cyc)
                assert paths[0].stats()[1] == eta.k_height(k)
                built = unique_unimodal_path(u, eta, k)
                assert built.labels == paths[0].labels
    # peakless/unimodal equidistribution on all S4 pairs
    n = 4
    for u in all_permutations(n):
        for k in (1, 2, 3):
            for a in range(0, 4):
                for b in range(0, 4 - a):
                    pk = enumerate_paths(u, k, ("peakless", a, b))
                    un = enumerate_paths(u, k, ("unimodal", a, b))
                    assert {w: len(ps) for w, ps in pk.items()} == \
                        {w: len(ps) for w, ps in un.items()}
    print("ACCEPTANCE C7 PASS: monotone-path uniqueness, unimodal "
          "uniqueness with de = k-height on S5, equidistribution on S4")


def test_criterion_08_grassmannian():
    # parabolic Pieri from (3,2) in the 3x4 rectangle
    lam, k, n = (3, 2), 3, 7
    assert parabolic_pieri(lam, k, n, (0, 2))[(4, 4, 4)] == 2
    assert parabolic_pieri(lam, k, n, (2, 0))[(4, 4, 4)] == 4
    assert parabolic_pieri(lam, k, n, (1, 1))[(4, 4, 4)] == 8
    # parabolic MN from (4,2,2) in the 4x5 rectangle
    got = parabolic_mn((4, 2, 2), 4, 9, 3)
    rg = ring(9)
    assert got[(4, 4, 3)] == -rg.one
    assert got[(4, 4, 2)] == rg.t(5) + rg.t(6) + rg.t(7)
    # pushforward route = direct parabolic rules on the 2x3 rectangle
    n, k = 5, 2
    for lam in all_partitions_in(k, n - k):
        u = grassmannian_from_partition(lam, k, n)
        for r in (1, 2, 3):
            assert pushforward(mn_schubert(u, k, r), k) == \
                parabolic_mn(lam, k, n, r)
        for hook in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            flag = pieri_hook_csm(u, k, hook, equivariant=False)
            pushed = {mu: c.constant_value()
                      for mu, c in pushforward(flag, k).items()}
            assert pushed == parabolic_pieri(lam, k, n, hook)
    print("ACCEPTANCE C8 PASS: parabolic displays and pushforward routes "
          "agree")


def test_criterion_09_rim_hook_counting():
    start = time.time()
    assert len(enumerate_rht((4, 4, 1), (1,), 2)) == 4
    assert rht_count_limit((4, 4, 1), (1,), 2) == 4
    assert rht_count_maj((4, 4, 1), (1,), 2) == 4
    shapes = all_partitions_in(3, 4)
    for r in (2, 3):
        for Lam in shapes:
            for lam in shapes:
                padded = lam + (0,) * len(Lam)
                if len(lam) > len(Lam) or \
                        any(padded[i] > Lam[i] for i in range(len(Lam))):
                    continue
                if (sum(Lam) - sum(lam)) % r:
                    continue
                ne = len(enumerate_rht(Lam, lam, r))
                assert ne == rht_count_limit(Lam, lam, r), (Lam, lam, r)
                assert ne == rht_count_maj(Lam, lam, r), (Lam, lam, r)
    zeros = 0
    for size in range(2, 13):
        for r in (2, 3):
            if size % r:
                continue
            for Lam in partitions_of(size):
                want = len(enumerate_rht(Lam, (), r))
                got = rht_count_hook(Lam, r)
                assert got == want, (Lam, r)
                zeros += want == 0
    assert zeros > 0  # the divisibility criterion really fires
    elapsed = time.time() - start
    assert elapsed < 120.0
    print("ACCEPTANCE C9 PASS: three counting methods agree in 3x4, hook "
          "formula matches enumeration through size 12 (%.0fs)" % elapsed)


def test_criterion_10_localization_certificates():
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
        f = csm_class(w)
        low = min(sum(e) for e in f.terms)
        fl = rg.zero
        for e, c in f.terms.items():
            if sum(e) == low:
                fl.terms[e] = c
        got = expand_in_schubert(fl, n)
        assert got.coeffs == {w: rg.one}
    print("ACCEPTANCE C10 PASS: identity localization certificates and "
          "lowest-degree Schubert classes on S4")


def test_criterion_11_positivity_scans():
    for n in (3, 4):
        code, got = run_cli(["scan-positivity", "--n", str(n),
                             "--mode", "product"])
        assert code == 0 and "violations=0" in got, got
    code, got = run_cli(["scan-positivity", "--n", "4",
                         "--mode", "schubert-expansion"])
    assert code == 0 and "violations=0" in got, got
    print("ACCEPTANCE C11 PASS: no positivity violations on S3/S4 scans")
