from itertools import product

from flagcsm.exact import MPoly, divided_difference, ring
from flagcsm.symfun import (
    complete_sym,
    elem_sym,
    power_sum,
    schur_hook,
    VarSubset,
    tableau_sum,
    ts,
    t_range,
    x_range,
)
from reference import schur_general


def test_elem_sym():
    rg = ring(5)
    assert elem_sym(5, 1, ts(3)) == rg.t(3)
    assert elem_sym(5, 0, ts()) == rg.one
    assert elem_sym(5, 2, ts()) == rg.zero
    x = rg.x
    assert elem_sym(5, 2, x_range(3)) == x(1) * x(2) + x(1) * x(3) + x(2) * x(3)
    assert elem_sym(5, 4, x_range(3)) == rg.zero
    assert elem_sym(5, 1, ts(3), sign=-1) == -rg.t(3)


def test_complete_sym():
    rg = ring(5)
    t = rg.t
    assert complete_sym(5, 1, ts(2, 3, 5)) == t(2) + t(3) + t(5)
    assert complete_sym(5, 2, ts(5, 2)) == t(2) ** 2 + t(2) * t(5) + t(5) ** 2
    assert complete_sym(5, 0, ts()) == rg.one
    assert complete_sym(5, 3, ts()) == rg.zero


def test_power_sum():
    rg = ring(5)
    assert power_sum(5, 3, x_range(2)) == rg.x(1) ** 3 + rg.x(2) ** 3
    assert power_sum(5, 1, ts(4)) == rg.t(4)


def test_power_sum_hook_alternating_identity():
    for k in range(1, 5):
        for r in range(1, 6):
            want = power_sum(5, r, x_range(k))
            got = ring(5).zero
            for beta in range(r):
                alpha = r - 1 - beta
                term = schur_hook(5, alpha, beta, x_range(k))
                got = got + (term if beta % 2 == 0 else -term)
            assert got == want


def test_schur_hook_degenerate_shapes():
    rg = ring(4)
    assert schur_hook(4, 0, 0, x_range(2)) == rg.x(1) + rg.x(2)
    x = rg.x
    assert schur_hook(4, 1, 1, x_range(2)) == x(1) ** 2 * x(2) + x(1) * x(2) ** 2
    for r in range(1, 5):
        assert schur_hook(4, 0, r - 1, x_range(3)) == elem_sym(4, r, x_range(3))
        assert schur_hook(4, r - 1, 0, x_range(3)) == complete_sym(4, r, x_range(3))


def test_schur_general():
    rg = ring(3)
    x = rg.x
    assert schur_general(3, (1,), x_range(3)) == x(1) + x(2) + x(3)
    assert schur_general(3, (2, 1), x_range(2)) == schur_hook(3, 1, 1, x_range(2))
    assert schur_general(3, (2, 2), x_range(2)) == x(1) ** 2 * x(2) ** 2


def test_schur_general_matches_hooks():
    for alpha in range(3):
        for beta in range(3):
            lam = (alpha + 1,) + (1,) * beta
            for k in (2, 3, 4):
                assert schur_general(4, lam, x_range(k)) == \
                    schur_hook(4, alpha, beta, x_range(k))


# The generating series of the paper's proof that the divided difference
# acts on Q(x_A)/Z(x_B), truncated in combined (q, z)-degree.  They live
# on ring(n + 2), where x_{n+1} and x_{n+2} (slots n and n + 1) stand in
# for q and z.


def _truncate_qz(p, n, trunc):
    return MPoly(p.nvars, {e: c for e, c in p.terms.items()
                           if e[n] + e[n + 1] <= trunc})


def qz_series(n, kind, vs, trunc):
    """Q = prod (1 + q v_a), Z_inv = sum_r z^r h_r or
    E = sum_{a,b} z^a q^b s_{(1+a,1^b)} over the subset, cut at combined
    (q, z)-degree `trunc`."""
    rg = ring(n + 2)
    q, z = rg.x(n + 1), rg.x(n + 2)
    out = rg.zero
    if kind == "Q":
        out = rg.one
        for s in vs.slots(rg):
            out = out * (rg.one + q * MPoly.variable(rg.nvars, s))
    elif kind == "Z_inv":
        for r in range(trunc + 1):
            out = out + z ** r * complete_sym(n + 2, r, vs)
    else:
        for a in range(trunc + 1):
            for b in range(trunc + 1 - a):
                out = out + z ** a * q ** b * schur_hook(n + 2, a, b, vs)
    return _truncate_qz(out, n, trunc)


def test_qz_series():
    n = 3
    rg = ring(n + 2)
    s = qz_series(n, "Q", VarSubset("x", (1,)), 2)
    assert s == rg.one + rg.x(n + 1) * rg.x(1)

    e = qz_series(n, "E", x_range(2), 2)
    qs, zs = n, n + 1
    coeff_00 = {ex: c for ex, c in e.terms.items()
                if ex[qs] == 0 and ex[zs] == 0}
    assert coeff_00 == elem_sym(n + 2, 1, x_range(2)).terms

    coeff_11 = {ex[:qs] + (0, 0) + ex[zs + 1:]: c
                for ex, c in e.terms.items() if ex[qs] == 1 and ex[zs] == 1}
    assert coeff_11 == schur_hook(n + 2, 1, 1, x_range(2)).terms


def test_pieri_h_times_e():
    # h_r e_s = s_{(1+r-1? ...)}: check the two-term Pieri split used in
    # the hook recursion, via schur_general
    n, k = 4, 3
    for r in range(1, 4):
        for s in range(1, 4):
            prod = complete_sym(n, r, x_range(k)) * elem_sym(n, s, x_range(k))
            a = schur_general(n, (r,) + (1,) * s, x_range(k))
            b = schur_general(n, (r + 1,) + (1,) * (s - 1), x_range(k)) \
                if r >= 1 else ring(n).zero
            assert prod == a + b


def test_demazure_on_qz_quotient():
    # action of the two-variable divided difference on Q(x_A)/Z(x_B):
    # picks up q/z factors controlled by membership of a, b in A and B
    n, trunc = 4, 3
    rg = ring(n + 2)
    q, z = rg.x(n + 1), rg.x(n + 2)
    subsets = [(), (1,), (2,), (1, 2), (1, 3), (1, 2, 3)]
    for A in subsets:
        for B in subsets:
            if not set(A) <= set(B):
                continue
            QA = qz_series(n, "Q", VarSubset("x", A), trunc)
            ZB = qz_series(n, "Z_inv", VarSubset("x", B), trunc)
            lhs_series = _truncate_qz(QA * ZB, n, trunc)
            for a, b in [(1, 2), (2, 1), (1, 3), (3, 4), (2, 4)]:
                lhs = divided_difference(
                    lhs_series, rg.x_slot(a), rg.x_slot(b))
                factor = rg.zero
                if a in A:
                    factor = factor + q
                if b in A:
                    factor = factor - q
                if a not in B:
                    factor = factor - z
                if b not in B:
                    factor = factor + z
                A2 = tuple(v for v in A if v not in (a, b))
                B2 = tuple(sorted(set(B) | {a, b}))
                rhs = factor * _truncate_qz(
                    qz_series(n, "Q", VarSubset("x", A2), trunc)
                    * qz_series(n, "Z_inv", VarSubset("x", B2), trunc), n, trunc)
                # compare only up to combined truncation degree minus one:
                # the factor adds one q/z degree
                assert _truncate_qz(lhs, n, trunc) == \
                    _truncate_qz(rhs, n, trunc)


def _partitions_in(rows, cols):
    if rows == 0:
        yield ()
        return
    for first in range(cols, -1, -1):
        for rest in _partitions_in(rows - 1, first):
            yield tuple(p for p in (first,) + rest if p)


def _brute_force_tableaux(lam, k):
    """Every filling of lam by 1..k, as (value, content) pairs along the
    rows, kept when its rows weakly increase and its columns strictly
    increase.  Rows are filtered before they are combined."""
    rows = [[row for row in product(range(1, k + 1), repeat=part)
             if all(a <= b for a, b in zip(row, row[1:]))] for part in lam]
    out = []
    for fill in product(*rows):
        if all(fill[i - 1][j] < fill[i][j]
               for i in range(1, len(lam)) for j in range(lam[i])):
            out.append(tuple((v, j - i) for i, row in enumerate(fill)
                             for j, v in enumerate(row)))
    return out


def test_tableau_walk_matches_brute_force():
    # every shape in a 3 x 4 box, entries up to 5: the walk visits exactly
    # the semistandard fillings, each once, with the right contents
    for lam in set(_partitions_in(3, 4)):
        for k in range(1, 6):
            got = []
            tableau_sum(lam, k, (), lambda pairs, v, c: pairs + ((v, c),),
                        got.append)
            assert sorted(got) == sorted(_brute_force_tableaux(lam, k)), \
                (lam, k)
            assert len(set(got)) == len(got)


def test_tableau_walk_drops_zero_factors():
    # a None from times prunes the whole subtree: forbidding the value 1
    # in the corner box leaves the tableaux whose corner is at least 2
    lam, k = (2, 1), 3
    got = []
    tableau_sum(lam, k, (), lambda pairs, v, c: None if (v, c) == (1, 0)
                else pairs + ((v, c),), got.append)
    want = [t for t in _brute_force_tableaux(lam, k) if t[0][0] >= 2]
    assert sorted(got) == sorted(want) and got
