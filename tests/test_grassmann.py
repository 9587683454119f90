from flagcsm.exact import ring
from flagcsm.grassmann import (
    normalize_partition,
    parabolic_mn,
    parabolic_pieri,
    parse_partition,
    partition_str,
    pushforward,
    rim_hook_additions,
    rim_hook_removals,
)
from flagcsm.perm import (
    Permutation,
    all_permutations,
    coset_decompose,
    grassmannian_from_partition,
)
from flagcsm.rules import mn_schubert, pieri_hook_csm
from flagcsm.symfun import VarSubset, complete_sym
from reference import boundary_labels, grassmannian_from_labels, lift_path


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


def test_parse_and_print():
    assert parse_partition("4,2,2,0") == (4, 2, 2)
    assert parse_partition("0") == ()
    assert partition_str((4, 2, 2), 4) == "4,2,2,0"
    assert partition_str((), 3) == "0,0,0"


def test_boundary_labels_figure3():
    row, col = boundary_labels((4, 2, 2), 4, 9)
    assert [row[i] for i in (4, 3, 2, 1)] == [1, 4, 5, 8]
    assert [col[c] for c in range(1, 6)] == [2, 3, 6, 7, 9]
    assert grassmannian_from_labels((4, 2, 2), 4, 9) == \
        Permutation.parse("145823679")


def test_boundary_constructor_matches_partition_encoding():
    for k, n in [(2, 4), (3, 5), (4, 9)]:
        for lam in all_partitions_in(k, n - k):
            assert grassmannian_from_labels(lam, k, n) == \
                grassmannian_from_partition(lam, k, n)


def test_rim_hook_figure3():
    hooks = [rh for rh in rim_hook_additions((4, 2, 2), 4, 9)
             if rh.outer == (4, 4, 3)]
    assert len(hooks) == 1
    rh = hooks[0]
    assert rh.labels == (4, 5, 6, 7)
    assert rh.tau == 4
    assert rh.height == 1
    assert rh.size == 3
    assert rh.tail == (3, 3)


def test_rim_hooks_from_empty_2x2():
    hooks = rim_hook_additions((), 2, 4)
    got = {(rh.outer, rh.tau, rh.size) for rh in hooks}
    # edges out of the empty shape in the 2x2 partition graph
    assert got == {
        ((1,), 2, 1),
        ((2,), 2, 2),
        ((1, 1), 1, 2),
        ((2, 1), 1, 3),
    }


def test_partition_graph_2x2_matches_figure2():
    # every edge of the 2x2 graph, with labels and cover (single-box) flag
    edges = set()
    for lam in all_partitions_in(2, 2):
        for rh in rim_hook_additions(lam, 2, 4):
            edges.add((lam, rh.outer, rh.tau, rh.size == 1))
    want = {
        ((), (1,), 2, True),
        ((), (2,), 2, False),
        ((), (1, 1), 1, False),
        ((), (2, 1), 1, False),
        ((1,), (2,), 3, True),
        ((1,), (1, 1), 1, True),
        ((1,), (2, 2), 1, False),
        ((2,), (2, 1), 1, True),
        ((2,), (2, 2), 1, False),
        ((1, 1), (2, 1), 3, True),
        ((1, 1), (2, 2), 2, False),
        ((2, 1), (2, 2), 2, True),
    }
    assert edges == want


def test_partition_graph_column_and_row_figure2():
    # 3x1 rectangle (k=3, n=4)
    edges = {(lam, rh.outer, rh.tau, rh.size == 1)
             for lam in all_partitions_in(3, 1)
             for rh in rim_hook_additions(lam, 3, 4)}
    assert edges == {
        ((), (1,), 3, True),
        ((), (1, 1), 2, False),
        ((), (1, 1, 1), 1, False),
        ((1,), (1, 1), 2, True),
        ((1,), (1, 1, 1), 1, False),
        ((1, 1), (1, 1, 1), 1, True),
    }
    # 1x3 rectangle (k=1, n=4)
    edges = {(lam, rh.outer, rh.tau, rh.size == 1)
             for lam in all_partitions_in(1, 3)
             for rh in rim_hook_additions(lam, 1, 4)}
    assert edges == {
        ((), (1,), 1, True),
        ((), (2,), 1, False),
        ((), (3,), 1, False),
        ((1,), (2,), 2, True),
        ((1,), (3,), 2, False),
        ((2,), (3,), 3, True),
    }


def test_hook_labels_via_moved_values():
    # L(mu/lam) = w_lam M(w_lam^-1 w_mu), and heights match k-heights
    for k, n in [(3, 6), (2, 5)]:
        for lam in all_partitions_in(k, n - k):
            wl = grassmannian_from_partition(lam, k, n)
            for rh in rim_hook_additions(lam, k, n):
                wm = grassmannian_from_partition(rh.outer, k, n)
                v = wl.inverse().compose(wm)
                moved = tuple(sorted(wl(i) for i in v.nonfixed_set()))
                assert rh.labels == moved
                assert rh.height == v.k_height(k)


def skew_cells(outer, inner):
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return {(i + 1, j) for i, p in enumerate(outer)
            for j in range(inner[i] + 1, p + 1)}


def is_rim_hook(outer, inner):
    cells = skew_cells(outer, inner)
    if not cells:
        return False
    # connected (edgewise) and no 2x2 block
    seen = set()
    todo = [min(cells)]
    seen.add(min(cells))
    while todo:
        (a, b) = todo.pop()
        for nb in [(a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)]:
            if nb in cells and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    if seen != cells:
        return False
    return not any((a + 1, b) in cells and (a, b + 1) in cells
                   and (a + 1, b + 1) in cells for (a, b) in cells)


def test_rim_hook_additions_bruteforce():
    for k in range(1, 4):
        for cols in range(1, 5):
            n = k + cols
            shapes = all_partitions_in(k, cols)
            for lam in shapes:
                hooks = rim_hook_additions(lam, k, n)
                brute = {mu for mu in shapes
                         if len(mu) >= len(lam) and
                         all(a <= b for a, b in zip(lam, mu)) and
                         is_rim_hook(mu, lam)}
                assert {rh.outer for rh in hooks} == brute, (lam, k, n)
                for rh in hooks:
                    cells = skew_cells(rh.outer, lam)
                    rows = sorted({a for a, _ in cells})
                    assert rh.size == len(cells)
                    assert rh.height == rows[-1] - rows[0]
                    assert rh.tail == min((a, b) for a, b in cells
                                          if a == rows[-1])


def test_rim_hook_removals_bruteforce():
    shapes = all_partitions_in(3, 4)
    for Lam in shapes:
        for r in (1, 2, 3, 4):
            got = set(rim_hook_removals(Lam, r))
            brute = set()
            for mu in shapes:
                inner = tuple(mu) + (0,) * (len(Lam) - len(mu))
                if len(mu) <= len(Lam) and \
                        all(a <= b for a, b in zip(inner, Lam)) and \
                        sum(Lam) - sum(mu) == r and is_rim_hook(Lam, mu):
                    brute.add(mu)
            assert got == brute, (Lam, r)


def test_lift_path():
    n, k = 4, 2
    u = Permutation.parse("2143")
    lam, _ = coset_decompose(u, k)
    hooks = rim_hook_additions(lam, k, n)
    for rh in hooks:
        path = lift_path([rh], u, k)
        assert len(path) == 1
        assert coset_decompose(path.end(), k)[0] == rh.outer
        assert path.edges[0].tau == rh.tau

    # two-step chains lift uniquely with matching shapes throughout
    for rh1 in hooks:
        for rh2 in rim_hook_additions(rh1.outer, k, n):
            path = lift_path([rh1, rh2], u, k)
            assert coset_decompose(path.end(), k)[0] == rh2.outer


def test_pushforward_unit():
    from flagcsm.schubert import CohClass

    n, k = 4, 2
    w = Permutation.parse("3142")
    cls = CohClass("csm", True, {w: ring(n).one})
    assert pushforward(cls, k) == {coset_decompose(w, k)[0]: ring(n).one}


def test_parabolic_pieri_rectangle_3x4_examples():
    lam = (3, 2)
    k, n = 3, 7
    e3 = parabolic_pieri(lam, k, n, (0, 2))
    assert e3[(4, 4, 4)] == 2
    assert e3 == {
        (4, 3, 1): 1, (4, 3, 2): 1, (4, 3, 3): 1, (4, 4, 1): 1,
        (4, 4, 2): 1, (4, 4, 3): 1, (4, 4, 4): 2,
    }
    h3 = parabolic_pieri(lam, k, n, (2, 0))
    assert h3[(4, 4, 4)] == 4
    assert h3 == {
        (3, 3, 2): 1, (3, 3, 3): 1, (4, 2, 2): 1, (4, 3, 1): 1,
        (4, 3, 2): 1, (4, 3, 3): 2, (4, 4, 1): 1, (4, 4, 2): 2,
        (4, 4, 3): 3, (4, 4, 4): 4,
    }
    s21 = parabolic_pieri(lam, k, n, (1, 1))
    assert s21[(4, 4, 4)] == 8
    assert s21 == {
        (3, 3, 2): 1, (3, 3, 3): 2, (4, 2, 2): 1, (4, 3, 1): 2,
        (4, 3, 2): 2, (4, 3, 3): 3, (4, 4): 1, (4, 4, 1): 2,
        (4, 4, 2): 3, (4, 4, 3): 6, (4, 4, 4): 8,
    }


def listed_parabolic_pieri(lam, k, n, hook):
    """Reference: the parabolic Pieri rule by listing every chain of
    alpha+beta+1 rim hooks, first tails strictly down, then strictly
    right."""
    lam = normalize_partition(lam)
    alpha, beta = hook
    m = alpha + beta + 1
    counts = {}

    def rec(cur, depth, prev_tail):
        if depth == m:
            counts[cur] = counts.get(cur, 0) + 1
            return
        for rh in rim_hook_additions(cur, k, n):
            if depth > 0:
                if depth <= beta:
                    if rh.tail[0] <= prev_tail[0]:
                        continue
                else:
                    if rh.tail[1] <= prev_tail[1]:
                        continue
            rec(rh.outer, depth + 1, rh.tail)

    rec(lam, 0, None)
    return dict(sorted(counts.items()))


def test_parabolic_pieri_matches_chain_listing():
    # every shape and every hook (alpha < n-k, beta < k) of the rectangles
    # with k, n-k <= 4; larger hooks have no chains
    cases = 0
    for k in range(1, 5):
        for cols in range(1, 5):
            n = k + cols
            for lam in all_partitions_in(k, cols):
                for hook in [(a, b) for a in range(cols) for b in range(k)]:
                    got = parabolic_pieri(lam, k, n, hook)
                    assert got == listed_parabolic_pieri(lam, k, n, hook), \
                        (lam, k, n, hook)
                    assert list(got) == sorted(got)
                    cases += 1
    assert cases == 2602


def test_parabolic_mn_rectangle_4x5_example():
    k, n = 4, 9
    rg = ring(n)
    got = parabolic_mn((4, 2, 2), k, n, 3)
    t = rg.t
    assert got[(4, 4, 2)] == t(5) + t(6) + t(7)
    assert got[(4, 4, 3)] == -rg.one
    assert got[(5, 2, 2)] == t(8) ** 2 + t(8) * t(9) + t(9) ** 2
    assert got[(4, 3, 2)] == t(5) ** 2 + t(5) * t(6) + t(6) ** 2
    assert got[(4, 2, 2, 1)] == t(1) ** 2 + t(1) * t(2) + t(2) ** 2
    assert got[(4, 3, 3)] == -(t(4) + t(5) + t(6))
    assert got[(4, 2, 2, 2)] == t(1) + t(2) + t(3)
    # diagonal: p_3 at the row labels 1, 4, 5, 8
    assert got[(4, 2, 2)] == \
        t(1) ** 3 + t(4) ** 3 + t(5) ** 3 + t(8) ** 3
    assert len(got) == 8


def test_parabolic_pieri_vs_pushforward():
    n, k = 5, 2
    for lam in all_partitions_in(k, n - k):
        u = grassmannian_from_partition(lam, k, n)
        for hook in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            flag = pieri_hook_csm(u, k, hook, equivariant=False)
            pushed = {mu: c.constant_value()
                      for mu, c in pushforward(flag, k).items()}
            assert pushed == parabolic_pieri(lam, k, n, hook)


def test_parabolic_mn_vs_pushforward():
    n, k = 5, 2
    for lam in all_partitions_in(k, n - k):
        u = grassmannian_from_partition(lam, k, n)
        for r in (1, 2, 3):
            flag = mn_schubert(u, k, r)
            assert pushforward(flag, k) == parabolic_mn(lam, k, n, r)
