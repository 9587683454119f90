import random
from collections import Counter

import pytest

from flagcsm.bruhat import (
    NoPathError,
    _edges,
    count_paths,
    enumerate_paths,
    export_dot,
    k_edges_from,
    leq_k,
    moved_values,
    sigma_delta,
    unique_unimodal_path,
)
from flagcsm.perm import Permutation, all_cycles, all_permutations, cycles_through


def P(s):
    return Permutation.parse(s)


def edge_set(u, k):
    return {(str(e.source), str(e.target), e.tau, e.is_cover)
            for e in k_edges_from(u, k)}


S3_EDGES_K1 = {
    ("123", "213", 1, True),
    ("123", "321", 1, False),
    ("132", "312", 1, True),
    ("132", "231", 1, True),
    ("213", "312", 2, True),
    ("231", "321", 2, True),
}

S3_EDGES_K2 = {
    ("123", "132", 2, True),
    ("123", "321", 1, False),
    ("132", "231", 1, True),
    ("213", "231", 1, True),
    ("213", "312", 2, True),
    ("312", "321", 1, True),
}


def test_k_edges_s3_full_edge_sets():
    got_left = set()
    got_right = set()
    for u in all_permutations(3):
        got_left |= edge_set(u, 1)
        got_right |= edge_set(u, 2)
    assert got_left == S3_EDGES_K1
    assert got_right == S3_EDGES_K2


def test_k_edges_from_longest_is_empty():
    assert k_edges_from(Permutation.longest(4), 2) == []


def _reference_edges(u, k, cover_only):
    """k-edges built from Permutation arithmetic: u.t_ab, with a cover
    when the length goes up by exactly one."""
    n = u.n
    out = []
    for a in range(1, k + 1):
        for b in range(k + 1, n + 1):
            if u(a) < u(b):
                w = u.compose(Permutation.transposition(a, b, n))
                cover = w.length() == u.length() + 1
                if cover or not cover_only:
                    out.append((u, w, a, b, u(a), cover))
    return out


def test_k_edges_from_matches_permutation_reference_s5():
    # same edges, cover flags and order as the transposition-and-length
    # construction
    for u in all_permutations(5):
        for k in range(1, 5):
            for cover_only in (False, True):
                got = [(e.source, e.target, e.a, e.b, e.tau, e.is_cover)
                       for e in k_edges_from(u, k, cover_only)]
                assert got == _reference_edges(u, k, cover_only)


def test_leq_k_examples():
    assert leq_k(P("23154"), P("53124"), 2)
    u = P("3142")
    assert leq_k(u, u, 2)


def bfs_reachable(u, k):
    seen = {u}
    todo = [u]
    while todo:
        v = todo.pop()
        for e in k_edges_from(v, k):
            if e.target not in seen:
                seen.add(e.target)
                todo.append(e.target)
    return seen


def test_leq_k_agrees_with_reachability_s4():
    for k in (1, 2, 3):
        for u in all_permutations(4):
            reach = bfs_reachable(u, k)
            for w in all_permutations(4):
                assert leq_k(u, w, k) == (w in reach)


def test_leq_k_antisymmetric_s4():
    for k in (1, 2, 3):
        for u in all_permutations(4):
            for w in all_permutations(4):
                if u != w and leq_k(u, w, k):
                    assert not leq_k(w, u, k)


def test_sigma_delta_examples():
    sd = sigma_delta(P("23154"), P("53124"), range(1, 3))
    assert sd.sigma == (2, 3, 5) and sd.delta == (3,)

    u = P("23154")
    sd = sigma_delta(u, u, range(1, 3))
    assert sd.sigma == sd.delta == (2, 3)

    sd = sigma_delta(P("23154"), P("45132"), range(1, 3))
    assert sd.sigma == (2, 3, 4, 5) and sd.delta == ()


def test_peakless_path_family_23154():
    grouped = enumerate_paths(P("23154"), 2, ("peakless_le", 1, 1))
    paths = [p for ps in grouped.values() for p in ps if len(p) > 0]
    assert len(paths) == 15
    by_end = {str(end): sorted(tuple(p.labels) for p in ps)
              for end, ps in grouped.items() if any(len(p) for p in ps)}
    assert by_end["53124"] == [(2,)]
    assert by_end["54123"] == [(2, 3), (3, 2)]
    assert by_end["45123"] == [(3, 2, 3)]
    assert by_end["35142"] == [(3, 2, 4)]
    assert by_end["54132"] == [(3, 2, 3)]


def test_decreasing_empty_and_zero_length():
    u = P("2143")
    grouped = enumerate_paths(u, 2, ("decreasing", 0))
    assert list(grouped) == [u]
    (p,) = grouped[u]
    assert len(p) == 0 and p.stats() == (0, 0)


def test_decreasing_increasing_unique_and_length_s4():
    # at most one monotone path to each endpoint; its length is forced by
    # the moved-value count on the relevant side of k
    for k in (1, 2, 3):
        for u in all_permutations(4):
            for shape in ("decreasing", "increasing"):
                seen = {}
                for r in range(0, 5):
                    grouped = enumerate_paths(u, k, (shape, r))
                    for w, ps in grouped.items():
                        assert len(ps) == 1
                        assert w not in seen
                        seen[w] = r
                for w, r in seen.items():
                    m = [i for i in range(1, 5) if u(i) != w(i)]
                    if shape == "decreasing":
                        assert r == len([i for i in m if i <= k])
                    else:
                        assert r == len([i for i in m if i > k])


def test_peakless_unimodal_equidistribution_s4():
    for k in (1, 2, 3):
        for u in all_permutations(4):
            for a in range(0, 4):
                for b in range(0, 4 - a):
                    pk = enumerate_paths(u, k, ("peakless", a, b))
                    un = enumerate_paths(u, k, ("unimodal", a, b))
                    npk = {w: len(ps) for w, ps in pk.items()}
                    nun = {w: len(ps) for w, ps in un.items()}
                    assert npk == nun


def test_path_stats_consistency():
    for k in (1, 2):
        for u in all_permutations(4):
            for a in range(0, 3):
                for b in range(0, 3):
                    for ps in enumerate_paths(u, k, ("peakless", a, b)).values():
                        for p in ps:
                            if len(p):
                                assert p.stats() == (a, b)
                                assert sum(p.stats()) == len(p) - 1


def test_moved_values_on_paths():
    # the positions moved along any path are exactly the non-fixed set of
    # u^-1 w, and the minimum label is the smallest moved value of u, at a
    # position <= k
    rnd = random.Random(5)
    for _ in range(200):
        u = rnd.choice(all_permutations(4))
        k = rnd.choice([1, 2, 3])
        grouped = enumerate_paths(u, k, ("peakless_le", 2, 2))
        for w, ps in grouped.items():
            for p in ps:
                if not len(p):
                    continue
                pos = set()
                for e in p.edges:
                    pos.add(e.a)
                    pos.add(e.b)
                m = {i for i in range(1, 5) if u(i) != w(i)}
                assert pos == m
                minlab = min(p.labels)
                assert minlab == min(u(i) for i in m)
                a = next(i for i in m if u(i) == minlab)
                assert a <= k


def test_unique_unimodal_path_examples():
    u = P("23154")
    eta = Permutation.from_cycle((1, 4, 5), 5)
    p = unique_unimodal_path(u, eta, 2)
    assert len(p) == 2 and p.stats()[1] == 0
    assert p.end() == u.compose(eta)

    t = Permutation.transposition(2, 4, 5)
    p1 = unique_unimodal_path(u, t, 2)
    assert len(p1) == 1 and p1.end() == u.compose(t)

    with pytest.raises(NoPathError):
        unique_unimodal_path(u, Permutation.from_cycle((1, 2), 5), 2)


def test_unique_unimodal_path_vs_enumeration():
    u = P("23154")
    for cyc, eta in cycles_through(u, 2, 3):
        m = len(eta.nonfixed_set()) - 1
        w = u.compose(eta)
        grouped = enumerate_paths(u, 2, ("unimodal_len", m))
        assert len(grouped.get(w, [])) == 1
        (q,) = grouped[w]
        p = unique_unimodal_path(u, eta, 2)
        assert p.labels == q.labels
        assert p.stats()[1] == eta.k_height(2)


def test_unique_unimodal_path_exhaustive_s4():
    for k in (1, 2, 3):
        for u in all_permutations(4):
            for cyc, eta in all_cycles(4, 2, 4):
                w = u.compose(eta)
                if not leq_k(u, w, k):
                    continue
                m = len(eta.nonfixed_set()) - 1
                grouped = enumerate_paths(u, k, ("unimodal_len", m))
                assert len(grouped.get(w, [])) == 1
                p = unique_unimodal_path(u, eta, k)
                assert p.labels == grouped[w][0].labels
                assert p.stats()[1] == eta.k_height(k)
                for e in p.edges:
                    assert e.target == e.source.compose(
                        Permutation.transposition(e.a, e.b, 4))
                    assert e.is_cover == (
                        e.target.length() == e.source.length() + 1)


def test_export_dot_s3():
    dot = export_dot(3, 1)
    for (src, tgt, tau, cover) in S3_EDGES_K1:
        want = '"%s" -> "%s" [label="%d"%s];' % (
            src, tgt, tau, "" if cover else ", style=dashed")
        assert want in dot
    assert dot.count("->") == len(S3_EDGES_K1)

    dot2 = export_dot(2, 1)
    assert '"12" -> "21" [label="1"];' in dot2
    assert dot2.count("->") == 1


def test_export_dot_edge_count_s4():
    dot = export_dot(4, 2)
    count = sum(1 for u in all_permutations(4) for e in k_edges_from(u, 2))
    assert dot.count("->") == count


def _all_labeled_paths(u, k, cover_only):
    """Every k-Bruhat path from u, unpruned, as (endpoint, labels) in DFS
    pre-order with edges tried in `k_edges_from` order."""
    out = []

    def rec(v, labels):
        out.append((v, labels))
        for e in k_edges_from(v, k, cover_only):
            rec(e.target, labels + (e.tau,))

    rec(u, ())
    return out


def _label_pattern(labels):
    """(peakless, unimodal, in, de) read off the ascents and descents of a
    label tuple: peakless when every descent precedes every ascent,
    unimodal when every ascent precedes every descent."""
    assert all(x != y for x, y in zip(labels, labels[1:]))
    ups = [y > x for x, y in zip(labels, labels[1:])]
    return (ups == sorted(ups), ups == sorted(ups, reverse=True),
            sum(ups), len(ups) - sum(ups))


def _matches(shape, labels):
    peakless, unimodal, inc, dec = _label_pattern(labels)
    kind, params = shape[0], shape[1:]
    if kind == "decreasing":
        return len(labels) == params[0] and inc == 0
    if kind == "increasing":
        return len(labels) == params[0] and dec == 0
    if kind == "peakless":
        return peakless and (inc, dec) == params
    if kind == "peakless_le":
        return peakless and inc <= params[0] and dec <= params[1]
    if kind == "unimodal":
        return unimodal and (inc, dec) == params
    assert kind == "unimodal_len"
    return unimodal and len(labels) == params[0]


SHAPES_UP_TO_3 = (
    [(kind, r) for kind in ("decreasing", "increasing", "unimodal_len")
     for r in range(4)]
    + [(kind, a, b) for kind in ("peakless", "peakless_le", "unimodal")
       for a in range(4) for b in range(4)])


def test_enumerate_paths_matches_unpruned_search_s4():
    # every shape, against all paths filtered by an independent reading of
    # their labels; the order within an endpoint is the DFS pre-order
    for cover_only in (False, True):
        for k in (1, 2, 3):
            for u in all_permutations(4):
                every = _all_labeled_paths(u, k, cover_only)
                for shape in SHAPES_UP_TO_3:
                    want = {}
                    for w, labels in every:
                        if _matches(shape, labels):
                            want.setdefault(w, []).append(labels)
                    got = enumerate_paths(u, k, shape, cover_only)
                    assert list(got) == sorted(want, key=lambda w: w.oneline)
                    assert {w: [p.labels for p in ps]
                            for w, ps in got.items()} == want


def test_count_paths_matches_enumerate_paths():
    # the counting consumer against the path-building one; the unpruned
    # search above checks the path-building one
    cases = [(u, k) for u in all_permutations(4) for k in (1, 2, 3)]
    cases += [(u, k) for u in all_permutations(5)[::7] for k in range(1, 5)]
    for cover_only in (False, True):
        for u, k in cases:
            for shape in SHAPES_UP_TO_3:
                want = {w: Counter(p.stats() for p in ps) for w, ps
                        in enumerate_paths(u, k, shape, cover_only).items()}
                got = count_paths(u, k, shape, cover_only)
                assert list(got) == list(want)
                assert got == want


def test_edges_label_window_filters_unwindowed_list_s5():
    # a window only drops the edges whose label is outside it, keeping the
    # order; the unpruned search above checks the windows the walk picks
    n = 5
    windows = [(lo, hi) for lo in range(n + 1) for hi in range(lo + 1, n + 2)]
    for u in all_permutations(n):
        for k in range(1, n):
            for cover_only in (False, True):
                every = list(_edges(u.oneline, k, cover_only))
                for lo, hi in windows:
                    want = [e for e in every if lo < e[2] < hi]
                    assert list(_edges(u.oneline, k, cover_only, lo, hi)) \
                        == want
                    if hi == n + 1:
                        assert list(_edges(u.oneline, k, cover_only, lo)) \
                            == want
