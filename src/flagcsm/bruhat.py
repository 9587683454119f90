"""Labeled k-Bruhat graphs on S_n, the extended k-Bruhat order, and the
path enumerations behind every product formula.

A k-edge u -> u.t_ab (a <= k < b, u(a) < u(b)) carries the label
tau = u(a); it is a cover when the length goes up by exactly one.  The
extended order allows any length increase, the ordinary order only
covers.  Paths are classified by their label pattern:

- decreasing / increasing: strictly monotone labels;
- peakless: strictly down then strictly up (statistics de, in count the
  two segments, each minus one);
- unimodal: strictly up then strictly down.

All of these are one two-phase label automaton: labels move strictly in
a first direction (down; up for unimodal paths), turn at most once, then
move strictly the other way.  Each shape is a cap on in, de and length
plus an accept test on (length, in, de).  One depth-first search on
one-line tuples serves `enumerate_paths`, which builds the accepted
paths, and `count_paths`, which counts them by endpoint and (in, de).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .perm import Permutation


@dataclass(frozen=True)
class LabeledEdge:
    source: Permutation
    target: Permutation
    a: int
    b: int
    tau: int
    is_cover: bool


@dataclass(frozen=True)
class LabeledPath:
    edges: tuple

    @property
    def labels(self):
        return tuple(e.tau for e in self.edges)

    def __len__(self):
        return len(self.edges)

    def end(self):
        if not self.edges:
            raise ValueError("empty path has no intrinsic endpoint")
        return self.edges[-1].target

    def stats(self):
        """(in, de) for a peakless or unimodal label pattern; the empty
        path counts as (0, 0)."""
        labels = self.labels
        m = len(labels)
        if m == 0:
            return 0, 0
        i = 1
        if m > 1 and labels[0] < labels[1]:  # unimodal: up then down
            while i < m and labels[i - 1] < labels[i]:
                i += 1
            inc, dec = i - 1, m - i
            if any(labels[j - 1] <= labels[j] for j in range(i + 1, m)):
                raise ValueError("labels are not unimodal: %r" % (labels,))
        else:  # peakless: down then up
            while i < m and labels[i - 1] > labels[i]:
                i += 1
            dec, inc = i - 1, m - i
            if any(labels[j - 1] >= labels[j] for j in range(i + 1, m)):
                raise ValueError("labels are not peakless: %r" % (labels,))
        return inc, dec


class NoPathError(ValueError):
    """Requested a path whose existence precondition fails."""


def _is_cover(ol, a, b):
    """Whether swapping positions a < b of the one-line tuple ol, with
    ol(a) < ol(b), is a cover: no value between them sits between a and b."""
    lo, hi = ol[a - 1], ol[b - 1]
    for v in ol[a:b - 1]:
        if lo < v < hi:
            return False
    return True


def _edges(ol, k, cover_only, lo=0, hi=None):
    """The k-edges out of the one-line tuple ol, as (a, b, tau, target
    tuple, cover) in order of a, then b; only labels lo < tau < hi (hi
    None: no upper bound), a row a being skipped before any target is
    built."""
    n = len(ol)
    if hi is None:
        hi = n + 1
    for a in range(1, k + 1):
        ua = ol[a - 1]
        if not lo < ua < hi:
            continue
        for b in range(k + 1, n + 1):
            ub = ol[b - 1]
            if ua < ub:
                cover = _is_cover(ol, a, b)
                if cover or not cover_only:
                    w = list(ol)
                    w[a - 1], w[b - 1] = ub, ua
                    yield a, b, ua, tuple(w), cover


def k_edges_from(u, k, cover_only=False):
    """All k-edges with source u, each carrying tau = u(a) and a cover flag."""
    return [LabeledEdge(u, Permutation(w), a, b, tau, cover)
            for a, b, tau, w, cover in _edges(u.oneline, k, cover_only)]


def leq_k(u, w, k):
    """Extended k-Bruhat order by the pointwise criterion: u <=_k w iff
    u(a) <= w(a) for a <= k and u(b) >= w(b) for b > k."""
    if u.n != w.n:
        raise ValueError("size mismatch")
    ou, ow = u.oneline, w.oneline
    for i in range(k):
        if ou[i] > ow[i]:
            return False
    for i in range(k, u.n):
        if ou[i] < ow[i]:
            return False
    return True


@dataclass(frozen=True)
class SigmaDelta:
    sigma: tuple
    delta: tuple


def moved_values(u, w):
    """u M(u^-1 w) = {u(i) : u(i) != w(i)}, sorted."""
    return tuple(sorted(a for a, b in zip(u.oneline, w.oneline) if a != b))


def sigma_delta(u, w, A):
    """Sigma_A(u,w) = uA union the moved values; Delta_A(u,w) = uA minus
    the moved values."""
    uA = {u(i) for i in A}
    moved = set(moved_values(u, w))
    return SigmaDelta(
        sigma=tuple(sorted(uA | moved)),
        delta=tuple(sorted(uA - moved)),
    )


def _automaton(shape):
    """A path shape as the two-phase label automaton: (first phase goes
    up, caps on (in, de, length), accept test on (length, in, de))."""
    kind, params = shape[0], shape[1:]
    if kind in ("decreasing", "increasing", "unimodal_len"):
        (r,) = params
        caps = {"decreasing": (0, r, r), "increasing": (r, 0, r),
                "unimodal_len": (r, r, r)}[kind]
        return kind == "unimodal_len", caps, lambda m, inc, dec: m == r
    if kind in ("peakless", "peakless_le", "unimodal"):
        a, b = params
        exact = kind != "peakless_le"
        return (kind == "unimodal", (a, b, a + b + 1),
                lambda m, inc, dec: not exact or (inc, dec) == (a, b))
    raise ValueError("unknown path shape: %r" % (shape,))


def _walk(u, k, shape, cover_only, visit):
    """Depth-first walk of the shape's automaton from the one-line tuple u,
    calling visit(v, steps, in, de) on each accepted path in pre-order;
    steps is the live list of the path's `_edges` tuples."""
    up_first, (max_in, max_de, max_len), accept = _automaton(shape)
    max_first, max_second = (max_in, max_de) if up_first else (max_de, max_in)
    steps = []

    # first/second count the steps of each phase, so the path has turned
    # once second > 0; consecutive labels never repeat, since the last
    # label's value has just moved past position k.  The label window
    # (lo, hi) admits exactly the steps the automaton accepts: any label
    # while both directions are open, else only those past `last` in the
    # one direction left.
    def rec(v, last, first, second):
        inc, dec = (first, second) if up_first else (second, first)
        if accept(len(steps), inc, dec):
            visit(v, steps, inc, dec)
        more_first = second == 0 and first < max_first
        more_second = second < max_second
        if len(steps) == max_len or (
                steps and not more_first and not more_second):
            return  # no step is left, so no edge scan
        if not steps or (more_first and more_second):
            lo, hi = 0, None
        elif more_first == up_first:  # only upward steps are left
            lo, hi = last, None
        else:
            lo, hi = 0, last
        for step in _edges(v, k, cover_only, lo, hi):
            tau = step[2]
            if not steps:
                state = (0, 0)
            elif (tau > last) == up_first:
                state = (first + 1, 0)
            else:
                state = (first, second + 1)
            steps.append(step)
            rec(step[3], tau, *state)
            steps.pop()

    rec(u, None, 0, 0)


def enumerate_paths(u, k, shape, cover_only=False):
    """Paths from u in the (extended or ordinary) k-Bruhat graph matching
    a label shape, grouped by endpoint.

    Shapes (tuples):
      ("decreasing", r)       strictly decreasing labels, length exactly r
      ("increasing", r)       strictly increasing labels, length exactly r
      ("peakless", a, b)      peakless with in = a, de = b exactly; the
                              empty path is included only for (0, 0)
      ("peakless_le", a, b)   peakless with in <= a, de <= b (any length,
                              empty path included)
      ("unimodal", a, b)      unimodal with in = a, de = b exactly
      ("unimodal_len", r)     unimodal of length exactly r, any split

    Every shape runs the one two-phase automaton (see the module
    docstring).  Within an endpoint, paths come in depth-first pre-order
    with edges tried in `k_edges_from` order.

    Returns a dict endpoint -> list of LabeledPath, endpoint keys sorted;
    the empty path is keyed at u itself.
    """
    grouped = {}

    def visit(v, steps, inc, dec):
        edges, src = [], u
        for a, b, tau, w, cover in steps:
            edges.append(LabeledEdge(src, Permutation(w), a, b, tau, cover))
            src = edges[-1].target
        grouped.setdefault(src, []).append(LabeledPath(tuple(edges)))

    _walk(u.oneline, k, shape, cover_only, visit)
    return dict(sorted(grouped.items(), key=lambda kv: kv[0].oneline))


def count_paths(u, k, shape, cover_only=False):
    """The paths of `enumerate_paths` counted, not built: a dict endpoint
    -> Counter{(in, de): number of paths}, endpoint keys sorted."""
    counts = {}

    def visit(v, steps, inc, dec):
        by_stats = counts.get(v)
        if by_stats is None:
            by_stats = counts[v] = Counter()
        by_stats[inc, dec] += 1

    _walk(u.oneline, k, shape, cover_only, visit)
    return {Permutation(v): c for v, c in sorted(counts.items())}


def unique_unimodal_path(u, eta, k):
    """The unique unimodal path from u to u.eta for a cycle eta with
    u <=_k u.eta; its length is the cycle length minus one and its de
    statistic equals the k-height of eta.

    Built constructively: the minimum of u over the support of eta is
    the extreme label, placed on the first edge when
    u(eta^-1(a)) < u(eta(a)) and on the last edge otherwise."""
    n = u.n
    w = u.compose(eta)
    if not leq_k(u, w, k):
        raise NoPathError("%s is not below %s in the extended %d-Bruhat order"
                          % (u, w, k))
    support = eta.nonfixed_set()
    if not support:
        raise NoPathError("eta must be a nontrivial cycle")

    def edge(src, a, b):
        tgt = src.compose(Permutation.transposition(a, b, n))
        return LabeledEdge(src, tgt, a, b, src(a),
                           _is_cover(src.oneline, a, b))

    edges_front = []
    edges_back = []
    while True:
        support = eta.nonfixed_set()
        a = min(support, key=lambda i: u(i))
        b = eta.inverse()(a)
        if len(support) == 2:
            lo, hi = (a, b) if a <= k else (b, a)
            edges_front.append(edge(u, lo, hi))
            break
        if u(b) < u(eta(a)):
            # first edge u -> u.t_ab; drop the value b (> k) from the cycle
            e = edge(u, a, b)
            edges_front.append(e)
            u = e.target
            eta = Permutation.transposition(a, b, n).compose(eta)
        else:
            # last edge (u.eta.t_ab) -> u.eta; drop a (<= k) from the cycle
            eta2 = eta.compose(Permutation.transposition(a, b, n))
            src = u.compose(eta2)
            edges_back.append(edge(src, a, b))
            eta = eta2
    path = LabeledPath(tuple(edges_front) + tuple(reversed(edges_back)))
    if path.end().oneline != w.oneline:
        raise AssertionError("constructed path misses its endpoint")
    return path


def export_dot(n, k, cover_only=False):
    """The labeled k-Bruhat graph on S_n as a DOT digraph; non-cover edges
    are dashed."""
    from .perm import all_permutations

    lines = ["digraph kbruhat {"]
    lines.append('  label="%d-Bruhat graph on S%d";' % (k, n))
    perms = sorted(all_permutations(n), key=lambda w: w.oneline)
    for u in perms:
        lines.append('  "%s";' % u)
    for u in perms:
        for e in k_edges_from(u, k, cover_only):
            style = "" if e.is_cover else ", style=dashed"
            lines.append('  "%s" -> "%s" [label="%d"%s];'
                         % (e.source, e.target, e.tau, style))
    lines.append("}")
    return "\n".join(lines) + "\n"

