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
"""

from __future__ import annotations

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

    def end(self, start=None):
        if self.edges:
            return self.edges[-1].target
        if start is None:
            raise ValueError("empty path has no intrinsic endpoint")
        return start

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


def k_edges_from(u, k, cover_only=False):
    """All k-edges with source u, each carrying tau = u(a) and a cover flag."""
    n = u.n
    lu = u.length()
    out = []
    for a in range(1, k + 1):
        ua = u(a)
        for b in range(k + 1, n + 1):
            if ua < u(b):
                w = u.compose(Permutation.transposition(a, b, n))
                cover = w.length() == lu + 1
                if cover_only and not cover:
                    continue
                out.append(LabeledEdge(u, w, a, b, ua, cover))
    return out


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
    return tuple(sorted(u(i) for i in range(1, u.n + 1) if u(i) != w(i)))


def sigma_delta(u, w, A):
    """Sigma_A(u,w) = uA union the moved values; Delta_A(u,w) = uA minus
    the moved values."""
    uA = {u(i) for i in A}
    moved = set(moved_values(u, w))
    return SigmaDelta(
        sigma=tuple(sorted(uA | moved)),
        delta=tuple(sorted(uA - moved)),
    )


def _extend(u, k, cover_only, accept, prune):
    """Generic DFS over label-constrained paths.

    `prune(state, tau) -> new state or None` advances the label-pattern
    automaton; `accept(state, path)` says whether to yield the path at
    this node.  Edges from each vertex are tried in a deterministic order.
    """
    out = []

    def rec(v, state, edges):
        path = LabeledPath(tuple(edges))
        if accept(state, path):
            out.append(path)
        for e in k_edges_from(v, k, cover_only):
            ns = prune(state, e.tau)
            if ns is not None:
                edges.append(e)
                rec(e.target, ns, edges)
                edges.pop()

    rec(u, None, [])
    return out


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

    Returns a dict endpoint -> list of LabeledPath, endpoint keys sorted;
    the empty path is keyed at u itself.
    """
    kind = shape[0]

    if kind in ("decreasing", "increasing"):
        r = shape[1]
        down = kind == "decreasing"

        def prune(state, tau):
            cnt, last = state or (0, None)
            if cnt >= r:
                return None
            if last is not None and not (tau < last if down else tau > last):
                return None
            return (cnt + 1, tau)

        def accept(state, path):
            return (state or (0, None))[0] == r

    elif kind in ("peakless", "peakless_le"):
        a, b = shape[1], shape[2]

        def prune(state, tau):
            inc, dec, last, phase = state or (0, 0, None, "start")
            if last is None:
                return (0, 0, tau, "first")
            if tau < last and phase in ("first", "down"):
                if dec + 1 > b:
                    return None
                return (inc, dec + 1, tau, "down")
            if tau > last:
                if inc + 1 > a:
                    return None
                return (inc + 1, dec, tau, "up")
            return None

        def accept(state, path):
            if kind == "peakless_le":
                return True
            if state is None:
                return a == 0 and b == 0  # the length-0 path
            return state[0] == a and state[1] == b

    elif kind == "unimodal":
        a, b = shape[1], shape[2]

        def prune(state, tau):
            inc, dec, last, phase = state or (0, 0, None, "start")
            if last is None:
                return (0, 0, tau, "first")
            if tau > last and phase in ("first", "up"):
                if inc + 1 > a:
                    return None
                return (inc + 1, dec, tau, "up")
            if tau < last:
                if dec + 1 > b:
                    return None
                return (inc, dec + 1, tau, "down")
            return None

        def accept(state, path):
            if state is None:
                return a == 0 and b == 0
            return state[0] == a and state[1] == b

    elif kind == "unimodal_len":
        r = shape[1]

        def prune(state, tau):
            cnt, last, phase = state or (0, None, "start")
            if cnt >= r:
                return None
            if last is None:
                return (1, tau, "first")
            if tau > last and phase in ("first", "up"):
                return (cnt + 1, tau, "up")
            if tau < last:
                return (cnt + 1, tau, "down")
            return None

        def accept(state, path):
            return (state or (0, None, "start"))[0] == r

    else:
        raise ValueError("unknown path shape: %r" % (shape,))

    grouped = {}
    for path in _extend(u, k, cover_only, accept, prune):
        grouped.setdefault(path.end(u), []).append(path)
    return dict(sorted(grouped.items(), key=lambda kv: kv[0].oneline))


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
                           tgt.length() == src.length() + 1)

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


def paths_to_json(grouped):
    """JSON-ready dump of an endpoint-grouped path family."""
    out = []
    for end, paths in grouped.items():
        for p in paths:
            out.append({
                "end": str(end),
                "vertices": [str(p.edges[0].source)] + [str(e.target) for e in p.edges]
                if p.edges else [str(end)],
                "labels": list(p.labels),
            })
    return out
