"""Partitions in the k x (n-k) rectangle, the labeled k-Bruhat graph on
partitions (edges = rim hook additions), pushforward of flag-variety
expansions, and the parabolic Pieri and Murnaghan-Nakayama rules.

Partitions are tuples of positive parts (no trailing zeros); rows and
columns are 1-based, row 1 on top.  The boundary labeling walks the
southeast lattice path of a partition from bottom left to top right,
numbering the n unit steps 1..n; rows read bottom-to-top give the first
k values of the Grassmannian permutation, columns the rest.  The row
labels are the beads of lam's beta-set (`perm.partition_to_beads`), and
adding or removing a rim hook of size r moves one bead by r.

The parabolic Pieri rule counts chains of rim hooks by a forward pass
over layers {(shape, last tail): number of chains}: its work grows with
the shapes of the rectangle and their rim hooks, not with the chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ring
from .perm import (
    Permutation,
    beads_to_partition,
    coset_decompose,
    grassmannian_from_partition,
    partition_to_beads,
)

from .symfun import VarSubset, complete_sym, power_sum


def parse_partition(text):
    text = text.strip()
    if not text or text == "0":
        return ()
    parts = tuple(int(p) for p in text.split(","))
    return normalize_partition(parts)


def normalize_partition(parts):
    parts = tuple(p for p in parts)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts must be weakly decreasing: %r" % (parts,))
    if any(p < 0 for p in parts):
        raise ValueError("parts must be nonnegative: %r" % (parts,))
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def partition_str(lam, k=None):
    parts = tuple(lam)
    if k is not None:
        parts = parts + (0,) * (k - len(parts))
    return ",".join(str(p) for p in parts) if parts else "0"


def fits_in_rectangle(lam, k, n):
    return len(lam) <= k and (not lam or lam[0] <= n - k)


def contains(outer, inner):
    outer, inner = tuple(outer), tuple(inner)
    if any(p > 0 for p in inner[len(outer):]):
        return False
    return all(b <= a for a, b in zip(outer, inner))


def boundary_labels(lam, k, n):
    """Labels 1..n along the southeast boundary of lam inside k x (n-k):
    returns (row_label, col_label) dicts, rows indexed 1..k top-down and
    columns 1..n-k.  Row i of the diagram receives the label of its
    east-edge step; doubling as a second Grassmannian constructor."""
    if not fits_in_rectangle(lam, k, n):
        raise ValueError("%r does not fit in %dx%d" % (lam, k, n - k))
    full = tuple(lam) + (0,) * (k - len(lam))
    row_label = {}
    col_label = {}
    label = 0
    c = 0
    for i in range(k, 0, -1):  # rows bottom-up
        while c < full[i - 1]:
            c += 1
            label += 1
            col_label[c] = label
        label += 1
        row_label[i] = label
    while c < n - k:
        c += 1
        label += 1
        col_label[c] = label
    return row_label, col_label


def grassmannian_from_labels(lam, k, n):
    """w_lam reconstructed from the boundary walk: w(i) is the label of
    row k+1-i for i <= k, then the column labels."""
    row_label, col_label = boundary_labels(lam, k, n)
    first = [row_label[k + 1 - i] for i in range(1, k + 1)]
    rest = [col_label[c] for c in range(1, n - k + 1)]
    return Permutation(first + rest)


@dataclass(frozen=True)
class RimHook:
    """A rim hook addition inside the rectangle: outer/inner is an
    edgewise-connected skew shape with no 2x2 square."""

    inner: tuple
    outer: tuple
    size: int
    height: int          # rows spanned minus one
    tail: tuple          # (row, col) of the leftmost box of the bottom row
    labels: tuple        # L(outer/inner) in the boundary labeling of outer
    tau: int             # min of labels


def rim_hook_additions(lam, k, n, size_range=None):
    """All rim hooks addable to lam inside the k x (n-k) rectangle, with
    tail, height, boundary label set, and edge label tau = min L.

    Each is one bead b of lam's k-row beta-set moved up to a free
    position c <= n: the hook has size c - b, its bottom row is b's row
    i, it climbs one row per bead jumped, and its labels are b..c."""
    lam = normalize_partition(lam)
    if not fits_in_rectangle(lam, k, n):
        raise ValueError("%r does not fit in %dx%d" % (lam, k, n - k))
    beads = partition_to_beads(lam, k)
    lo, hi = size_range if size_range else (1, k * (n - k))
    out = []
    for i, b in enumerate(beads):
        h = 0
        for c in range(b + 1, min(n, b + hi) + 1):
            if c in beads:
                h += 1
            elif c - b >= lo:
                outer = beads_to_partition(
                    beads[:i - h] + [c] + beads[i - h:i] + beads[i + 1:])
                out.append(RimHook(
                    inner=lam, outer=outer, size=c - b, height=h,
                    tail=(i + 1, b - k + i + 1),
                    labels=tuple(range(b, c + 1)), tau=b))
    out.sort(key=lambda rh: (rh.size, rh.outer))
    return out


def rim_hook_removals(Lam, r):
    """All inner shapes mu with Lam/mu a rim hook of size exactly r: one
    bead b of Lam's beta-set moved down to a free position b - r >= 1."""
    Lam = normalize_partition(Lam)
    beads = partition_to_beads(Lam, len(Lam))
    out = []
    for i, b in enumerate(beads):
        c = b - r
        if c < 1 or c in beads:
            continue
        j = i + 1
        while j < len(beads) and beads[j] > c:
            j += 1
        out.append(beads_to_partition(
            beads[:i] + beads[i + 1:j] + [c] + beads[j:]))
    out.sort()
    return out


def lift_path(steps, u, k):
    """The unique lift of a labeled partition path to the k-Bruhat graph
    on S_n starting at u (which must satisfy Gr(u) = the first shape):
    each step is matched by the single k-edge with its label and shape."""
    from .bruhat import LabeledPath, k_edges_from

    n = u.n
    lam0 = steps[0].inner if steps else None
    if steps and coset_decompose(u, k)[0] != normalize_partition(lam0):
        raise ValueError("u does not lie over the first shape")
    edges = []
    cur = u
    for rh in steps:
        matches = [e for e in k_edges_from(cur, k)
                   if e.tau == rh.tau
                   and coset_decompose(e.target, k)[0] == rh.outer]
        if len(matches) != 1:
            raise AssertionError("lift not unique: %d matches" % len(matches))
        edges.append(matches[0])
        cur = matches[0].target
    return LabeledPath(tuple(edges))


def pushforward(expansion, k):
    """Fiberwise sum of an expansion over Gr(w): coefficient at mu is the
    sum of coefficients over all w with Gr(w) = mu.  For Schubert-basis
    expansions every non-Grassmannian coefficient must already vanish
    (they do for products pulled back from the Grassmannian), so the sum
    degenerates to re-indexing."""
    out = {}
    for w, c in expansion.coeffs.items():
        lam, v = coset_decompose(w, k)
        if expansion.basis == "schubert" and not v.is_identity():
            raise AssertionError(
                "Schubert expansion has weight at non-Grassmannian %s" % w)
        cur = out.get(lam)
        out[lam] = c if cur is None else cur + c
    return {lam: c for lam, c in sorted(out.items()) if not c.is_zero()}


def parabolic_pieri(lam, k, n, hook):
    """Nonequivariant CSM Pieri rule on the Grassmannian: the coefficient
    at mu counts chains of alpha+beta+1 rim hooks from lam to mu whose
    first beta+1 tails move strictly down and whose last alpha+1 tails
    move strictly right.  The rest of a chain depends only on its shape
    and last tail, so one forward pass carries layers {(shape, tail):
    number of chains} and lists each shape's rim hooks once."""
    alpha, beta = hook
    hooks = {}
    layer = {(normalize_partition(lam), None): 1}
    for depth in range(alpha + beta + 1):
        axis = 0 if depth <= beta else 1
        nxt = {}
        for (cur, prev), count in layer.items():
            if cur not in hooks:
                hooks[cur] = [(rh.outer, rh.tail)
                              for rh in rim_hook_additions(cur, k, n)]
            for outer, tail in hooks[cur]:
                if depth == 0 or tail[axis] > prev[axis]:
                    nxt[outer, tail] = nxt.get((outer, tail), 0) + count
        layer = nxt
    counts = {}
    for (mu, _), count in layer.items():
        counts[mu] = counts.get(mu, 0) + count
    return dict(sorted(counts.items()))


def parabolic_mn(lam, k, n, r):
    """Equivariant Murnaghan-Nakayama rule on the Grassmannian: diagonal
    p_r at the row labels of lam; each rim hook of size r' <= r adds
    (-1)^height h_{r-r'} on the t-variables indexed by its boundary
    labels."""
    lam = normalize_partition(lam)
    if r < 1:
        raise ValueError("r must be positive")
    rg = ring(n)
    wlam = grassmannian_from_partition(lam, k, n)
    out = {lam: power_sum(n, r, VarSubset("t", tuple(wlam(i) for i in range(1, k + 1))))}
    for rh in rim_hook_additions(lam, k, n, (1, r)):
        sign = -1 if rh.height % 2 else 1
        coeff = sign * complete_sym(n, r - rh.size, VarSubset("t", rh.labels))
        if coeff.is_zero():
            continue
        cur = out.get(rh.outer)
        out[rh.outer] = coeff if cur is None else cur + coeff
    return dict(sorted(out.items()))
