"""Permutations of S_n in one-line notation, with the statistics the
product rules consume: length, non-fixed set, k-height, the beta-set
(bead) encoding of partitions behind Grassmannian permutations, and
admissible-cycle enumeration.

>>> Permutation.parse("23154").length()
3
>>> Permutation.parse("2,3,1,5,4").k_height(2)
1
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

__all__ = [
    "Permutation", "partition_to_beads", "beads_to_partition",
    "grassmannian_from_partition", "coset_decompose", "all_permutations",
    "cycles_through"
]


class Permutation:
    """A permutation of {1..n}, stored as its one-line tuple."""

    __slots__ = ("oneline",)

    def __init__(self, oneline):
        ol = tuple(oneline)
        if sorted(ol) != list(range(1, len(ol) + 1)):
            raise ValueError("not a permutation of 1..n: %r" % (ol,))
        self.oneline = ol

    @classmethod
    def _of(cls, oneline):
        """The permutation of a one-line tuple already known to be one,
        not checked again."""
        p = object.__new__(cls)
        p.oneline = oneline
        return p

    @classmethod
    def parse(cls, text):
        """Accepts digit strings ("23154", n <= 9) and comma form
        ("2,3,1,5,4")."""
        text = text.strip()
        if "," in text:
            return cls(int(p) for p in text.split(","))
        return cls(int(ch) for ch in text)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def longest(cls, n):
        return cls(range(n, 0, -1))

    @classmethod
    def transposition(cls, a, b, n):
        ol = list(range(1, n + 1))
        ol[a - 1], ol[b - 1] = ol[b - 1], ol[a - 1]
        return cls(ol)

    @classmethod
    def from_cycle(cls, cycle, n):
        """The cycle (c1 c2 ... cm): c1 -> c2 -> ... -> cm -> c1."""
        ol = list(range(1, n + 1))
        cycle = list(cycle)
        for i, c in enumerate(cycle):
            ol[c - 1] = cycle[(i + 1) % len(cycle)]
        return cls(ol)

    # -- basic structure

    @property
    def n(self):
        return len(self.oneline)

    def __call__(self, i):
        return self.oneline[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.oneline == other.oneline

    def __hash__(self):
        return hash(self.oneline)

    def __lt__(self, other):
        return self.oneline < other.oneline

    def __repr__(self):
        return "Permutation(%r)" % (self.oneline,)

    def __str__(self):
        if self.n <= 9:
            return "".join(map(str, self.oneline))
        return ",".join(map(str, self.oneline))

    def compose(self, other):
        """(self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.oneline[v - 1] for v in other.oneline)

    __mul__ = compose

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.oneline):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def is_identity(self):
        return all(v == i + 1 for i, v in enumerate(self.oneline))

    # -- statistics

    def length(self):
        """Number of inversion pairs."""
        ol = self.oneline
        return sum(1 for i in range(len(ol)) for j in range(i + 1, len(ol))
                   if ol[i] > ol[j])

    def nonfixed_set(self):
        """M(w) = {i : w(i) != i}, sorted."""
        return tuple(i + 1 for i, v in enumerate(self.oneline) if v != i + 1)

    def k_height(self, k):
        """One less than the number of non-fixed points among the first k."""
        return sum(1 for i in range(k) if self.oneline[i] != i + 1) - 1

    def descents(self):
        ol = self.oneline
        return tuple(i + 1 for i in range(len(ol) - 1) if ol[i] > ol[i + 1])


def partition_to_beads(lam, m):
    """The beta-set of lam padded to m rows: row i holds the bead
    lam_i + m + 1 - i, so the list strictly decreases top-down.  For
    m = k these are the first k values of the Grassmannian permutation,
    and adding or removing an r-rim hook moves one bead by r."""
    return [p + m - i for i, p in enumerate(lam)] + \
        list(range(m - len(lam), 0, -1))


def beads_to_partition(beads):
    """Inverse of `partition_to_beads` on a strictly decreasing list,
    with trailing zero parts stripped."""
    m = len(beads)
    lam = [b - m + i for i, b in enumerate(beads)]
    while lam and not lam[-1]:
        lam.pop()
    return tuple(lam)


def grassmannian_from_partition(lam, k, n):
    """The Grassmannian permutation w with descent at most k whose first k
    values are the beads of the partition: lam_i = w(k-i+1) - (k-i+1)."""
    if len(lam) > k or (lam and lam[0] > n - k):
        raise ValueError("partition %r does not fit in %dx%d" % (lam, k, n - k))
    first = partition_to_beads(lam, k)[::-1]
    if any(a >= b for a, b in zip(first, first[1:])):
        raise ValueError("partition is not weakly decreasing: %r" % (lam,))
    rest = sorted(set(range(1, n + 1)) - set(first))
    return Permutation(first + rest)


def coset_decompose(w, k):
    """The unique w = w_lam . v with v in S_k x S_{n-k}; returns
    (lam, v) where lam is the partition Gr(w) in the k x (n-k) rectangle."""
    first = sorted(w.oneline[:k])
    wlam = Permutation(first + sorted(w.oneline[k:]))
    return beads_to_partition(first[::-1]), wlam.inverse().compose(w)


@lru_cache(maxsize=None)
def all_permutations(n):
    """All of S_n sorted by (length, one-line)."""
    perms = [Permutation(p) for p in permutations(range(1, n + 1))]
    perms.sort(key=lambda w: (w.length(), w.oneline))
    return tuple(perms)


def _cycle_tuples(n, min_len, max_len):
    """Cycles of S_n as tuples (c1, ..., cm), minimum of the support first,
    by length, then support, then the order of the rest."""
    for m in range(min_len, max_len + 1):
        for support in combinations(range(1, n + 1), m):
            lead, rest = support[0], support[1:]
            for tail in permutations(rest):
                yield (lead,) + tail


def cycles_through(u, k, max_len):
    """All cycles eta of length 2..max_len+1 with u <=_k u.eta in the
    extended k-Bruhat order.  Returns (cycle tuple, eta) pairs.  As in
    `bruhat.leq_k`, the value u(eta(c)) moved to position c must rise
    for c <= k and fall for c > k."""
    ol = u.oneline
    out = []
    for cyc in _cycle_tuples(u.n, 2, max_len + 1):
        if all((ol[c - 1] < ol[d - 1]) == (c <= k)
               for c, d in zip(cyc, cyc[1:] + cyc[:1])):
            out.append((cyc, Permutation.from_cycle(cyc, u.n)))
    return out
