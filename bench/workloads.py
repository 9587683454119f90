"""The benchmark's workloads.  Each one turns a seed into a fixed list of
items, warms what its items read, and runs one item at a time with the
item's own check.  NOTES.md says why each workload exists and which layers
it loads.

Items cycle through a fixed list of slots.  A slot fixes the inputs that
set an item's cost (k and the multiplier; n, k, hook and r; the outer
shape and a list of inner shapes of about one cost); the seed draws the
rest (u; the inner shape from the list and r), so runs with different
seeds do comparable work.

flagcsm is imported inside ``setup`` and ``run``, never at module import,
so that set-up time includes the import.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _render(coh):
    """Canonical text of a basis expansion: one line per basis element in
    one-line order, coefficients in canonical polynomial form."""
    from flagcsm.exact import canonical_str

    lines = ["%s %s" % (coh.basis, "eq" if coh.equivariant else "ne")]
    for w, c in coh.items_sorted():
        lines.append("%s %s" % (w, canonical_str(c)))
    return "\n".join(lines)


class Workload:
    name = ""
    nominal_item_s = 1.0  # sets the item count

    def count(self, seconds, passes):
        """Items for a run of about ``seconds`` that times each item
        ``passes`` times."""
        return max(1, round(seconds / (passes * self.nominal_item_s)))

    def setup(self, seed, count):
        """Import flagcsm, make the items from the seed, warm the tables
        the items read.  Returns the items."""
        raise NotImplementedError

    def run(self, item):
        """Run one item.  Returns (passed, output digest, note)."""
        raise NotImplementedError


class OracleS5(Workload):
    """Closed-form rule against the brute-force oracle at n = 5, in both
    bases, equivariantly."""

    name = "oracle-s5"
    nominal_item_s = 3.3
    # (k, multiplier, length of u): ("hook", (alpha, beta)) is
    # s_(1+alpha, 1^beta)(x_1..x_k), ("power", r) is p_r(x_1..x_k).  The
    # length of u is fixed because it sets the cost: with the same
    # multiplier an item costs 2-3 s for l(u) = 9 and 5-10 s for l(u) = 1.
    SLOTS = [(3, "hook", (0, 1), 9), (2, "power", 1, 8),
             (4, "hook", (0, 0), 9)]

    def setup(self, seed, count):
        import flagcsm.rules  # noqa: F401  (set-up includes the import)
        from flagcsm.csm import csm_class
        from flagcsm.perm import all_permutations
        from flagcsm.schubert import double_schubert

        perms = all_permutations(5)
        rnd = random.Random(seed)
        items = []
        for i in range(count):
            k, kind, param, length = self.SLOTS[i % len(self.SLOTS)]
            u = rnd.choice([u for u in perms if u.length() == length])
            items.append((str(u), k, kind, param))
        # the per-n tables every item reads
        for w in perms:
            csm_class(w)
            double_schubert(w)
        return items

    def run(self, item):
        from flagcsm.csm import oracle_product
        from flagcsm.perm import Permutation
        from flagcsm.rules import mn_csm, mn_schubert, pieri_hook_csm, \
            pieri_hook_schubert
        from flagcsm.symfun import power_sum, schur_hook, x_range

        text, k, kind, param = item
        u = Permutation.parse(text)
        if kind == "hook":
            g = schur_hook(5, param[0], param[1], x_range(k))
            rules = (pieri_hook_csm(u, k, param),
                     pieri_hook_schubert(u, k, param))
        else:
            g = power_sum(5, param, x_range(k))
            rules = (mn_csm(u, k, param), mn_schubert(u, k, param))
        oracles = (oracle_product(u, g, "csm"),
                   oracle_product(u, g, "schubert"))
        bad = [b for b, r, o in zip(("csm", "schubert"), rules, oracles)
               if r.coeffs != o.coeffs]
        text = "\n".join(_render(c) for c in oracles)
        return not bad, _digest(text), \
            "rule != oracle in " + ",".join(bad) if bad else ""


class RulesLarge(Workload):
    """Every closed-form rule at n = 8, 9, equivariant and not."""

    name = "rules-large"
    nominal_item_s = 0.83
    # (n, k, (alpha, beta), r)
    SLOTS = [
        (9, 5, (2, 1), 1), (8, 4, (1, 2), 4), (8, 4, (3, 1), 1),
        (8, 3, (2, 2), 3), (9, 5, (1, 1), 1), (9, 7, (2, 2), 2),
        (8, 5, (2, 1), 3), (9, 3, (0, 2), 4),
    ]
    VARIANTS = 6  # u choices per slot, fixed so that digests can be recorded
    REFERENCE = os.path.join(HERE, "reference", "rules-large.json")

    @classmethod
    def pool(cls):
        """For each slot, VARIANTS permutations u, each a product of at most
        three random simple transpositions (fixed draw, seed 0)."""
        from flagcsm.perm import Permutation

        rnd = random.Random(0)
        out = []
        for n, _, _, _ in cls.SLOTS:
            us = []
            for _ in range(cls.VARIANTS):
                u = Permutation.identity(n)
                for _ in range(rnd.randint(0, 3)):
                    i = rnd.randint(1, n - 1)
                    u = u.compose(Permutation.transposition(i, i + 1, n))
                us.append(str(u))
            out.append(us)
        return out

    @staticmethod
    def key(item):
        n, k, u, (alpha, beta), r = item
        return "n=%d k=%d u=%s hook=%d,%d r=%d" % (n, k, u, alpha, beta, r)

    def setup(self, seed, count):
        import flagcsm.rules  # noqa: F401  (set-up includes the import)

        pool = self.pool()
        rnd = random.Random(seed)
        items = []
        for i in range(count):
            slot = i % len(self.SLOTS)
            n, k, hook, r = self.SLOTS[slot]
            items.append((n, k, rnd.choice(pool[slot]), hook, r))
        with open(self.REFERENCE) as fh:
            self.reference = json.load(fh)
        return items

    def outputs(self, item):
        """The canonical text of every expansion of the item, and the
        labels of the expansions that failed the t = 0 check."""
        from flagcsm.perm import Permutation
        from flagcsm.rules import mn_csm, mn_schubert, pieri_eh_localized, \
            pieri_hook_csm, pieri_hook_schubert

        n, k, text, hook, r = item
        u = Permutation.parse(text)
        pairs = [
            ("pieri_hook_csm", pieri_hook_csm(u, k, hook),
             pieri_hook_csm(u, k, hook, False)),
            ("pieri_hook_schubert", pieri_hook_schubert(u, k, hook),
             pieri_hook_schubert(u, k, hook, False)),
            ("mn_csm", mn_csm(u, k, r), mn_csm(u, k, r, False)),
            ("mn_schubert", mn_schubert(u, k, r), mn_schubert(u, k, r, False)),
        ]
        # c[k,r] and c'[k,r] are e_r and h_r at t = 0: the hooks (0, r-1)
        # and (r-1, 0)
        if r <= k:
            pairs.append(("column", pieri_eh_localized(u, k, r, "column"),
                          pieri_hook_csm(u, k, (0, r - 1), False)))
        if k + r <= n:
            pairs.append(("row", pieri_eh_localized(u, k, r, "row"),
                          pieri_hook_csm(u, k, (r - 1, 0), False)))
        bad = []
        for label, eq, ne in pairs:
            spec = eq.specialize_t0()
            spec.coeffs.pop(u, None)
            if spec.coeffs != ne.coeffs:
                bad.append(label)
        text = "\n".join(_render(c) for _, eq, ne in pairs for c in (eq, ne))
        return text, bad

    def run(self, item):
        text, bad = self.outputs(item)
        digest = _digest(text)
        want = self.reference.get(self.key(item))
        notes = []
        if bad:
            notes.append("t=0 mismatch in " + ",".join(bad))
        if want != digest:
            notes.append("digest %s, reference %s" % (digest, want))
        return not notes, digest, "; ".join(notes)


_SIZE_4 = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]  # partitions of 4


class Rht3Way(Workload):
    """Standard rim-hook tableaux of a skew shape counted by enumeration,
    by the cyclotomic limit and by the major index (and by the hook-length
    formula on straight shapes), through ``flagcsm rht --method all``; all
    counts must agree."""

    name = "rht-3way"
    nominal_cycle_s = 4.2  # one item from every slot
    # (outer rectangle, inner shapes the seed draws from); the seed also
    # draws r among 2, 3, 4 dividing the skew size.  Each slot's inner
    # shapes cost about the same, so two seeds do comparable work.  Four
    # slots cost less than the two (5,5,5) slots and four cost more, so the
    # median timing is a (5,5,5) one, whose inputs no seed changes.
    SLOTS = [
        ((3, 3, 3, 3), [()]),
        ((6, 6), [()]),
        ((4, 4, 4, 4), _SIZE_4),
        ((4, 4, 4, 4), _SIZE_4),
        ((5, 5, 5), [()]),
        ((5, 5, 5), [(1,)]),
        ((6, 6, 6), [(4, 2), (3, 3), (2, 2, 2)]),
        ((4, 4, 4, 4), [()]),
        ((5, 5, 5, 5), [(5, 2, 1), (5, 1, 1, 1), (4, 4), (4, 2, 2),
                        (4, 2, 1, 1)]),
        ((6, 6, 6), [(1, 1)]),
    ]

    def count(self, seconds, passes):
        """Whole cycles through the slots, so every run keeps the slots'
        proportions."""
        cycles = max(1, round(seconds / (passes * self.nominal_cycle_s)))
        return cycles * len(self.SLOTS)

    def setup(self, seed, count):
        import flagcsm.cli  # noqa: F401  (set-up includes the import)
        import flagcsm.rht  # noqa: F401
        from flagcsm.perm import grassmannian_from_partition
        from flagcsm.schubert import double_schubert

        rnd = random.Random(seed)
        items = []
        for i in range(count):
            outer, inners = self.SLOTS[i % len(self.SLOTS)]
            inner = rnd.choice(inners)
            size = sum(outer) - sum(inner)
            r = rnd.choice([r for r in (2, 3, 4) if size % r == 0])
            items.append((outer, inner, r))
        # the tables the items read: the double Schubert polynomial of every
        # shape, in the smallest rectangle holding the outer shape (the
        # ambient `flagcsm rht` uses), so that all passes do the same work
        for outer, inners in self.SLOTS:
            k, n = len(outer), len(outer) + outer[0]
            for shape in [outer] + inners:
                double_schubert(grassmannian_from_partition(shape, k, n))
        return items

    def run(self, item):
        from flagcsm.cli import main

        outer, inner, r = item
        buf = io.StringIO()
        code = main(["rht", "--outer", ",".join(map(str, outer)),
                     "--inner", ",".join(map(str, inner)) or "0",
                     "--r", str(r), "--method", "all"], out=buf)
        text = buf.getvalue()
        counts = dict(line.split() for line in text.splitlines()
                      if len(line.split()) == 2)
        methods = {"enumerate", "limit", "maj"} | (set() if inner else {"hook"})
        ok = code == 0 and set(counts) == methods \
            and len(set(counts.values())) == 1
        return ok, _digest(text), "" if ok else \
            "exit %d, counts %s" % (code, " ".join(text.split()))


WORKLOADS = {w.name: w for w in (OracleS5(), RulesLarge(), Rht3Way())}
