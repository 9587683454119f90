"""Test-only references: constructions that only the tests call, kept out
of the package.  Each is a second route to something the package computes
(a class representative, a permutation, a path, a localization) or a
listing that a package routine is checked against; a listing or a route
used as a reference shares no code with the routine it checks.  Like the
benchmark, this module imports only the names that a package module lists
in `__all__` (`test_public_surface.py` checks that).
"""

from itertools import combinations, combinations_with_replacement, \
    permutations

from flagcsm.bruhat import LabeledPath, k_edges_from
from flagcsm.exact import MPoly, at_t0, ring
from flagcsm.grassmann import fits_in_rectangle, normalize_partition
from flagcsm.perm import Permutation, coset_decompose, \
    grassmannian_from_partition
from flagcsm.schubert import double_schubert
from flagcsm.symfun import complete_sym, elem_sym, schur_hook, t_range, \
    tableau_sum, x_range


# -- polynomials

def substitute(f, mapping):
    """The ring homomorphism sending slot i of f to mapping[i]; slots
    absent from the mapping are fixed."""
    out = MPoly(f.nvars)
    pow_cache = {}
    for e, c in f.terms.items():
        term = MPoly.const(f.nvars, c)
        for i, d in enumerate(e):
            if not d:
                continue
            if i in mapping:
                key = (i, d)
                img = pow_cache.get(key)
                if img is None:
                    img = mapping[i] ** d
                    pow_cache[key] = img
                term = term * img
            else:
                g = [0] * f.nvars
                g[i] = d
                term = term * MPoly(f.nvars, {tuple(g): 1})
        out = out + term
    return out


def schur_general(n, lam, vs):
    """Schur polynomial of any partition on the subset, by summing over
    semistandard tableaux.  Intended for small shapes."""
    rg = ring(n)
    lam = tuple(p for p in lam if p > 0)
    slots = vs.slots(rg)
    out = MPoly(rg.nvars)

    def times(e, v, c):
        s = slots[v - 1]
        return e[:s] + (e[s] + 1,) + e[s + 1:]

    def leaf(e):
        out.terms[e] = out.terms.get(e, 0) + 1

    tableau_sum(lam, len(slots), (0,) * rg.nvars, times, leaf)
    return out


# -- Grassmannian class representatives

def giambelli_hook(alpha, beta, k, n):
    """A representative of the Schubert class of the hook-shape
    Grassmannian permutation built from hook Schur polynomials: the
    x-free term is the single Schubert polynomial of the inverse
    permutation evaluated at -t, and each smaller hook contributes an
    e/h correction at negated t-variables."""
    lam = (alpha + 1,) + (1,) * beta
    w_hook = grassmannian_from_partition(lam, k, n)  # raises on overflow
    rg = ring(n)

    single = at_t0(double_schubert(w_hook.inverse()))
    single = substitute(single,
                        {rg.x_slot(i): -rg.t(i) for i in range(1, n + 1)})

    out = single
    for a2 in range(alpha + 1):
        for b2 in range(beta + 1):
            out = out + (schur_hook(n, a2, b2, x_range(k))
                         * elem_sym(n, alpha - a2, t_range(k + alpha), sign=-1)
                         * complete_sym(n, beta - b2, t_range(k - beta), sign=-1))
    return out


def molev_class(kind, k, r, n):
    """Chern/Segre-type representatives of the one-column and one-row
    Grassmannian Schubert classes, produced in both displayed forms and
    asserted equal:

      column: sum over 1<=i_1<...<i_r<=k of prod (x_{i_j} - t_{i_j-j+1})
            = sum_{i+j=r} e_i(x_[k]) h_j(-t_[k-r+1])
      row:    sum over 1<=i_1<=...<=i_r<=k of prod (x_{i_j} - t_{i_j+j-1})
            = sum_{i+j=r} h_i(x_[k]) e_j(-t_[k+r-1])
    """
    rg = ring(n)
    if kind == "column":
        if r > k or k >= n:
            raise ValueError("no column permutation c[%d,%d] in S_%d" % (k, r, n))
        direct = rg.zero
        for idx in combinations(range(1, k + 1), r):
            term = rg.one
            for j, i in enumerate(idx, start=1):
                term = term * (rg.x(i) - rg.t(i - j + 1))
            direct = direct + term
        eh = rg.zero
        for i in range(r + 1):
            eh = eh + elem_sym(n, i, x_range(k)) \
                * complete_sym(n, r - i, t_range(k - r + 1), sign=-1)
    elif kind == "row":
        if k + r > n:
            raise ValueError("no row permutation c'[%d,%d] in S_%d" % (k, r, n))
        direct = rg.zero
        for idx in combinations_with_replacement(range(1, k + 1), r):
            term = rg.one
            for j, i in enumerate(idx, start=1):
                term = term * (rg.x(i) - rg.t(i + j - 1))
            direct = direct + term
        eh = rg.zero
        for i in range(r + 1):
            eh = eh + complete_sym(n, i, x_range(k)) \
                * elem_sym(n, r - i, t_range(k + r - 1), sign=-1)
    else:
        raise ValueError("kind must be 'column' or 'row'")
    if direct != eh:
        raise AssertionError("the two displayed forms disagree for %s[%d,%d]"
                             % (kind, k, r))
    return direct


# -- partitions by their boundary walk

def boundary_labels(lam, k, n):
    """Labels 1..n along the southeast boundary of lam inside k x (n-k):
    returns (row_label, col_label) dicts, rows indexed 1..k top-down and
    columns 1..n-k.  Row i of the diagram receives the label of its
    east-edge step.  The walk is independent of the bead encoding of
    `perm.partition_to_beads`, whose row labels it reproduces."""
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


def lift_path(steps, u, k):
    """The unique lift of a labeled partition path to the k-Bruhat graph
    on S_n starting at u (which must satisfy Gr(u) = the first shape):
    each step is matched by the single k-edge with its label and shape."""
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


# -- permutations

def reduced_word(w):
    """Deterministic reduced word (i1,...,il) with
    w = s_{i1} . s_{i2} . ... . s_{il}, stripped off by repeatedly
    removing the leftmost descent."""
    word = []
    ol = list(w.oneline)
    while True:
        for i in range(len(ol) - 1):
            if ol[i] > ol[i + 1]:
                ol[i], ol[i + 1] = ol[i + 1], ol[i]
                word.append(i + 1)
                break
        else:
            break
    word.reverse()
    return tuple(word)


def all_cycles(n, min_len=2, max_len=None):
    """All cycles in S_n of the given lengths as (cycle tuple, eta) pairs,
    each tuple in canonical form (minimum of the support first), sorted by
    length, then support, then the rest of the cycle.  Found by following
    each permutation of 1..n from its least moved point and keeping those
    whose one cycle covers every moved point."""
    if max_len is None:
        max_len = n
    found = []
    for oneline in permutations(range(1, n + 1)):
        moved = tuple(i for i in range(1, n + 1) if oneline[i - 1] != i)
        if not min_len <= len(moved) <= max_len:
            continue
        cyc = [moved[0]]
        while oneline[cyc[-1] - 1] != moved[0]:
            cyc.append(oneline[cyc[-1] - 1])
        if len(cyc) == len(moved):
            found.append(((len(cyc), moved, tuple(cyc)), Permutation(oneline)))
    found.sort(key=lambda pair: pair[0])
    return [(key[2], eta) for key, eta in found]


# -- localizations

def billey_localizations(v, root, one, target=None):
    """The localizations {w: S_w|_v} at the fixed point v of every double
    Schubert class, by Billey's formula (Duke Math. J. 96, 1999), zero
    values left out.  Along the reduced word a_1..a_l of v, letter j
    carries the root t_p - t_q, with q and p the values at a_j and
    a_j + 1 of s_{a_1} ... s_{a_{j-1}}, given as root(p, q); S_w|_v sums,
    over the subwords that are reduced words of w, the product of their
    letters' roots.  One pass over the word carries {product of the
    letters kept: sum of their root products}, starting from `one` at the
    identity.

    With a target w only {w: S_w|_v} is wanted, so only the products x
    that a reduced word of w passes through are carried: those below w
    in the right weak order, whose inverted value pairs w inverts too.
    A kept letter a inverts the values x(a) < x(a+1), so it is kept only
    when w has x(a+1) before x(a)."""
    n = v.n
    sums = {Permutation.identity(n): one}
    prefix = Permutation.identity(n)
    if target is not None:
        where = target.inverse()
    for a in reduced_word(v):
        s = Permutation.transposition(a, a + 1, n)
        weight = root(prefix(a + 1), prefix(a))
        nxt = dict(sums)
        for u, val in sums.items():
            if u(a) < u(a + 1):
                if target is not None and where(u(a)) < where(u(a + 1)):
                    continue
                us = u.compose(s)
                term = val * weight
                nxt[us] = term if us not in nxt else nxt[us] + term
        sums = nxt
        prefix = prefix.compose(s)
    return {w: val for w, val in sums.items()
            if not val.is_zero() and target in (None, w)}
