"""Closed-form product rules for CSM and Schubert classes: Pieri rules
for hook Schur polynomials and hook-shape Schubert classes, the
Murnaghan-Nakayama rule for power sums, and the rigidity lifts that
assemble equivariant structure constants from nonequivariant counts.

Conventions shared by all rules: the multiplier lives in x_1..x_k, paths
run in the extended k-Bruhat order for CSM expansions and in the
ordinary (cover-only) order for Schubert expansions, and the diagonal
coefficient is the multiplier evaluated at t_{u(1)},..,t_{u(k)}.
"""

from __future__ import annotations

from itertools import product

from .bruhat import count_paths, moved_values, sigma_delta
from .exact import ring
from .perm import cycles_through
from .schubert import CohClass, grassmannian_restriction
from .symfun import VarSubset, complete_sym, elem_sym, power_sum, schur_hook, ts

__all__ = [
    "pieri_hook_csm", "pieri_hook_schubert", "pieri_schubertclass_csm",
    "pieri_eh_localized", "mn_csm", "mn_schubert", "rigidity_lift_hook",
    "rigidity_lift_powersum"
]


def _hook_fits(alpha, beta, k, n):
    return beta + 1 <= k and alpha + 1 <= n - k


def _diag_subset(u, k):
    return VarSubset("t", tuple(u(i) for i in range(1, k + 1)))


def pieri_hook_csm(u, k, hook, equivariant=True):
    """Expansion of the CSM class of u times the hook Schur polynomial
    s_(1+alpha, 1^beta)(x_[k]).

    Equivariant coefficients sum h_{alpha-in} e_{beta-de} over peakless
    paths, evaluated on the t-variables indexed by Sigma_k(u,w) and
    Delta_k(u,w); nonequivariantly the coefficient is the number of
    peakless paths with in = alpha and de = beta exactly."""
    return _pieri_hook(u, k, hook, equivariant, cover_only=False, basis="csm")


def pieri_hook_schubert(u, k, hook, equivariant=True):
    """Same expansion in the Schubert basis: identical coefficients, but
    the peakless paths are restricted to the ordinary k-Bruhat order."""
    return _pieri_hook(u, k, hook, equivariant, cover_only=True,
                       basis="schubert")


def _peakless_counts(u, k, alpha, beta, cover_only):
    """{w: Counter{(in, de): number of peakless paths u -> w}} over the
    nonempty peakless paths with in <= alpha and de <= beta."""
    counts = count_paths(u, k, ("peakless_le", alpha, beta), cover_only)
    counts.pop(u, None)
    return counts


def _pieri_hook(u, k, hook, equivariant, cover_only, basis):
    n = u.n
    alpha, beta = hook
    rg = ring(n)
    out = CohClass(basis, equivariant)
    if not equivariant:
        # only the paths with in = alpha and de = beta are counted
        counts = count_paths(u, k, ("peakless", alpha, beta), cover_only)
        counts.pop(u, None)
        consts = {}  # one constant per distinct count, for this call
        for w, by_stats in counts.items():
            c = by_stats[alpha, beta]
            const = consts.get(c)
            if const is None:
                const = consts[c] = rg.const(c)
            out.add(w, const)
        return out
    out.add(u, schur_hook(n, alpha, beta, _diag_subset(u, k)))
    _add_per_key(out, u, range(1, k + 1),
                 _peakless_counts(u, k, alpha, beta, cover_only),
                 lambda sd, by_stats: _dress(n, sd, by_stats, alpha, beta))
    return out


def _add_per_key(out, u, A, counts, coeff):
    """Add coeff(Sigma_A/Delta_A, counts) at each endpoint w of counts.
    The coefficient depends on w only through the values it moves and its
    counts, so it is computed once per distinct such key; the memo lives
    for this call, and endpoints sharing a key share one (never mutated)
    polynomial."""
    memo = {}
    for w, by_stats in counts.items():
        key = (moved_values(u, w), frozenset(by_stats.items()))
        c = memo.get(key)
        if c is None:
            c = memo[key] = coeff(sigma_delta(u, w, A), by_stats)
        out.add(w, c)


def _dress(n, sd, by_stats, alpha, beta):
    """The equivariant path sum at one endpoint: each (in, de) count times
    h_{alpha-in} on Sigma and e_{beta-de} on Delta (zero when in > alpha
    or de > beta); the e terms are summed first, one h product per in."""
    zero = ring(n).zero
    by_in = {}
    for (pin, pde), count in by_stats.items():
        by_in[pin] = by_in.get(pin, zero) \
            + count * elem_sym(n, beta - pde, ts(*sd.delta))
    acc = zero
    for pin, e_sum in by_in.items():
        acc = acc + complete_sym(n, alpha - pin, ts(*sd.sigma)) * e_sum
    return acc


def pieri_schubertclass_csm(u, k, hook):
    """Expansion of the CSM class of u times the equivariant Schubert
    class of the hook-shape Grassmannian permutation with descent at k.

    The diagonal is the localization of that Schubert class at u; the
    off-diagonal coefficients split each hook budget between the path
    factors (on Sigma/Delta) and correction factors at negated
    t-variables coming from the hook Giambelli expansion."""
    from .symfun import t_range

    n = u.n
    alpha, beta = hook
    if not _hook_fits(alpha, beta, k, n):
        raise ValueError("hook (alpha=%d, beta=%d) does not fit in %dx%d"
                         % (alpha, beta, k, n - k))
    rg = ring(n)
    out = CohClass("csm", True)
    out.add(u, grassmannian_restriction((alpha + 1,) + (1,) * beta,
                                        u.oneline[:k], n))

    def coeff(sd, by_stats):
        acc = rg.zero
        for a2 in range(alpha + 1):
            for b2 in range(beta + 1):
                acc = acc + elem_sym(n, a2, t_range(k + alpha), sign=-1) \
                    * complete_sym(n, b2, t_range(k - beta), sign=-1) \
                    * _dress(n, sd, by_stats, alpha - a2, beta - b2)
        return acc

    _add_per_key(out, u, range(1, k + 1),
                 _peakless_counts(u, k, alpha, beta, False), coeff)
    return out


def pieri_eh_localized(u, k, r, kind):
    """Pieri rule for the one-column class c[k,r] (kind 'column') or the
    one-row class c'[k,r] (kind 'row'), with every coefficient produced
    as a localization of a smaller column/row Schubert class.

    Decreasing (resp. increasing) paths of each length r' <= r pick out
    the endpoints; the coefficient at the endpoint w is the class
    c[k-r', r-r'] localized at any permutation mapping [k-r'] onto
    Delta_k(u,w) (resp. c'[k+r', r-r'] at [k+r'] -> Sigma_k(u,w)), which
    `grassmannian_restriction` gives without building the class."""
    n = u.n
    if kind == "column":
        if r > k:
            raise ValueError("column class needs r <= k")
        shape = "decreasing"
    elif kind == "row":
        if k + r > n:
            raise ValueError("row class needs k + r <= n")
        shape = "increasing"
    else:
        raise ValueError("kind must be 'column' or 'row'")
    out = CohClass("csm", True)
    A = range(1, k + 1)
    for rp in range(0, r + 1):
        lam = (1,) * (r - rp) if kind == "column" else (r - rp,)
        by_subset = {}  # one localization per Delta (column) or Sigma (row)
        for w in count_paths(u, k, (shape, rp), False):
            sd = sigma_delta(u, w, A)
            subset = sd.delta if kind == "column" else sd.sigma
            if subset not in by_subset:
                by_subset[subset] = grassmannian_restriction(lam, subset, n)
            out.add(w, by_subset[subset])
    return out


def mn_csm(u, k, r, equivariant=True):
    """Murnaghan-Nakayama rule: expansion of the CSM class of u times the
    power sum p_r(x_[k]).

    Cycles eta of each length r'+1 <= r+1 with u below u.eta contribute
    (-1)^{k-height} h_{r-r'} on the t-variables u M(eta); the
    nonequivariant rule keeps only r' = r with coefficient the sign."""
    return _mn(u, k, r, equivariant, basis="csm")


def mn_schubert(u, k, r, equivariant=True):
    """The Schubert-basis Murnaghan-Nakayama rule: as `mn_csm` but keeping
    only cycles with l(u.eta) = l(u) + r'."""
    return _mn(u, k, r, equivariant, basis="schubert")


def _mn(u, k, r, equivariant, basis):
    n = u.n
    rg = ring(n)
    out = CohClass(basis, equivariant)
    if equivariant:
        out.add(u, power_sum(n, r, _diag_subset(u, k)))
    lu = u.length()
    # the coefficients of this call, shared between endpoints: +-h_{r-r'}
    # per (moved set, sign), r' = len(moved) - 1; nonequivariantly +-1
    h_by_moved = {}
    signs = {1: rg.const(1), -1: rg.const(-1)}
    for cyc, eta in cycles_through(u, k, r):
        rp = len(cyc) - 1
        w = u.compose(eta)
        if basis == "schubert" and w.length() != lu + rp:
            continue
        sign = -1 if eta.k_height(k) % 2 else 1
        if equivariant:
            key = (tuple(sorted(u(i) for i in eta.nonfixed_set())), sign)
            h = h_by_moved.get(key)
            if h is None:
                h = complete_sym(n, r - rp, ts(*key[0]))
                h = h_by_moved[key] = h if sign > 0 else -h
            out.add(w, h)
        elif rp == r:
            out.add(w, signs[sign])
    return out


# ---------------------------------------------------------------------------
# rigidity: equivariant coefficients from nonequivariant counts


def _nonequivariant_constants(u, k, A, params, rule, multiplier):
    """{w: {p: c}} over w != u, where c is the nonequivariant coefficient
    of csm(w) in csm(u) times multiplier(p), for each p in params.  For
    A = [k] it is read from the nonequivariant rule(u, k, p); for a
    general subset A, from the oracle."""
    from .csm import oracle_product

    on_k = k is not None and A == tuple(range(1, k + 1))
    out = {}
    for p in params:
        if on_k:
            got = rule(u, k, p, False)
        else:
            got = oracle_product(u, multiplier(p), "csm", equivariant=False)
        for w, c in got.coeffs.items():
            if w != u:
                out.setdefault(w, {})[p] = int(c.constant_value())
    return out


def _lift_subset(k, A):
    """The positions A of a rigidity lift: [k] unless A is given."""
    if A is not None:
        return tuple(sorted(A))
    if k is None:
        raise ValueError("pass k or an explicit subset A")
    return tuple(range(1, k + 1))


def rigidity_lift_hook(u, hook, k=None, A=None):
    """Equivariant hook-Pieri coefficients assembled from nonequivariant
    structure constants: each smaller hook's count is dressed with
    h_{alpha-alpha'} e_{beta-beta'} on Sigma_A/Delta_A, and the diagonal
    is the hook Schur polynomial at t_{uA}."""
    n = u.n
    alpha, beta = hook
    A = _lift_subset(k, A)
    out = CohClass("csm", True)
    out.add(u, schur_hook(n, alpha, beta,
                          VarSubset("t", tuple(u(i) for i in A))))
    counts = _nonequivariant_constants(
        u, k, A, product(range(alpha + 1), range(beta + 1)), pieri_hook_csm,
        lambda hook2: schur_hook(n, *hook2, VarSubset("x", A)))
    _add_per_key(out, u, A, counts,
                 lambda sd, by_shape: _dress(n, sd, by_shape, alpha, beta))
    return out


def rigidity_lift_powersum(u, r, k=None, A=None):
    """Equivariant Murnaghan-Nakayama coefficients assembled from
    nonequivariant ones: d^w_r(t) = sum_{r'} d^w_{r'} h_{r-r'} on the
    moved t-values, diagonal p_r(t_{uA})."""
    n = u.n
    A = _lift_subset(k, A)
    rg = ring(n)
    out = CohClass("csm", True)
    out.add(u, power_sum(n, r, VarSubset("t", tuple(u(i) for i in A))))

    base = _nonequivariant_constants(
        u, k, A, range(1, r + 1), mn_csm,
        lambda rp: power_sum(n, rp, VarSubset("x", A)))
    for w, by_len in base.items():
        moved = moved_values(u, w)
        acc = rg.zero
        for rp, cnt in by_len.items():
            acc = acc + cnt * complete_sym(n, r - rp, ts(*moved))
        out.add(w, acc)
    return out
