"""Exact arithmetic kernels: sparse multivariate polynomials over Q,
dense univariate polynomials in z, and cyclotomic quotient rings.

Everything in this package is exact.  Coefficients are Python ints where
possible and `fractions.Fraction` where division forces it; the two mix
freely (they compare and hash consistently).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

__all__ = [
    "ExactnessError", "PoleError", "MPoly", "divided_difference",
    "divide_exact_linear", "PolyRing", "ring", "canonical_str", "at_t0",
    "UPoly", "cyclotomic", "CycloElt", "vanishing_order", "limit_ratio_at_root"
]


class ExactnessError(ArithmeticError):
    """A division that must be exact left a remainder.

    Every division performed here is backed by an identity that guarantees
    divisibility, so a remainder signals a formula bug upstream; we abort
    rather than return anything approximate.
    """


class PoleError(ArithmeticError):
    """A limit was requested at a genuine pole."""


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


class MPoly:
    """Sparse multivariate polynomial over Q.

    Variables live in a fixed universe of ``nvars`` slots; an exponent
    vector is an int tuple of that length.  For the rings used in this
    package the slots are x1..xn, t1..tn in that order (see `PolyRing`).
    No zero coefficients are stored.

    Instances are immutable: every operation returns a new polynomial,
    and ``terms`` is written only while an instance is being built, by
    `__init__` on ``self`` or by a function on an ``MPoly(...)`` it made
    itself (tests/test_immutability_lint.py checks this over the
    package).  So `canonical_str` memoizes its text on the instance, in
    ``_text``, the first time it renders it.
    """

    __slots__ = ("nvars", "terms", "_text")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self._text = None
        if terms:
            self.terms = {e: c for e, c in terms.items() if c != 0}
        else:
            self.terms = {}

    # -- constructors

    @classmethod
    def const(cls, nvars, c):
        p = cls(nvars)
        if c != 0:
            p.terms[(0,) * nvars] = c
        return p

    @classmethod
    def variable(cls, nvars, idx):
        e = [0] * nvars
        e[idx] = 1
        p = cls(nvars)
        p.terms[tuple(e)] = 1
        return p

    # -- queries

    def is_zero(self):
        return not self.terms

    def constant_value(self):
        if not self.terms:
            return 0
        [(e, c)] = self.terms.items()
        if any(e):
            raise ValueError("not a constant polynomial")
        return c

    # -- arithmetic

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mismatched variable universes: %d vs %d"
                             % (self.nvars, other.nvars))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        p = MPoly(self.nvars)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = MPoly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MPoly(self.nvars)
            p = MPoly(self.nvars)
            p.terms = {e: c * other for e, c in self.terms.items()}
            return p
        self._check(other)
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        p = MPoly(self.nvars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, m):
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = MPoly.const(self.nvars, 1)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.nvars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return "MPoly(%s)" % canonical_str(self)


def divided_difference(f, i, j, swap=0):
    """d_ij f + swap * s_ij f in one termwise pass, where s_ij swaps slots
    i and j and d_ij f = (f - s_ij f) / (v_i - v_j).

    swap=0 gives the divided difference; swap=-1 gives the Demazure-Lusztig
    operator T = -s + d.  The quotient of v_i^p v_j^q - v_i^q v_j^p by
    v_i - v_j is the signed complete sum of monomials v_i^s v_j^{p+q-1-s},
    so no actual division is performed and exactness is automatic.
    """
    out = {}
    get = out.get
    for e, c in f.terms.items():
        p, q = e[i], e[j]
        if p == q:
            if not swap:
                continue
            key = e
        else:
            if p > q:
                lo, hi, sgn = q, p, c
            else:
                lo, hi, sgn = p, q, -c
            base = list(e)
            tot = p + q - 1
            for s in range(lo, hi):
                base[i] = s
                base[j] = tot - s
                key = tuple(base)
                v = get(key, 0) + sgn
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
            if not swap:
                continue
            base[i] = q
            base[j] = p
            key = tuple(base)
        v = get(key, 0) + swap * c
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    r = MPoly(f.nvars)
    r.terms = out
    return r


def divide_exact_linear(p, form):
    """Exact division of p by a form c + v_i - v_j (i != j), by Horner in
    v_i: with p = sum_d P_d v_i^d and quotient q = sum_d Q_d v_i^d, the
    layers are Q_{d-1} = P_d - (c - v_j) Q_d from the top degree down,
    and P_0 = (c - v_j) Q_0 leaves no remainder.

    Raises ValueError on any other form and ExactnessError if the
    division leaves a remainder.
    """
    c, i, j = 0, None, None
    for e, a in form.terms.items():
        if not any(e):
            c = a
        elif sum(e) == 1 and a == 1 and i is None:
            i = e.index(1)
        elif sum(e) == 1 and a == -1 and j is None:
            j = e.index(1)
        else:
            i = j = None
            break
    if i is None or j is None:
        raise ValueError("form must be c + v_i - v_j: %s" % canonical_str(form))
    layers = {}
    for e, a in p.terms.items():
        layers.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = a
    quot = {}
    prev = {}
    for d in range(max(layers, default=0), -1, -1):
        cur = layers.get(d, {})
        for e, a in prev.items():
            if c:
                cur[e] = cur.get(e, 0) - c * a
            up = e[:j] + (e[j] + 1,) + e[j + 1:]
            cur[up] = cur.get(up, 0) + a
        prev = {e: a for e, a in cur.items() if a}
        if d and prev:
            for e, a in prev.items():
                quot[e[:i] + (d - 1,) + e[i + 1:]] = a
    if prev:
        raise ExactnessError("non-exact division by %s" % canonical_str(form))
    q = MPoly(p.nvars)
    q.terms = quot
    return q


# ---------------------------------------------------------------------------
# the shared variable universe: x1..xn, t1..tn


class PolyRing:
    """Polynomial ring Q[x1..xn, t1..tn] with a fixed n: 2n slots, the
    x-variables first.

    All modules share one ring per n via `ring(n)`, so polynomials from
    different modules combine freely.
    """

    def __init__(self, n):
        self.n = n
        self.nvars = 2 * n
        self.var_names = tuple("%s%d" % (v, i)
                               for v in "xt" for i in range(1, n + 1))

    def x_slot(self, i):
        if not 1 <= i <= self.n:
            raise ValueError("x index out of range: %d" % i)
        return i - 1

    def t_slot(self, i):
        if not 1 <= i <= self.n:
            raise ValueError("t index out of range: %d" % i)
        return self.n + i - 1

    def x(self, i):
        return MPoly.variable(self.nvars, self.x_slot(i))

    def t(self, i):
        return MPoly.variable(self.nvars, self.t_slot(i))

    def const(self, c):
        return MPoly.const(self.nvars, c)

    @property
    def zero(self):
        return MPoly(self.nvars)

    @property
    def one(self):
        return MPoly.const(self.nvars, 1)


@lru_cache(maxsize=None)
def ring(n):
    return PolyRing(n)


def _coef_str(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        c = c.numerator
    return str(c)


def canonical_str(p):
    """Canonical printing: graded order, ties broken x1<..<xn<t1<..<tn
    (terms sorted by the key (sum(e), tuple(-d for d in e))); monomials
    like ``c*x1^2*t3`` with ^1 omitted and unit coefficients elided.

    The text is rendered once per instance and kept on it (see `MPoly`),
    so coefficients that rules share between endpoints render once."""
    text = p._text
    if text is None:
        text = p._text = _canonical_text(p)
    return text


def _canonical_text(p):
    if not p.terms:
        return "0"
    names = ring(p.nvars // 2).var_names
    # that key as two stable sorts: vectors descending, then degree ascending
    order = sorted(p.terms, reverse=True)
    order.sort(key=sum)
    pieces = []
    for e in order:
        c = p.terms[e]
        mono = "*".join([names[i] + ("^%d" % d if d > 1 else "")
                         for i, d in enumerate(e) if d])
        if not mono:
            s = _coef_str(c)
        elif c == 1:
            s = mono
        elif c == -1:
            s = "-" + mono
        else:
            s = _coef_str(c) + "*" + mono
        pieces.append(s if s[0] == "-" else "+" + s)
    out = "".join(pieces)
    return out[1:] if out[0] == "+" else out


def at_t0(p):
    """p at t1 = .. = tn = 0: the terms of p with no t exponent."""
    n = p.nvars // 2
    p0 = MPoly(p.nvars)
    p0.terms = {e: c for e, c in p.terms.items() if not any(e[n:])}
    return p0


# ---------------------------------------------------------------------------
# univariate polynomials in z


class UPoly:
    """Dense univariate polynomial over Q in the variable z.

    Coefficient list starts at the constant term; the leading coefficient
    is nonzero unless the polynomial is zero (empty list).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, d, c=1):
        return cls([0] * d + [c])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly([other])
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, m):
        out = UPoly([1])
        for _ in range(m):
            out = out * self
        return out

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree()
        lead = other.coeffs[-1]
        if dn < dd:
            return UPoly(), UPoly(rem)
        quot = [0] * (dn - dd + 1)
        for i in range(dn, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            qc = c if lead == 1 else Fraction(c, 1) / lead
            quot[i - dd] = qc
            for j, b in enumerate(other.coeffs):
                rem[i - dd + j] -= qc * b
        return UPoly(quot), UPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __repr__(self):
        if self.is_zero():
            return "UPoly('0')"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mono = "" if d == 0 else ("z" if d == 1 else "z^%d" % d)
            if not mono:
                s = _coef_str(c)
            elif c == 1:
                s = mono
            elif c == -1:
                s = "-" + mono
            else:
                s = _coef_str(c) + "*" + mono
            parts.append(s)
        out = parts[0]
        for s in parts[1:]:
            out += s if s.startswith("-") else "+" + s
        return "UPoly('%s')" % out


def _divisors(r):
    return [d for d in range(1, r + 1) if r % d == 0]


@lru_cache(maxsize=None)
def cyclotomic(r):
    """The r-th cyclotomic polynomial, by dividing z^r - 1 by every
    cyclotomic polynomial of a proper divisor of r."""
    if r < 1:
        raise ValueError("r must be positive")
    f = UPoly.monomial(r) - 1
    for d in _divisors(r)[:-1]:
        f, rem = divmod(f, cyclotomic(d))
        if not rem.is_zero():
            raise ExactnessError("cyclotomic division left a remainder")
    return f


class CycloElt:
    """Element of Q[z]/(Phi_r): a residue of degree < deg Phi_r.

    Phi_r is irreducible over Q, so every nonzero element is invertible
    (by the extended Euclidean algorithm).
    """

    __slots__ = ("r", "residue")

    def __init__(self, r, poly):
        self.r = r
        self.residue = poly % cyclotomic(r)

    def is_zero(self):
        return self.residue.is_zero()

    def is_rational(self):
        return self.residue.degree() <= 0

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational: %r" % self.residue)
        return self.residue.coeffs[0] if self.residue.coeffs else 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElt(self.r, UPoly([other]))
        if not isinstance(other, CycloElt):
            return NotImplemented
        return self.r == other.r and self.residue == other.residue

    def __hash__(self):
        return hash((self.r, self.residue))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElt(self.r, UPoly([other]))
        return CycloElt(self.r, self.residue + other.residue)

    __radd__ = __add__

    def __neg__(self):
        return CycloElt(self.r, -self.residue)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElt(self.r, UPoly([other]))
        return CycloElt(self.r, self.residue - other.residue)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElt(self.r, self.residue * other)
        return CycloElt(self.r, self.residue * other.residue)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero in Q[z]/Phi_r")
        # extended Euclid: a*residue + b*Phi = gcd (a unit of Q)
        r0, r1 = cyclotomic(self.r), self.residue
        s0, s1 = UPoly(), UPoly([1])
        while not r1.is_zero():
            q, rem = divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, s0 - q * s1
        if r0.degree() != 0:
            raise ExactnessError("Phi_r not coprime to residue")
        inv_lead = Fraction(1, 1) / r0.coeffs[0]
        return CycloElt(self.r, s0 * inv_lead)

    def __repr__(self):
        return "CycloElt(r=%d, %r)" % (self.r, self.residue)


def vanishing_order(f, r):
    """Multiplicity of Phi_r in f, plus the nonzero unit f/Phi_r^order
    viewed in Q[z]/Phi_r."""
    if f.is_zero():
        raise ExactnessError("vanishing order of the zero polynomial is "
                             "undefined")
    phi = cyclotomic(r)
    order = 0
    while True:
        q, rem = divmod(f, phi)
        if rem.is_zero():
            f = q
            order += 1
        else:
            break
    unit = CycloElt(r, f)
    if unit.is_zero():
        raise ExactnessError("unit part reduced to zero")
    return order, unit


def limit_ratio_at_root(num, den, r):
    """Exact lim_{z->zeta} num/den at a primitive r-th root of unity zeta,
    as an element of Q[z]/Phi_r.  Raises PoleError when the limit blows up."""
    on, un = vanishing_order(num, r)
    od, ud = vanishing_order(den, r)
    if on < od:
        raise PoleError("pole of order %d at the r=%d root" % (od - on, r))
    if on > od:
        return CycloElt(r, UPoly())
    return un * ud.inverse()
