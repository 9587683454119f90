import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagcsm.exact import (
    CycloElt,
    ExactnessError,
    MPoly,
    PoleError,
    UPoly,
    _coef_str,
    at_t0,
    canonical_str,
    cyclotomic,
    divide_exact_linear,
    divided_difference,
    limit_ratio_at_root,
    ring,
    vanishing_order,
)
from reference import substitute


def rand_poly(rg, rnd, nterms=4, maxdeg=2):
    p = rg.zero
    for _ in range(nterms):
        term = rg.const(rnd.randint(-3, 3))
        for _ in range(rnd.randint(0, maxdeg)):
            slot = rnd.randrange(rg.nvars)
            term = term * MPoly.variable(rg.nvars, slot)
        p = p + term
    return p


def test_difference_of_squares():
    rg = ring(2)
    x1, t1 = rg.x(1), rg.t(1)
    assert (x1 + t1) * (x1 - t1) == x1 * x1 - t1 * t1


def test_additive_identity():
    rg = ring(3)
    p = rg.x(1) * rg.t(2) + 4
    assert p + rg.zero == p


def test_triple_product_expansion():
    # (1+t1-t2)(1+t1-t3)(1+t2-t3) for n=3, re-expanded by a hand oracle
    rg = ring(3)
    t = rg.t
    prod = (1 + t(1) - t(2)) * (1 + t(1) - t(3)) * (1 + t(2) - t(3))
    # hand oracle: multiply term lists explicitly
    def terms(*pairs):
        p = rg.zero
        for c, mono in pairs:
            p = p + rg.const(c) * mono
        return p
    f1 = terms((1, rg.one), (1, t(1)), (-1, t(2)))
    f2 = terms((1, rg.one), (1, t(1)), (-1, t(3)))
    f3 = terms((1, rg.one), (1, t(2)), (-1, t(3)))
    acc = rg.zero
    for e1, c1 in f1.terms.items():
        for e2, c2 in f2.terms.items():
            for e3, c3 in f3.terms.items():
                e = tuple(a + b + c for a, b, c in zip(e1, e2, e3))
                acc = acc + MPoly(rg.nvars, {e: c1 * c2 * c3})
    assert prod == acc
    assert len(prod.terms) == 15


def test_ring_axioms_random():
    rnd = random.Random(20240)
    rg = ring(2)
    for _ in range(60):
        a, b, c = (rand_poly(rg, rnd) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_substitute_basic():
    rg = ring(2)
    x1, t1, t2 = rg.x(1), rg.t(1), rg.t(2)
    assert substitute(x1, {rg.x_slot(1): t2}) == t2
    p = x1 - t1
    # x -> (t2, t1), i.e. the localization at the transposition in S2
    assert substitute(p, {rg.x_slot(1): t2, rg.x_slot(2): t1}) == t2 - t1


def test_substitute_longest_perm_n3():
    # expand prod_{i+j<=3}(x_i - t_j) and substitute x -> w0 t
    rg = ring(3)
    x, t = rg.x, rg.t
    p = (x(1) - t(1)) * (x(1) - t(2)) * (x(2) - t(1))
    img = substitute(p, {rg.x_slot(1): t(3), rg.x_slot(2): t(2), rg.x_slot(3): t(1)})
    assert img == (t(3) - t(1)) * (t(3) - t(2)) * (t(2) - t(1))


def test_divide_exact_linear_simple():
    rg = ring(3)
    t = rg.t
    assert divide_exact_linear(t(1) * t(1) - t(2) * t(2), t(1) - t(2)) == t(1) + t(2)
    form = 1 + t(1) - t(2)
    assert divide_exact_linear(form * t(3), form) == t(3)


def test_divide_exact_linear_roundtrip_random():
    rnd = random.Random(7)
    rg = ring(3)
    for _ in range(40):
        q = rand_poly(rg, rnd)
        i, j = rnd.sample(range(rg.nvars), 2)
        c0 = rnd.randint(-2, 2)
        form = MPoly.const(rg.nvars, c0) + MPoly.variable(rg.nvars, i) \
            - MPoly.variable(rg.nvars, j)
        assert divide_exact_linear(q * form, form) == q


def test_divide_exact_linear_rejects_nondivisible():
    rg = ring(2)
    with pytest.raises(ExactnessError):
        divide_exact_linear(rg.t(1) + 1, rg.t(1) - rg.t(2))


def test_divide_exact_linear_rejects_other_forms():
    rg = ring(2)
    t = rg.t
    p = t(1) * t(2)
    for form in (2 * t(1) - t(2), t(1) + t(2), t(1) * t(2) - 1, rg.const(3)):
        with pytest.raises(ValueError):
            divide_exact_linear(p, form)


def test_divided_difference():
    rg = ring(2)
    x = rg.x
    i, j = rg.x_slot(1), rg.x_slot(2)
    assert divided_difference(x(1), i, j) == rg.one
    assert divided_difference(x(1) * x(2), i, j).is_zero()
    sq = x(1) * x(1)
    assert divided_difference(sq, i, j) == x(1) + x(2)


def test_canonical_str_order_and_format():
    rg = ring(5)
    t = rg.t
    p = t(2) * t(3) + t(3) * t(3) + t(3) * t(5)
    assert canonical_str(p) == "t2*t3+t3^2+t3*t5"
    assert canonical_str(rg.zero) == "0"
    assert canonical_str(-rg.one) == "-1"
    assert canonical_str(2 * rg.x(1) ** 2 * t(3)) == "2*x1^2*t3"
    assert canonical_str(t(2) - t(4)) == "t2-t4"
    assert canonical_str(rg.const(Fraction(1, 2)) * rg.x(5) * t(1)) \
        == "1/2*x5*t1"


# ---------------------------------------------------------------------------
# univariate / cyclotomic


def test_cyclotomic_small():
    z = UPoly.monomial(1)
    assert cyclotomic(1) == z - 1
    assert cyclotomic(2) == z + 1
    assert cyclotomic(6) == z * z - z + 1


def test_cyclotomic_product_identity():
    for r in range(1, 31):
        prod = UPoly([1])
        for d in range(1, r + 1):
            if r % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == UPoly.monomial(r) - 1


def test_vanishing_order_examples():
    z = UPoly.monomial(1)
    f = z * z - 1
    order, unit = vanishing_order(f, 2)
    assert order == 1 and unit == -2

    order, unit = vanishing_order(z - 1, 2)
    assert order == 0 and unit == -2

    g = (z * z - 1) ** 3 * (z * z + z + 1)
    order, _ = vanishing_order(g, 2)
    assert order == 3

    with pytest.raises(ExactnessError):
        vanishing_order(UPoly(), 2)


def test_vanishing_order_multiplicative():
    rnd = random.Random(99)
    for _ in range(25):
        r = rnd.choice([2, 3, 4, 6])
        f = UPoly([rnd.randint(-3, 3) for _ in range(6)]) + UPoly.monomial(6)
        g = UPoly([rnd.randint(-3, 3) for _ in range(5)]) + UPoly.monomial(5)
        of, _ = vanishing_order(f, r)
        og, _ = vanishing_order(g, r)
        ofg, _ = vanishing_order(f * g, r)
        assert ofg == of + og


def test_limit_ratio_examples():
    z = UPoly.monomial(1)
    f = UPoly.monomial(4) - 1
    assert limit_ratio_at_root(f, f, 4) == 1

    num = UPoly.monomial(4) - 1
    den = UPoly.monomial(2) - 1
    assert limit_ratio_at_root(num, den, 2) == 2

    # prod_{i=1..4}(z^i-1) / (z^2-1)^2 at z -> -1 equals r^d d! = 8 for r=d=2
    num = (z - 1) * (UPoly.monomial(2) - 1) * (UPoly.monomial(3) - 1) \
        * (UPoly.monomial(4) - 1)
    den = (UPoly.monomial(2) - 1) ** 2
    assert limit_ratio_at_root(num, den, 2) == 8

    with pytest.raises(PoleError):
        limit_ratio_at_root(UPoly.monomial(2) - 1, den, 2)


def test_limit_factorial_identity():
    # lim (1/(z^r-1)^d) prod_{i=1..dr}(z^i-1) = (-1)^{rd-d} r^d d!
    import math
    for r in (2, 3, 4):
        for d in (1, 2, 3):
            num = UPoly([1])
            for i in range(1, d * r + 1):
                num = num * (UPoly.monomial(i) - 1)
            den = (UPoly.monomial(r) - 1) ** d
            want = (-1) ** (r * d - d) * r ** d * math.factorial(d)
            assert limit_ratio_at_root(num, den, r) == want


def test_cyclo_inverse():
    for r in (2, 3, 5, 6, 8):
        elt = CycloElt(r, UPoly([2, 3, 1]))
        if elt.is_zero():
            continue
        prod = elt * elt.inverse()
        assert prod == 1


# property tests for the two form types the localization oracle divides
# by: t_a - t_b (the T_i recursion and Schubert diagonals) and
# 1 + t_a - t_b (CSM diagonals)

_N = 3
_RG = ring(_N)
_exponents = st.tuples(*[st.integers(0, 3)] * _RG.nvars)
_coeffs = st.one_of(st.integers(-5, 5),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4)).filter(bool)
_polys = st.dictionaries(_exponents, _coeffs, max_size=6).map(
    lambda terms: MPoly(_RG.nvars, terms))
_pairs = st.tuples(st.integers(1, _N), st.integers(1, _N)).filter(
    lambda ab: ab[0] != ab[1])


def _form(pair, shifted):
    a, b = pair
    form = _RG.t(a) - _RG.t(b)
    return _RG.one + form if shifted else form


@given(_polys, _pairs, st.booleans())
def test_divide_exact_linear_inverts_multiplication(p, pair, shifted):
    form = _form(pair, shifted)
    assert divide_exact_linear(p * form, form) == p


@given(_polys, _pairs, st.booleans())
def test_divide_exact_linear_rejects_remainder(p, pair, shifted):
    # p * form + 1 is 1 on the zero set of the form, so never divisible
    form = _form(pair, shifted)
    with pytest.raises(ExactnessError):
        divide_exact_linear(p * form + 1, form)


# property tests for the one divided-difference kernel, with x exponents
# up to 40 (beyond any fixed-width exponent packing)

_wide_exponents = st.tuples(*[st.integers(0, 40)] * _N,
                            *[st.integers(0, 2)] * _N)
_wide_polys = st.dictionaries(_wide_exponents, _coeffs, max_size=3).map(
    lambda terms: MPoly(_RG.nvars, terms))
_letters = st.integers(1, _N - 1)


def _d(f, i):
    return divided_difference(f, _RG.x_slot(i), _RG.x_slot(i + 1))


def _T(f, i):
    return divided_difference(f, _RG.x_slot(i), _RG.x_slot(i + 1), swap=-1)


def _s(f, i):
    return substitute(f, {_RG.x_slot(i): _RG.x(i + 1),
                          _RG.x_slot(i + 1): _RG.x(i)})


@given(_wide_polys, _letters)
def test_kernel_dl_is_involution(f, i):
    assert _T(_T(f, i), i) == f


@given(_wide_polys)
def test_kernel_dl_braid(f):
    assert _T(_T(_T(f, 1), 2), 1) == _T(_T(_T(f, 2), 1), 2)


@given(_wide_polys, _letters)
def test_kernel_divided_difference_squares_to_zero(f, i):
    assert _d(_d(f, i), i).is_zero()


@given(_wide_polys, _letters)
def test_kernel_dl_is_divided_difference_minus_swap(f, i):
    assert _T(f, i) == _d(f, i) - _s(f, i)


# ring axioms and the printed term order on the 10-slot ring of S5

_RG5 = ring(5)
_polys5 = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * _RG5.nvars), _coeffs, max_size=5).map(
    lambda terms: MPoly(_RG5.nvars, terms))


@given(_polys5, _polys5)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(_polys5, _polys5, _polys5)
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(_polys5, _polys5, _polys5)
def test_mul_distributes_over_add(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(_polys5.filter(lambda p: not p.is_zero()))
def test_canonical_str_sorts_by_documented_key(p):
    order = sorted(p.terms, key=lambda e: (sum(e), tuple(-d for d in e)))
    pieces = [canonical_str(MPoly(p.nvars, {e: p.terms[e]})) for e in order]
    want = pieces[0] + "".join(
        s if s.startswith("-") else "+" + s for s in pieces[1:])
    assert canonical_str(p) == want


def _canonical_str_per_term(p):
    """The printing as first written: a generator per monomial and a
    signed concatenation term by term; the kept reference for
    `canonical_str`."""
    if not p.terms:
        return "0"
    names = ring(p.nvars // 2).var_names
    order = sorted(p.terms, reverse=True)
    order.sort(key=sum)
    pieces = []
    for e in order:
        c = p.terms[e]
        mono = "*".join(
            names[i] + ("^%d" % d if d > 1 else "")
            for i, d in enumerate(e) if d
        )
        if not mono:
            s = _coef_str(c)
        elif c == 1:
            s = mono
        elif c == -1:
            s = "-" + mono
        else:
            s = _coef_str(c) + "*" + mono
        pieces.append(s)
    out = pieces[0]
    for s in pieces[1:]:
        out += s if s.startswith("-") else "+" + s
    return out


# exponents over all ten slots, x and t, with the constant
# monomial and single powers drawn often; unit, negative, integral and
# proper Fraction coefficients


def _power(slot_and_degree):
    slot, d = slot_and_degree
    return tuple(d if i == slot else 0 for i in range(_RG5.nvars))


_print_polys = st.dictionaries(
    st.one_of(st.just((0,) * _RG5.nvars),
              st.tuples(st.integers(0, _RG5.nvars - 1),
                        st.integers(1, 3)).map(_power),
              st.tuples(*[st.integers(0, 3)] * _RG5.nvars)),
    st.one_of(st.sampled_from([1, -1, Fraction(4, 2), Fraction(-3, 1)]),
              _coeffs),
    max_size=6).map(lambda terms: MPoly(_RG5.nvars, terms))


@given(_print_polys)
def test_canonical_str_matches_per_term_reference(p):
    assert canonical_str(p) == _canonical_str_per_term(p)


@given(_print_polys)
def test_at_t0_is_specialization_at_zero(p):
    zero = {_RG5.t_slot(i): MPoly(_RG5.nvars) for i in range(1, 6)}
    assert at_t0(p) == substitute(p, zero)


@given(_print_polys)
def test_canonical_str_renders_once_per_instance(p):
    text = canonical_str(p)
    assert canonical_str(p) is text
    assert text == canonical_str(MPoly(p.nvars, dict(p.terms)))
    # a polynomial built from p renders its own terms, not p's memo
    x1 = _RG5.x(1)
    for q in (p + x1, -p, p * x1, at_t0(p)):
        assert canonical_str(q) == _canonical_str_per_term(q)
