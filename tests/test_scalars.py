"""The fields' vector arithmetic against the per-element route."""

import random
from fractions import Fraction

import pytest

from epwcalc.exterior import ExteriorVector
from epwcalc.scalars import GF, QQ

FIELDS = [GF(7), GF(101), GF(2**61 - 1), QQ]


def elementwise_lincomb(F, coeffs, rows):
    acc = [F.zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        acc = [F.add(a, F.mul(F.of(c), F.of(b))) for a, b in zip(acc, row)]
    return acc


def elementwise_dot(F, a, b):
    acc = F.zero
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(F.of(x), F.of(y)))
    return acc


def draws(F, rnd, n, raw):
    """n elements of F, or with `raw` unreduced and negative ints over F_p."""
    if F == QQ:
        return [Fraction(rnd.randint(-50, 50), rnd.randint(1, 9)) for _ in range(n)]
    if raw:
        return [rnd.randint(-3 * F.p, 3 * F.p) for _ in range(n)]
    return [F.random(rnd) for _ in range(n)]


def assert_canonical(F, vec):
    if F == QQ:
        assert all(type(x) is Fraction for x in vec)
    else:
        assert all(type(x) is int and 0 <= x < F.p for x in vec)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
@pytest.mark.parametrize("raw", [False, True], ids=["reduced", "raw"])
def test_vector_ops_match_elementwise_route(F, raw):
    rnd = random.Random(7)
    for _ in range(40):
        k, n = rnd.randint(1, 6), rnd.randint(1, 8)
        rows = [draws(F, rnd, n, raw) for _ in range(k)]
        coeffs = draws(F, rnd, k, raw)
        for i in rnd.sample(range(k), rnd.randint(0, k)):  # some zero coefficients
            coeffs[i] = 0 if F != QQ else Fraction(0)
        got = F.lincomb(coeffs, rows)
        assert got == elementwise_lincomb(F, coeffs, rows)
        assert_canonical(F, got)

        y, x = draws(F, rnd, n, raw), draws(F, rnd, n, raw)
        c = draws(F, rnd, 1, raw)[0]
        got = F.axpy(y, c, x)
        assert got == elementwise_lincomb(F, [1, c], [y, x])
        assert_canonical(F, got)

        got = F.dot(y, x)
        assert got == elementwise_dot(F, y, x)
        assert_canonical(F, [got])


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_lincomb_of_zero_coefficients_is_the_zero_vector(F):
    zero = F.zero
    rows = [[F.of(3), F.of(-4), F.of(5)], [F.of(1), F.of(2), F.of(6)]]
    got = F.lincomb([zero, zero], rows)
    assert got == [0, 0, 0]
    assert_canonical(F, got)
    # a coefficient that is zero only mod p is still zero
    if F != QQ:
        assert F.lincomb([F.p, -F.p], rows) == [0, 0, 0]


# -- QQ on integer numerators against plain Fraction arithmetic --------------


def fraction_lincomb(coeffs, rows):
    """sum c * row term by term in Fraction arithmetic, skipping zero
    coefficients; the Fraction zero vector when all of them are zero."""
    acc = None
    for c, row in zip(coeffs, rows):
        if c:
            acc = [c * b for b in row] if acc is None else [a + c * b for a, b in zip(acc, row)]
    return [Fraction(0)] * len(rows[0]) if acc is None else acc


def fraction_axpy(y, c, x):
    return [a + c * b for a, b in zip(y, x)]


def fraction_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def typed(vec):
    return [(type(x), x) for x in vec]


def as_fractions(vec):
    """The QQ canonical form of a vector: one Fraction per entry."""
    return [Fraction(x) for x in vec]


def big(rnd):
    """A Fraction of 120-165 bits, about the size of QQ Lagrangian entries."""
    return Fraction(rnd.getrandbits(rnd.randint(120, 165)) * rnd.choice((-1, 1)), rnd.getrandbits(80) | 1)


ENTRY_KINDS = {
    "int": lambda rnd: rnd.randint(-30, 30),
    "fraction": lambda rnd: Fraction(rnd.randint(-30, 30), rnd.randint(1, 12)),
    "mixed": lambda rnd: rnd.choice((rnd.randint(-30, 30), Fraction(rnd.randint(-30, 30), rnd.randint(1, 12)))),
    "big": big,
    "big_or_int": lambda rnd: rnd.choice((big(rnd), rnd.randint(-5, 5), Fraction(rnd.randint(-5, 5)))),
}


@pytest.mark.parametrize("kind", sorted(ENTRY_KINDS))
def test_qq_vector_ops_equal_fraction_arithmetic_in_value_and_type(kind):
    draw = ENTRY_KINDS[kind]
    rnd = random.Random(f"qq-{kind}")
    for _ in range(60):
        k, n = rnd.randint(1, 5), rnd.randint(1, 9)
        rows = [[draw(rnd) for _ in range(n)] for _ in range(k)]
        coeffs = [draw(rnd) for _ in range(k)]
        for i in rnd.sample(range(k), rnd.randint(0, k)):  # zero coefficients, int and Fraction
            coeffs[i] = rnd.choice((0, Fraction(0)))
        assert typed(QQ.lincomb(coeffs, rows)) == typed(as_fractions(fraction_lincomb(coeffs, rows)))
        zeros = [rnd.choice((0, Fraction(0))) for _ in range(k)]
        assert typed(QQ.lincomb(zeros, rows)) == typed(as_fractions(fraction_lincomb(zeros, rows)))

        y, x, c = rows[0], [draw(rnd) for _ in range(n)], rnd.choice((draw(rnd), 0, Fraction(0)))
        assert typed(QQ.axpy(y, c, x)) == typed(as_fractions(fraction_axpy(y, c, x)))
        assert typed([QQ.dot(y, x)]) == typed(as_fractions([fraction_dot(y, x)]))


def test_qq_of_returns_a_fraction_unchanged():
    x = Fraction(3, 4)
    assert QQ.of(x) is x
    assert typed([QQ.of(3)]) == [(Fraction, Fraction(3))]


def test_prime_field_of_reads_every_number_exactly():
    """A float or a bool is read as the rational it is, as QQ reads it, not
    truncated: 0.5 is 1/2 = 9 in F_17, also inside an ExteriorVector."""
    F = GF(17)
    for x in (0.5, -0.25, 3.0, 1e-3, True):
        assert F.of(x) == F.of(QQ.of(x)) == F.of(Fraction(x))
    assert F.of(0.5) == 9
    assert ExteriorVector(F, 1, [0.5, 1.5, 0, 0, 0, 0]).coords == (9, 10, 0, 0, 0, 0)


@pytest.mark.parametrize("p", [17, 61, 101, 10007])
def test_prime_field_sqrt_is_the_smallest_root_exactly_for_residues(p):
    """Against the table of squares: None exactly for non-residues, else the
    smaller of the two roots r and p - r (0 for a = 0)."""
    F = GF(p)
    smallest = {}
    for r in range(p):
        smallest.setdefault(r * r % p, r)
    for a in range(p):
        root = F.sqrt(a)
        assert root == smallest.get(a), a
        assert root is None or root * root % p == a
