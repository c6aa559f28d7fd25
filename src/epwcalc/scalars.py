"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Scalars are raw carriers (fractions.Fraction for the rationals, small ints
in [0, p) for F_p); the field they belong to is carried by the containers
(Matrix, Subspace, ExteriorVector) and by these context objects. Mixing
carriers from different fields is a hard error wherever two fields meet.
A field's `of` makes a raw number one of its elements. It is called once,
where numbers enter the program, and on a formula's own integers; `linalg`
trusts the elements it is given and calls `of` only to change field (see
its docstring).

The field objects also own vector arithmetic: `lincomb`, `axpy` and `dot`
combine and pair vectors with one body per field and return canonical
elements, so no caller branches on the field to combine or reduce vectors.
Over F_p they accept unreduced (also negative) ints and reduce once at the
end. Over QQ they work on integers: each vector's denominators are cleared
by one lcm, the integer numerators are combined over one common
denominator, and each output entry is one Fraction, whatever the types
of the inputs.
"""

from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul


class FieldMismatch(ValueError):
    """Raised when an operation would silently combine two different fields."""


# Miller-Rabin with the first 13 prime bases is deterministic below
# psi_13 = 3317044064679887385961981 (Sorenson-Webster 2017); the first 12
# bases alone pass the composite psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _combination(coeffs, rows):
    """sum coeffs[i] * rows[i] over the nonzero coefficients, exact and
    unreduced; None when every coefficient is zero."""
    acc = None
    for c, row in zip(coeffs, rows):
        if c:
            acc = [c * b for b in row] if acc is None else [a + c * b for a, b in zip(acc, row)]
    return acc


def _numerators(row):
    """(d, nums): the lcm d of the row's denominators and the integers d * x."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        return 1, [x.numerator for x in row]
    return d, [x.numerator * (d // x.denominator) for x in row]


def _rational_combination(pairs):
    """sum c * row over the (c, row) pairs, on integer numerators over one
    common denominator, with one Fraction built per entry."""
    terms = []
    for c, row in pairs:
        d, nums = _numerators(row)
        terms.append((c.numerator, c.denominator * d, nums))
    den = lcm(*[d for _, d, _ in terms])
    acc = _combination([n * (den // d) for n, d, _ in terms], [nums for _, _, nums in terms])
    return [Fraction(x, den) for x in acc]


def is_prime(n: int) -> bool:
    """Exact primality for n below _MR_BOUND; ValueError at or above it."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is not decided: deterministic only below {_MR_BOUND}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q; elements are fractions.Fraction in lowest terms."""

    name = "QQ"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def of(self, x) -> Fraction:
        return x if type(x) is Fraction else Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(a) / b

    def inv(self, a):
        return self.div(self.one, a)

    def is_zero(self, a) -> bool:
        return a == 0

    def lincomb(self, coeffs, rows):
        """sum coeffs[i] * rows[i]; the zero vector when every coefficient is 0."""
        pairs = [(c, row) for c, row in zip(coeffs, rows) if c]
        return _rational_combination(pairs) if pairs else [self.zero] * len(rows[0])

    def axpy(self, y, c, x):
        """y + c * x."""
        return _rational_combination([(1, y), (c, x)])

    def dot(self, a, b):
        """sum a[i] * b[i] as one Fraction."""
        da, na = _numerators(a)
        db, nb = _numerators(b)
        return Fraction(sum(map(mul, na, nb)), da * db)

    def random(self, rng):
        """A uniform integer in -9..9."""
        return Fraction(rng.randint(-9, 9))

    def sqrt(self, a):
        """Exact square root, or None if `a` is not a rational square."""
        if a < 0:
            return None
        import math

        n, d = a.numerator, a.denominator
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """F_p for an odd prime p; elements are reduced ints in [0, p)."""

    def __init__(self, p: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"not an odd prime: {p}")
        self.p = p
        self.name = f"F{p}"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, x) -> int:
        if type(x) is int:  # the common case; skips the ABC isinstance below
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return a * pow(b, -1, self.p) % self.p

    def inv(self, a):
        return self.div(1, a)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def lincomb(self, coeffs, rows):
        """sum coeffs[i] * rows[i] in [0, p); the zero vector when every
        coefficient is 0."""
        acc = _combination(coeffs, rows)
        if acc is None:
            return [0] * len(rows[0])
        p = self.p
        return [a % p for a in acc]

    def axpy(self, y, c, x):
        """y + c * x in [0, p)."""
        p = self.p
        return [(a + c * b) % p for a, b in zip(y, x)]

    def dot(self, a, b):
        return sum(map(mul, a, b)) % self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def sqrt(self, a):
        """The smallest square root of a in [0, p), or None for a non-residue:
        the smallest root of x^2 - a (`linalg.smallest_root`)."""
        from .linalg import smallest_root  # linalg imports this module

        return smallest_root([-a, 0, 1], self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

@cache
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def same_field(a, b):
    if a != b:
        raise FieldMismatch(f"field mismatch: {a!r} vs {b!r}")
    return a
