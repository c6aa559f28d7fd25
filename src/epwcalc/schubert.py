"""Schubert calculus on Gr(k, n): Pieri products and top-degree integration.

Classes are integer combinations of partitions fitting in the k x (n-k)
box; products are built from the special classes sigma_m by the Pieri rule
on horizontal strips. Two-row Giambelli covers the general products on
Gr(2, n), sigma_{1,1} = sigma_1^2 - sigma_2 among them.
"""

from dataclasses import dataclass


class ContextMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Context:
    k: int
    n: int

    @property
    def cols(self):
        return self.n - self.k

    @property
    def top_codim(self):
        return self.k * self.cols


def partition_in_box(ctx: Context, parts) -> tuple:
    parts = tuple(p for p in parts if p != 0)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"not weakly decreasing: {parts}")
    if any(p < 0 for p in parts):
        raise ValueError("negative part")
    if len(parts) > ctx.k or (parts and parts[0] > ctx.cols):
        raise ValueError(f"partition {parts} does not fit the {ctx.k}x{ctx.cols} box")
    return parts


class SchubertClass:
    """Integer combination of box partitions in a fixed Gr(k, n) context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: Context, coeffs):
        clean = {}
        for parts, c in coeffs.items():
            if c == 0:
                continue
            key = partition_in_box(ctx, parts)
            clean[key] = clean.get(key, 0) + c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", {p: c for p, c in clean.items() if c != 0})

    def __setattr__(self, *a):
        raise AttributeError("SchubertClass is immutable")

    @classmethod
    def sigma(cls, ctx, *parts):
        return cls(ctx, {tuple(parts): 1})

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {(): 1})

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return SchubertClass(self.ctx, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return SchubertClass(self.ctx, {p: c * v for p, v in self.coeffs.items()})

    def is_pure(self, codim) -> bool:
        return all(sum(p) == codim for p in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, SchubertClass)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for p in sorted(self.coeffs):
            c = self.coeffs[p]
            name = "s[" + ",".join(map(str, p)) + "]" if p else "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits)


def _horizontal_strips(ctx, lam, m):
    """Partitions mu >= lam with mu/lam a horizontal strip of size m."""
    lam = list(lam) + [0] * (ctx.k - len(lam))
    out = []

    def rec(i, remaining, acc):
        if i == ctx.k:
            if remaining == 0:
                out.append(tuple(x for x in acc if x))
            return
        # strip condition: lam[i] <= mu[i] <= lam[i-1] (no stacked added boxes)
        hi = min(ctx.cols, lam[i - 1]) if i > 0 else ctx.cols
        for mu_i in range(lam[i], hi + 1):
            add = mu_i - lam[i]
            if add > remaining:
                break
            rec(i + 1, remaining - add, acc + [mu_i])

    rec(0, m, [])
    return out


def pieri(x: SchubertClass, m: int) -> SchubertClass:
    """Multiply by sigma_m by horizontal strips, truncated to the box."""
    if m == 0:
        return x
    ctx = x.ctx
    out = {}
    for lam, c in x.coeffs.items():
        for mu in _horizontal_strips(ctx, lam, m):
            out[mu] = out.get(mu, 0) + c
    return SchubertClass(ctx, out)


def mul_by_partition(x: SchubertClass, parts) -> SchubertClass:
    """Multiply by sigma_{a,b} on a 2-row Grassmannian via Giambelli:
    sigma_{a,b} = sigma_a sigma_b - sigma_{a+1} sigma_{b-1}."""
    if x.ctx.k != 2:
        raise ContextMismatch("general partition products implemented for k = 2 only")
    parts = tuple(parts)
    if len(parts) == 0:
        return x
    if len(parts) == 1:
        return pieri(x, parts[0])
    a, b = parts
    plus = pieri(pieri(x, a), b)
    minus = pieri(pieri(x, a + 1), b - 1)
    return plus - minus


def integrate(x: SchubertClass) -> int:
    """Coefficient of the full-box class; requires pure top codimension."""
    ctx = x.ctx
    if not x.is_pure(ctx.top_codim):
        raise ValueError("integrate needs a class of pure top codimension")
    full = tuple([ctx.cols] * ctx.k)
    return x.coeffs.get(full, 0)


def _e_polynomial_to_class(ctx, coeffs):
    """Evaluate a polynomial in e1, e2 (dict (i, j) -> coeff) by iterated
    products with sigma_1 and sigma_{1,1} = sigma_1^2 - sigma_2."""
    out = SchubertClass(ctx, {})
    for (i, j), c in coeffs.items():
        term = SchubertClass.one(ctx)
        for _ in range(i):
            term = pieri(term, 1)
        for _ in range(j):
            term = mul_by_partition(term, (1, 1))
        out = out + term.scale(c)
    return out


def sym6_top_chern() -> SchubertClass:
    """Top Chern class of the 6th symmetric power of the rank-2 dual
    tautological bundle on Gr(2, 6).

    The seven Chern roots (6-i)a + ib multiply out to
    432*e1*e2*(5e1^2 + 16e2)*(2e1^2 + e2) in the elementary symmetric
    functions of the two roots; substituting e1 = sigma_1 and
    e2 = sigma_{1,1} and reducing by Pieri lands on the single box
    partition (4, 3) of codimension 7.
    """
    ctx = Context(2, 6)
    # (5e1^2 + 16e2)(2e1^2 + e2) = 10e1^4 + 37e1^2 e2 + 16 e2^2
    poly = {(5, 1): 10 * 432, (3, 2): 37 * 432, (1, 3): 16 * 432}
    out = _e_polynomial_to_class(ctx, poly)
    assert out.is_pure(7)
    assert set(out.coeffs) == {(4, 3)}
    return out
