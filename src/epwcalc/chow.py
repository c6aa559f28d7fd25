"""Formal intersection calculator on a 4-fold model.

Classes are Q-linear combinations of monomials in named, codimension-graded
symbols, truncated above the ambient dimension. The model carries a degree
table on the top-codimension monomials; Chern character, Todd and Whitney
manipulations are exact, and the pushforward from the embedded Lagrangian
surface goes through a fixed table (the surface self-intersection pushes
the surface's second Chern class, by the Lagrangian normal-bundle
identification).

The relations are data: `derive_relations` computes two routes to the
Chern classes of the cokernel sheaf and returns their difference in
codimensions 2, 3 and 4, the classes R2, R3 and R4 that vanish in Chow. It
compares nothing with a stated answer; the chow suite reads R3 and R4
modulo R2 and compares them with their anchors.

The standard degree table lives on the 4-fold with the point class
normalized so deg h^4 = 12; the halved readings on the quotient sextic are
not modeled separately.
"""

from fractions import Fraction
from math import factorial


class GradingError(ValueError):
    pass


class DerivationError(AssertionError):
    pass


class GradedModel:
    """A symbol table name -> codimension with a truncation dimension."""

    def __init__(self, dim, symbols):
        self.dim = dim
        self.symbols = dict(symbols)

    def codim_of(self, monomial) -> int:
        return sum(self.symbols[name] for name in monomial)

    def unit(self) -> "FormalClass":
        return FormalClass(self, {(): Fraction(1)})

    def zero(self) -> "FormalClass":
        return FormalClass(self, {})

    def sym(self, name, coeff=1) -> "FormalClass":
        if name not in self.symbols:
            raise GradingError(f"unknown symbol {name}")
        return FormalClass(self, {(name,): Fraction(coeff)})


class FormalClass:
    """Graded class: map from sorted symbol monomials to Q coefficients."""

    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        clean = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            mono = tuple(sorted(mono))
            if model.codim_of(mono) > model.dim:
                continue
            clean[mono] = clean.get(mono, Fraction(0)) + c
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c != 0})

    def __setattr__(self, *a):
        raise AttributeError("FormalClass is immutable")

    def _check(self, other):
        if self.model is not other.model:
            raise GradingError("classes live on different models")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.model.unit().scale(other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return FormalClass(self.model, out)

    __radd__ = __add__

    def __neg__(self):
        return FormalClass(self.model, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.model.unit().scale(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = Fraction(c)
        return FormalClass(self.model, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                if self.model.codim_of(mono) > self.model.dim:
                    continue
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return FormalClass(self.model, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        out = self.model.unit()
        for _ in range(k):
            out = out * self
        return out

    def component(self, codim) -> "FormalClass":
        return FormalClass(
            self.model,
            {m: c for m, c in self.terms.items() if self.model.codim_of(m) == codim},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def is_pure(self, codim) -> bool:
        return all(self.model.codim_of(m) == codim for m in self.terms)

    def substitute(self, name, replacement: "FormalClass") -> "FormalClass":
        """Replace every occurrence of a symbol by a class of equal codim."""
        self._check(replacement)
        out = self.model.zero()
        for mono, c in self.terms.items():
            term = self.model.unit().scale(c)
            for s in mono:
                term = term * (replacement if s == name else self.model.sym(s))
            out = out + term
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FormalClass)
            and self.model is other.model
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (self.model.codim_of(m), m)):
            c = self.terms[m]
            names = "*".join(m) if m else "1"
            bits.append(f"{c}*{names}" if m else f"{c}")
        return " + ".join(bits)


def series_inverse(total: FormalClass) -> FormalClass:
    """Inverse of 1 + (higher codim) as a truncated series."""
    model = total.model
    one = model.unit()
    if total.component(0) != one:
        raise GradingError("series inverse needs constant term 1")
    nil = total - one
    out, power, sign = one, one, 1
    for _ in range(model.dim):
        power = power * nil
        sign = -sign
        out = out + power.scale(sign)
    return out


class BundleClass:
    """Rank plus Chern classes c1..c_dim (each pure of its codimension)."""

    def __init__(self, model, rank, cs):
        self.model = model
        self.rank = rank
        full = list(cs) + [model.zero()] * (model.dim - len(cs))
        for i, c in enumerate(full, start=1):
            if not c.is_pure(i):
                raise GradingError(f"c{i} is not pure of codimension {i}")
        self.cs = tuple(full)

    def c(self, i) -> FormalClass:
        """c_i: 1 at i = 0, and 0 above the model's dimension."""
        if i == 0:
            return self.model.unit()
        return self.cs[i - 1] if i <= self.model.dim else self.model.zero()

    def total_chern(self) -> FormalClass:
        out = self.model.unit()
        for c in self.cs:
            out = out + c
        return out

    def __repr__(self):
        return f"BundleClass(rank {self.rank}; " + "; ".join(f"c{i+1}={c!r}" for i, c in enumerate(self.cs)) + ")"


def line_bundle(model, c1: FormalClass) -> BundleClass:
    return BundleClass(model, 1, [c1])


def ch_from_c(b: BundleClass):
    """Chern character components ch0..ch4 by the Newton identities."""
    m = b.model
    c1, c2, c3, c4 = (b.c(i) for i in (1, 2, 3, 4))
    ch0 = m.unit().scale(b.rank)
    ch1 = c1
    ch2 = (c1 * c1 - 2 * c2).scale(Fraction(1, 2))
    ch3 = (c1 * c1 * c1 - 3 * (c1 * c2) + 3 * c3).scale(Fraction(1, 6))
    ch4 = (c1**4 - 4 * (c1 * c1 * c2) + 4 * (c1 * c3) + 2 * (c2 * c2) - 4 * c4).scale(
        Fraction(1, 24)
    )
    return [ch0, ch1, ch2, ch3, ch4]


def c_from_ch(model, ch, rank) -> BundleClass:
    """Inverse Newton: power sums p_k = k!·ch_k back to c_1..c_4."""
    p = [None] + [ch[k].scale(Fraction(factorial(k))) for k in range(1, 5)]
    e1 = p[1]
    e2 = (e1 * p[1] - p[2]).scale(Fraction(1, 2))
    e3 = (p[3] - e1 * p[2] + e2 * p[1]).scale(Fraction(1, 3))
    e4 = (e1 * p[3] - e2 * p[2] + e3 * p[1] - p[4]).scale(Fraction(1, 4))
    return BundleClass(model, rank, [e1, e2, e3, e4])


def todd_from_c(b: BundleClass) -> FormalClass:
    m = b.model
    c1, c2, c3, c4 = (b.c(i) for i in (1, 2, 3, 4))
    td1 = c1.scale(Fraction(1, 2))
    td2 = (c1 * c1 + c2).scale(Fraction(1, 12))
    td3 = (c1 * c2).scale(Fraction(1, 24))
    td4 = (-(c1**4) + 4 * (c1 * c1 * c2) + c1 * c3 + 3 * (c2 * c2) - c4).scale(
        Fraction(1, 720)
    )
    return m.unit() + td1 + td2 + td3 + td4


def total_ch(b: BundleClass) -> FormalClass:
    out = b.model.zero()
    for comp in ch_from_c(b):
        out = out + comp
    return out


def chern_difference(e: BundleClass, f: BundleClass) -> FormalClass:
    """Codimension-2 part of c(e - f) = c(e) * c(f)^{-1}."""
    return (e.total_chern() * series_inverse(f.total_chern())).component(2)


def whitney_solve(target: FormalClass, known: FormalClass) -> FormalClass:
    """Solve known * X = target for the one unknown total class X."""
    x = target * series_inverse(known)
    if x * known != target:
        raise DerivationError("inconsistent Whitney system")
    return x


# -- the standard 4-fold model ----------------------------------------------

DEGREE_TABLE = {
    ("h", "h", "h", "h"): 12,
    ("c2", "h", "h"): 60,
    ("c2", "c2"): 828,
    ("c4",): 324,
    ("Z", "h", "h"): 40,
    ("Z", "c2"): 24,
    ("Z", "Z"): 192,
}


class VarietyModel(GradedModel):
    """Dimension-4 model with symbols h, c2, Z, c4 and a degree table."""

    def __init__(self, table=None):
        super().__init__(4, {"h": 1, "c2": 2, "Z": 2, "c4": 4})
        self.table = {tuple(sorted(k)): Fraction(v) for k, v in (table or DEGREE_TABLE).items()}

    def degree(self, x: FormalClass) -> Fraction:
        if not x.is_pure(4):
            raise GradingError("degree needs a pure codimension-4 class")
        out = Fraction(0)
        for m, c in x.terms.items():
            if m not in self.table:
                raise GradingError(f"monomial {m} missing from the degree table")
            out += c * self.table[m]
        return out

    def tangent(self) -> BundleClass:
        """The tangent bundle: odd Chern classes vanish on a symplectic 4-fold."""
        return BundleClass(self, 4, [self.zero(), self.sym("c2"), self.zero(), self.sym("c4")])

    def line(self, n) -> BundleClass:
        return line_bundle(self, self.sym("h", n))


def hrr_chi(model: VarietyModel, b: BundleClass) -> Fraction:
    """Euler characteristic via degree(ch(b) * td(T))."""
    td = todd_from_c(model.tangent())
    return model.degree((total_ch(b) * td).component(4))


def table_identities(model: VarietyModel):
    """The degree-table consistency facts: the rank-2-locus class identity
    3Z = 15h^2 - c2 paired against h^2, c2 and Z, and the top Todd value
    (1/240)(c2^2 - c4/3) = chi of the trivial bundle."""
    h2 = model.sym("h") * model.sym("h")
    checks = []
    for name, m in (("h2", h2), ("c2", model.sym("c2")), ("Z", model.sym("Z"))):
        lhs = model.degree((model.sym("Z") * m).scale(3))
        rhs = model.degree((h2.scale(15) - model.sym("c2")) * m)
        checks.append((f"3*deg(Z*{name}) = deg((15h^2-c2)*{name})", lhs, rhs))
    chi = (model.degree(model.sym("c2") ** 2) - model.degree(model.sym("c4")) / 3) / 240
    checks.append(("chi(O) from the table", chi, Fraction(3)))
    return checks


# -- the embedded Lagrangian surface -----------------------------------------

SURFACE_PUSH = {
    (): ("Z",),
    ("hZ",): ("Z", "h"),
    ("hZ", "hZ"): ("Z", "h", "h"),
    ("c2Z",): ("Z", "Z"),
}


class EmbeddingModel:
    """The degree-40 Lagrangian surface inside the 4-fold: pull rule
    i*h = hZ, push table 1 -> Z, hZ -> hZ, hZ^2 -> h^2 Z, c2(Z) -> Z^2,
    and normal bundle data c1(N) = 3 hZ, c2(N) = c2(Z)."""

    def __init__(self, ambient: VarietyModel):
        self.ambient = ambient
        self.surface = GradedModel(2, {"hZ": 1, "c2Z": 2})
        self.normal_c1 = self.surface.sym("hZ", 3)
        self.normal_c2 = self.surface.sym("c2Z")
        # tangent classes of the surface: c1(Z) = -K_Z = -3 hZ
        self.tangent_c1 = self.surface.sym("hZ", -3)
        self.tangent_c2 = self.surface.sym("c2Z")

    def push(self, x: FormalClass) -> FormalClass:
        if x.model is not self.surface:
            raise GradingError("push expects a surface class")
        out = self.ambient.zero()
        for mono, c in x.terms.items():
            target = SURFACE_PUSH.get(mono)
            if target is None:
                raise GradingError(f"unknown surface monomial {mono}")
            out = out + FormalClass(self.ambient, {target: c})
        return out

    def inverse_todd_normal(self) -> FormalClass:
        return series_inverse(todd_from_c(BundleClass(self.surface, 2, [self.normal_c1, self.normal_c2])))

    def ch_tangent(self) -> FormalClass:
        return total_ch(BundleClass(self.surface, 2, [self.tangent_c1, self.tangent_c2]))

    def ch_det_tangent(self) -> FormalClass:
        return total_ch(line_bundle(self.surface, self.tangent_c1))


def grr_push(emb: EmbeddingModel, ch_sheaf: FormalClass) -> FormalClass:
    """Pushforward of a Chern character from the surface: multiply by the
    inverse Todd class of the normal bundle, then push through the table."""
    return emb.push(ch_sheaf * emb.inverse_todd_normal())


def normal_bundle_canonical_relation(emb: EmbeddingModel):
    """From the rank-stratified 4-term sequence on the surface (kernel and
    cokernel are the conormal and normal bundles) the alternating first
    Chern classes give 2 c1(N) = -c1(F)| = 6 hZ. Returns the two sides
    (2 c1(N), -c1(F)|)."""
    c1_fiber_restricted = emb.surface.sym("hZ", -6)
    return emb.normal_c1.scale(2), -c1_fiber_restricted


# -- full replay of the cotangent/extension derivation -----------------------


def derive_relations(model: VarietyModel, emb: EmbeddingModel):
    """Replays the two-route computation of the cokernel sheaf's Chern
    classes and returns the relations it forces as the classes
    (R2, R3, R4) that vanish: R_k is the codimension-k part of route one
    minus route two.

    Route one: the four-term cotangent sequence on the 4-fold,
    (1 - 6h)(1 + c2 + c4) = (1 - h)^6 c(Q), solved by Whitney division.
    Route two: Grothendieck-Riemann-Roch pushforwards of the surface
    tangent sheaf and its determinant, assembled through the two-step
    extension as the product of their total Chern classes. The routes must
    agree in codimension 1.
    """
    h = model.sym("h")
    left = model.line(-6).total_chern() * model.tangent().total_chern()
    route_one = whitney_solve(left, (model.unit() - h) ** 6)
    route_two = model.unit()
    for ch_sheaf in (emb.ch_det_tangent(), emb.ch_tangent()):
        ch = grr_push(emb, ch_sheaf)
        route_two = route_two * c_from_ch(model, [ch.component(k) for k in range(5)], 0).total_chern()
    diff = route_one - route_two
    if not diff.component(1).is_zero():
        raise DerivationError(f"the two routes disagree in codimension 1: {diff.component(1)!r}")
    return tuple(diff.component(k) for k in (2, 3, 4))
