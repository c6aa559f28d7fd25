"""Formal intersection calculator on a 4-fold model.

Classes are Q-linear combinations of monomials in named, codimension-graded
symbols, truncated above the ambient dimension. The model carries a degree
table on the top-codimension monomials; Chern character, Todd and Whitney
manipulations are exact, and the pushforward from the embedded Lagrangian
surface goes through a fixed table (the surface self-intersection pushes
the surface's second Chern class, by the Lagrangian normal-bundle
identification).

The standard degree table lives on the 4-fold with the point class
normalized so deg h^4 = 12; the halved readings on the quotient sextic are
not modeled separately.
"""

from dataclasses import dataclass
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
        if i == 0:
            return self.model.unit()
        return self.cs[i - 1]

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
        n1, n2 = self.normal_c1, self.normal_c2
        one = self.surface.unit()
        return (
            one
            - n1.scale(Fraction(1, 2))
            + (n1 * n1).scale(Fraction(1, 6))
            - n2.scale(Fraction(1, 12))
        )

    def ch_tangent(self) -> FormalClass:
        c1, c2 = self.tangent_c1, self.tangent_c2
        return self.surface.unit().scale(2) + c1 + (c1 * c1 - 2 * c2).scale(Fraction(1, 2))

    def ch_det_tangent(self) -> FormalClass:
        c1 = self.tangent_c1
        return self.surface.unit() + c1 + (c1 * c1).scale(Fraction(1, 2))


def grr_push(emb: EmbeddingModel, ch_sheaf: FormalClass) -> FormalClass:
    """Pushforward of a Chern character from the surface: multiply by the
    inverse Todd class of the normal bundle, then push through the table."""
    return emb.push(ch_sheaf * emb.inverse_todd_normal())


def normal_bundle_canonical_relation(emb: EmbeddingModel):
    """From the rank-stratified 4-term sequence on the surface (kernel and
    cokernel are the conormal and normal bundles) the alternating first
    Chern classes give 2 c1(N) = -c1(F)| = 6 hZ."""
    c1_fiber_restricted = emb.surface.sym("hZ", -6)
    two_c1n = -c1_fiber_restricted
    if emb.normal_c1.scale(2) != two_c1n:
        raise DerivationError("embedding normal data inconsistent with the sequence")
    return Relation("2*c1(N) = 6*hZ", emb.normal_c1.scale(2), two_c1n)


# -- full replay of the cotangent/extension derivation -----------------------


@dataclass(frozen=True)
class Relation:
    name: str
    lhs: FormalClass
    rhs: FormalClass
    degree_check: tuple | None = None


@dataclass(frozen=True)
class RelationSet:
    relations: tuple

    def by_name(self, name) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)


def derive_relations(model: VarietyModel, emb: EmbeddingModel) -> RelationSet:
    """Replays the two-route computation of the cokernel sheaf's Chern
    classes and returns the relations it forces.

    Route one: the four-term cotangent sequence on the 4-fold, solved by
    Whitney division. Route two: Grothendieck-Riemann-Roch pushforwards of
    the surface tangent sheaf and its determinant, assembled through the
    two-step extension. Equating the codimension-3 parts forces
    c2*h = 5h^3; equating codimension 4 writes c4 in h, Z and evaluates to
    its catalogued degree.
    """
    h = model.sym("h")
    c2s = model.sym("c2")
    c4s = model.sym("c4")
    Z = model.sym("Z")
    one = model.unit()
    tp_c2 = h * h * 15 - Z * 3  # c2 rewritten through the rank-2 locus class

    # route one: (1 - 6h)(1 + c2 + c4) = (1 - h)^6 (1 + c1(Q) + ...)
    left = model.line(-6).total_chern() * model.tangent().total_chern()
    pullback_cotangent = (one - h) ** 6
    cq_total = whitney_solve(left, pullback_cotangent)
    if not cq_total.component(1).is_zero():
        raise DerivationError("c1 of the cokernel sheaf should vanish")
    cq2_raw = cq_total.component(2)
    cq3_raw = cq_total.component(3)
    cq4_raw = cq_total.component(4)
    if cq2_raw != c2s - (h * h).scale(15):
        raise DerivationError(f"unexpected c2 route one: {cq2_raw!r}")
    if cq3_raw != (h**3).scale(-70):
        raise DerivationError(f"unexpected c3 route one: {cq3_raw!r}")
    if cq4_raw != c4s - (h**4).scale(210) - (h * h * c2s).scale(15):
        raise DerivationError(f"unexpected c4 route one: {cq4_raw!r}")
    cq2 = cq2_raw.substitute("c2", tp_c2)
    cq4 = cq4_raw.substitute("c2", tp_c2)
    if cq2 != Z.scale(-3):
        raise DerivationError(f"rank-2 locus rewrite failed: {cq2!r}")
    if cq4 != c4s - (h**4).scale(435) + (h * h * Z).scale(45):
        raise DerivationError(f"unexpected rewritten c4: {cq4!r}")

    # route two: GRR pushforwards and the extension
    hZ, ZZ = h * Z, Z * Z
    ch_det = grr_push(emb, emb.ch_det_tangent())
    expect_det = Z - hZ.scale(Fraction(9, 2)) + (h * hZ).scale(Fraction(21, 2)) - ZZ.scale(Fraction(1, 12))
    if ch_det != expect_det:
        raise DerivationError(f"pushforward of the determinant sheaf: {ch_det!r}")
    ch_tan = grr_push(emb, emb.ch_tangent())
    expect_tan = Z.scale(2) - hZ.scale(6) + (h * hZ).scale(12) - ZZ.scale(Fraction(7, 6))
    if ch_tan != expect_tan:
        raise DerivationError(f"pushforward of the tangent sheaf: {ch_tan!r}")

    det_b = c_from_ch(model, [ch_det.component(k) for k in range(5)], 0)
    tan_b = c_from_ch(model, [ch_tan.component(k) for k in range(5)], 0)
    if [det_b.c(i) for i in (1, 2, 3, 4)] != [
        model.zero(),
        -Z,
        hZ.scale(-9),
        Z * Z - (h * hZ).scale(63),
    ]:
        raise DerivationError("Chern classes of the pushed determinant sheaf")
    if [tan_b.c(i) for i in (1, 2, 3, 4)] != [
        model.zero(),
        Z.scale(-2),
        hZ.scale(-12),
        (Z * Z).scale(9) - (h * hZ).scale(72),
    ]:
        raise DerivationError("Chern classes of the pushed tangent sheaf")

    ext_total = det_b.total_chern() * tan_b.total_chern()
    cq2_geom = ext_total.component(2)
    cq3_geom = ext_total.component(3)
    cq4_geom = ext_total.component(4)
    if cq2_geom != Z.scale(-3) or cq2_geom != cq2:
        raise DerivationError("the two routes disagree in codimension 2")
    if cq3_geom != hZ.scale(-21):
        raise DerivationError(f"unexpected c3 route two: {cq3_geom!r}")
    if cq4_geom != (Z * Z).scale(12) - (h * hZ).scale(135):
        raise DerivationError(f"unexpected c4 route two: {cq4_geom!r}")

    # codim 3: -21 hZ = -70 h^3, i.e. 3 hZ = 10 h^3; through the rank-2
    # locus class this is exactly c2*h = 5h^3
    diff3 = (cq3_geom - cq3_raw).scale(Fraction(-1, 7))  # = 3hZ - 10h^3
    rel6_lhs = (h * Z).scale(3)
    rel6_rhs = (h**3).scale(10)
    if diff3 != rel6_lhs - rel6_rhs:
        raise DerivationError("codimension-3 comparison drifted")
    c2h = (c2s * h, (h**3).scale(5))
    z_from_c2 = ((h * h).scale(15) - c2s).scale(Fraction(1, 3))
    resolved = rel6_lhs.substitute("Z", z_from_c2)
    if resolved - rel6_rhs != c2h[1] - c2h[0]:
        raise DerivationError("degree-6 relation does not reduce to c2*h = 5h^3")
    deg6_check = (
        model.degree(c2h[0] * h),
        model.degree(c2h[1] * h),
    )
    if deg6_check[0] != deg6_check[1]:
        raise DerivationError("degree functional rejects c2*h = 5h^3")

    # codim 4: c4 = 435 h^4 - 180 h^2 Z + 12 Z^2
    c4_expr = cq4_geom + (h**4).scale(435) - (h * hZ).scale(45)
    expect_c4 = (h**4).scale(435) - (h * hZ).scale(180) + (Z * Z).scale(12)
    if c4_expr != expect_c4:
        raise DerivationError(f"codimension-4 comparison drifted: {c4_expr!r}")
    deg8_check = (model.degree(c4s), model.degree(expect_c4))
    if deg8_check[0] != deg8_check[1]:
        raise DerivationError("degree functional rejects the c4 expression")

    return RelationSet(
        (
            Relation("c2(Q)", cq2, Z.scale(-3)),
            Relation("c3(Q) route one", cq3_raw, (h**3).scale(-70)),
            Relation("c3(Q) route two", cq3_geom, hZ.scale(-21)),
            Relation("c4(Q)", cq4, c4s - (h**4).scale(435) + (h * hZ).scale(45)),
            Relation("c2*h", c2h[0], c2h[1], deg6_check),
            Relation("c4", c4s, expect_c4, deg8_check),
        )
    )
