"""EPW sextics as determinantal loci.

A fixed Lagrangian A pairs against the fibers v ^ (2-vectors) through the
symplectic form; the resulting 10x10 determinant cuts a degree-6
hypersurface in the projectivized base space. Degree claims are checked on
lines by exact interpolation, never by expanding the 6-variable polynomial.

The pairing is held as data: per chart, six 10x10 matrices M_s with
M(v) = sum v_s M_s (`EpwLagrangian.pencil`), and over QQ the same pencil on
integers over one common denominator, so a QQ pairing determinant is one
integer Bareiss pass. Both the degree check and the point search restrict
the determinant to a line p + t q by `sextic_on_line`: determinants at
t = 0, 1, ... and one interpolation. On the chart M(q) has rank <= 6, so
seven samples pin the restriction exactly; the degree check takes eleven,
whose extra four test that bound. The frame layout of the fibers is read
only through `frame_struct` and `frame_leads`.

A point [v] of the sextic is read by one meet of F_v with A: when it is a
line v ^ alpha, `tangent_functional` reads alpha off the line's generator
at the fiber's pivots, with no solve, and returns the tangent covector
vol(v ^ . ^ alpha ^ alpha). The sextic is smooth at [v] exactly when that
covector exists and is nonzero. Points come from `find_point_stats(A, rng)[0]`.
"""

from fractions import Fraction
from itertools import combinations

from .exterior import DIM3, ExteriorVector, SymplecticSpace, chart_for, frame_leads, frame_struct, vol
from .fpkernel import fp_det
# poly_eval is re-bound here for callers that look it up as epw.poly_eval
# (perfbench/spans.py counts calls through both names)
from .linalg import Matrix, Subspace, _bareiss, adjugate_traces, interpolate_univariate, poly_eval, smallest_root
from .scalars import PrimeField, _combination, _numerators


class ChartError(ValueError):
    pass


class RetryBudgetExhausted(RuntimeError):
    """A randomized search ran out of retries (bad luck or a degenerate input)."""


class EpwLagrangian:
    """A Lagrangian subspace of the 3-vector space with a fixed ordered
    basis (its RREF rows), its dual rows against the form and the cached
    per-chart pairing pencils (over QQ also on integers)."""

    def __init__(self, space: SymplecticSpace, subspace: Subspace):
        if not space.is_lagrangian(subspace):
            raise ValueError("subspace is not Lagrangian")
        self.space = space
        self.field = space.field
        self.subspace = subspace
        self.basis = subspace.basis()
        # dual rows: form(x, a_j) = sum_pos x[pos] * duals[j][pos]
        self.duals = [space.form_row(r) for r in self.basis]
        self._pencils = {}
        self._int_pencils = {}

    def pencil(self, chart):
        """The six flat 10x10 matrices M_0..M_5 with M(v) = sum_s v_s M_s on
        the chart: M_s[i][j] = +-duals[j][pos] for each entry (s, sign, pos)
        of frame row i. Entries stay unreduced in the element type."""
        if chart not in self._pencils:
            zero = self.field.zero
            mats = [[zero] * 100 for _ in range(6)]
            for i, entries in enumerate(frame_struct(chart)):
                for j, dual in enumerate(self.duals):
                    for s, sg, pos in entries:
                        mats[s][10 * i + j] = dual[pos] if sg > 0 else -dual[pos]
            self._pencils[chart] = mats
        return self._pencils[chart]

    def int_pencil(self, chart):
        """`pencil(chart)` over QQ as (den, mats): M_s = mats[s] / den, with
        integer flat matrices over one common denominator of the six."""
        if chart not in self._int_pencils:
            den, nums = _numerators([x for m in self.pencil(chart) for x in m])
            self._int_pencils[chart] = den, [nums[100 * s : 100 * s + 100] for s in range(6)]
        return self._int_pencils[chart]

    def __repr__(self):
        return f"EpwLagrangian(over {self.field!r})"


def random_lagrangian_datum(space: SymplecticSpace, rng) -> EpwLagrangian:
    return EpwLagrangian(space, space.random_lagrangian(rng))


def fiber_intersection_dim(A: EpwLagrangian, vcoords) -> int:
    """dim(F_v ∩ A) computed as 20 - rank of the stacked basis rows."""
    fiber = A.space.fiber(ExteriorVector(A.field, 1, vcoords))
    return DIM3 - Matrix(A.field, fiber.basis() + A.basis).rank()


def _det10(field, flat):
    """Determinant of a flat 10x10 matrix: the F_p kernel (looked up as
    this module's fp_det) or Bareiss over QQ."""
    if isinstance(field, PrimeField):
        return fp_det(flat, 10, field.p)
    return Matrix(field, [flat[i * 10 : (i + 1) * 10] for i in range(10)]).det()


def _on_chart(F, vcoords, chart):
    """(coerced v, chart): the chart of v's first nonzero coordinate when
    none is given; ChartError when v vanishes on the given chart."""
    v = [F.of(x) for x in vcoords]
    if chart is None:
        chart = chart_for(F, v)
    if F.is_zero(v[chart]):
        raise ChartError(f"coordinate {chart} vanishes; chart invalid")
    return v, chart


def pairing_entries(A: EpwLagrangian, vcoords, chart=None):
    """M(v) = sum_s v_s M_s on the chart as a flat 10x10 list."""
    v, chart = _on_chart(A.field, vcoords, chart)
    return A.field.lincomb(v, A.pencil(chart))


def pairing_det(A: EpwLagrangian, vcoords, chart=None):
    """det M(v). Over QQ, v's denominators are cleared once (L), the integer
    pencil is combined on v's numerators, which gives (L den) M(v) as an
    integer matrix, and one Bareiss pass on it gives the determinant."""
    F = A.field
    if isinstance(F, PrimeField):
        return _det10(F, pairing_entries(A, vcoords, chart))
    v, chart = _on_chart(F, vcoords, chart)
    scale, nums = _numerators(v)
    den, mats = A.int_pencil(chart)
    flat = _combination(nums, mats)
    rank, sign, last = _bareiss([flat[i * 10 : (i + 1) * 10] for i in range(10)])
    return Fraction(sign * last, (scale * den) ** 10) if rank == 10 else F.zero


def _line(F, p, q, chart):
    """(coerced p, coerced q, chart) of the line p + t q, which must satisfy
    p_c = 1 and q_c = 0 on its chart c (that of p's first nonzero coordinate
    when none is given), so that the whole affine line stays on the chart."""
    p = [F.of(x) for x in p]
    q = [F.of(x) for x in q]
    if chart is None:
        chart = chart_for(F, p)
    if not F.is_zero(F.sub(p[chart], F.one)) or not F.is_zero(q[chart]):
        raise ChartError("line must satisfy p_c = 1, q_c = 0 on its chart")
    return p, q, chart


def sextic_on_line(A: EpwLagrangian, p, q, samples, chart=None):
    """Coefficients of t -> det M(p + t q) from its values at t = 0..samples-1.

    Preconditions (`_line`): p_c = 1 and q_c = 0 for the chart c.
    M(p + t q) = M(p) + t M(q), and row i of M(q) pairs the frame vector
    q ^ e_i ^ e_j (i, j != c) with A. With q_c = 0 these lie in
    q ^ (wedge square of the e_s, s != c), of dimension C(4, 2) = 6, so
    M(q) has rank <= 6 and the restriction degree <= 6: seven samples pin
    it exactly. Samples beyond seven must agree with that bound or
    InterpolationError is raised (so does a field with fewer elements than
    samples, through duplicate abscissae).
    """
    F = A.field
    p, q, chart = _line(F, p, q, chart)
    pencil = A.pencil(chart)
    mp, mq = F.lincomb(p, pencil), F.lincomb(q, pencil)
    points = []
    for k in range(samples):
        t = F.of(k)
        points.append((t, _det10(F, F.axpy(mp, t, mq))))
    return interpolate_univariate(F, points, 6)


def gradient_det(A: EpwLagrangian, v0, chart=None):
    """Exact gradient of v -> det M(v) at v0 by Jacobi's formula,
    d/dv_k det M = tr(adj M . M_k) over the pencil, read by
    `linalg.adjugate_traces`: adj M is det M . M^-1 off the sextic, rank 1
    at corank 1 and 0 at corank >= 2, where the gradient vanishes."""
    F = A.field
    v0, chart = _on_chart(F, v0, chart)
    pencil = A.pencil(chart)
    m0 = F.lincomb(v0, pencil)
    return adjugate_traces(Matrix(F, [m0[10 * i : 10 * i + 10] for i in range(10)]), pencil)


def tangent_functional(A: EpwLagrangian, v0):
    """The covector v -> vol(v0 ^ v ^ alpha ^ alpha) of the point [v0], or
    None unless F_v0 ∩ A is a line.

    One meet gives that line's generator g. The fiber's canonical rows are
    the frame vectors v0 ^ e_i ^ e_j scaled by lead / v0_c, so g = v0 ^ alpha
    for alpha = sum lead * g[pivot] / v0_c * e_i ^ e_j over `frame_leads`:
    no elimination. Any alpha with g = v0 ^ alpha gives the same w =
    v0 ^ alpha ^ alpha, and entry k is read off it as
    vol(v0 ^ e_k ^ alpha ^ alpha) = -vol(e_k ^ w), so the covector is zero
    exactly when w is, that is when g is decomposable. At smooth points it
    is proportional to gradient_det.
    """
    F = A.field
    vx = ExteriorVector(F, 1, v0)
    inter = A.space.fiber(vx).meet(A.subspace)
    if inter.dim != 1:
        return None
    g = inter.basis()[0]
    chart = chart_for(F, vx.coords)
    alpha = [F.zero] * 15
    for b, lead, pivot in frame_leads(chart):
        alpha[b] = g[pivot] if lead > 0 else F.neg(g[pivot])
    alpha = ExteriorVector(F, 2, alpha).scale(F.inv(vx.coords[chart]))
    w = vx.wedge(alpha.wedge(alpha))
    return tuple(F.neg(vol(ExteriorVector.basis(F, k).wedge(w))) for k in range(6))


# -- the two triple-quadric Lagrangians of the rank-2 model ----------------

_PAIRS4 = tuple(combinations(range(4), 2))


def wedge2_of_4(field, a, b):
    """Coordinates of a ^ b in the 6-dimensional wedge square of a
    4-dimensional space, pair-indexed lexicographically."""
    out = []
    for i, j in _PAIRS4:
        out.append(field.sub(field.mul(a[i], b[j]), field.mul(a[j], b[i])))
    return out


def plucker_quadric(field, v):
    """v0*v5 - v1*v4 + v2*v3: vanishes exactly on the decomposable
    2-vectors of the 4-dimensional model (the Grassmannian quadric)."""
    v = [field.of(x) for x in v]
    t1 = field.mul(v[0], v[5])
    t2 = field.mul(v[1], v[4])
    t3 = field.mul(v[2], v[3])
    return field.add(field.sub(t1, t2), t3)


def u_wedge_space(field, u):
    """The 3-space u ^ U spanned by the u ^ e_i over the standard basis of
    the 4-dimensional U, or None when it is not 3-dimensional (u = 0)."""
    if all(field.is_zero(x) for x in u):
        return None
    units = [[field.one if k == i else field.zero for k in range(4)] for i in range(4)]
    w = Subspace.from_spanning(field, 6, [wedge2_of_4(field, u, e) for e in units])
    return w if w.dim == 3 else None


def _construction_lagrangian(space, rng, three_space):
    """The span of the wedge-cubes of 24 sampled 3-spaces, each drawn as
    three_space(four random scalars); a None draw is retried, up to 400
    draws in all."""
    F = space.field
    spanning = []
    for _ in range(400):
        w = three_space([F.random(rng) for _ in range(4)])
        if w is not None:
            spanning.append(space.decomposable_of(w).coords)
            if len(spanning) == 24:
                break
    else:
        raise RetryBudgetExhausted("could not sample enough independent images")
    sub = Subspace.from_spanning(F, DIM3, spanning)
    if sub.dim != 10:
        raise RetryBudgetExhausted(f"image span has dimension {sub.dim}, expected 10")
    return EpwLagrangian(space, sub)


def a_plus(space: SymplecticSpace, rng) -> EpwLagrangian:
    """Span of the wedge-cubes of the 3-spaces u ^ U over sampled u: a
    10-dimensional Lagrangian in the model where the base space is the
    wedge square of a 4-dimensional U, read in its standard basis. The
    span does not depend on that basis: u ^ U is the same 3-space over
    any basis of U."""
    return _construction_lagrangian(space, rng, lambda u: u_wedge_space(space.field, u))


def a_minus(space: SymplecticSpace, rng) -> EpwLagrangian:
    """The mirror construction through the dual 4-dimensional space: each
    functional phi, in the dual standard basis, gives the 3-space
    annihilating phi ^ (dual space)."""
    F = space.field

    def annihilator(phi):
        t = u_wedge_space(F, phi)
        if t is None:
            return None
        ann = Matrix(F, t.basis(), ncols=6).kernel_basis()
        return ann if ann.dim == 3 else None

    return _construction_lagrangian(space, rng, annihilator)


def verify_triple_quadric(A: EpwLagrangian, trials, rng):
    """Checks det M(v) * q(w)^3 = det M(w) * q(v)^3 on sampled chart points
    (chart 0, both coordinates normalized), where q is the Grassmannian
    quadric. Soundness per trial is bounded by deg/p over F_p."""
    F = A.field

    def sample():
        while True:
            v = [F.one] + [F.random(rng) for _ in range(5)]
            if not F.is_zero(plucker_quadric(F, v)):
                return v

    for _ in range(trials):
        v, w = sample(), sample()
        dv, dw = pairing_det(A, v, 0), pairing_det(A, w, 0)
        qv, qw = plucker_quadric(F, v), plucker_quadric(F, w)
        qv3 = F.mul(F.mul(qv, qv), qv)
        qw3 = F.mul(F.mul(qw, qw), qw)
        if not F.is_zero(F.sub(F.mul(dv, qw3), F.mul(dw, qv3))):
            return False
    return True


def sigma_membership(A: EpwLagrangian, w: Subspace) -> bool:
    """True iff the wedge-cube of the 3-space w lies in A."""
    dec = A.space.decomposable_of(w)
    return A.subspace.contains(dec.coords)


def find_point_stats(A: EpwLagrangian, rng, budget=60):
    """A point of the sextic over F_p: on random chart-0 lines, the smallest
    root of the restricted sextic, found by `smallest_root` (gcd with
    x^p - x and deterministic splits, no pass over F_p), or t = 0 when the
    whole line lies on the sextic. The restriction is `sextic_on_line` on
    its seven exact samples. Returns (point, lines_tried)."""
    F = A.field
    if not isinstance(F, PrimeField):
        raise ValueError("point search needs a prime-field context")
    p = F.p
    for tried in range(1, budget + 1):
        base = [1] + [rng.randrange(p) for _ in range(5)]
        direction = [0] + [rng.randrange(p) for _ in range(5)]
        if all(x == 0 for x in direction):
            continue
        root = smallest_root(sextic_on_line(A, base, direction, 7, chart=0), p)
        if root is None:
            continue
        v = F.axpy(base, root, direction)
        assert fiber_intersection_dim(A, v) >= 1
        return ExteriorVector(F, 1, v), tried
    raise RetryBudgetExhausted(f"no rational root found on {budget} lines")
