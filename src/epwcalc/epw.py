"""EPW sextics as determinantal loci.

A fixed Lagrangian A pairs against the fibers v ^ (2-vectors) through the
symplectic form; the resulting 10x10 determinant cuts a degree-6
hypersurface in the projectivized base space. Degree claims are checked on
lines by exact interpolation, never by expanding the 6-variable polynomial.
"""

from bisect import bisect_left
from itertools import combinations

from .exterior import DIM3, ExteriorVector, SymplecticSpace, frame_rows, frame_struct, vol, wedge_table
from .fpkernel import fp_det
# poly_eval is re-bound here for callers that look it up as epw.poly_eval
# (perfbench/spans.py counts calls through both names)
from .linalg import Matrix, Subspace, interpolate_univariate, poly_eval, smallest_root
from .scalars import PrimeField


class ChartError(ValueError):
    pass


class RetryBudgetExhausted(RuntimeError):
    """A randomized search ran out of retries (bad luck or a degenerate input)."""


def chart_for(field, vcoords) -> int:
    for c, x in enumerate(vcoords):
        if not field.is_zero(x):
            return c
    raise ValueError("zero vector has no chart")


class EpwLagrangian:
    """A Lagrangian subspace of the 3-vector space with a fixed ordered
    basis (its RREF rows), its dual rows against the form and the cached
    per-chart pairing pencils."""

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

    def __repr__(self):
        return f"EpwLagrangian(over {self.field!r})"


def random_lagrangian_datum(space: SymplecticSpace, rng) -> EpwLagrangian:
    return EpwLagrangian(space, space.random_lagrangian(rng))


def fiber_intersection_dim(A: EpwLagrangian, vcoords) -> int:
    """dim(F_v ∩ A) computed as 20 - rank of the stacked basis rows."""
    F = A.field
    v = [F.of(x) for x in vcoords]
    if all(F.is_zero(x) for x in v):
        raise ValueError("zero vector")
    # frame rows of the coerced v and A's canonical basis: trusted
    m = Matrix._reduced(F, [tuple(r) for r in frame_rows(F, v)] + list(A.basis), DIM3)
    return 20 - m.rank()


def _det10(field, flat):
    """Determinant of a flat 10x10 matrix: the F_p kernel (looked up as
    this module's fp_det) or Bareiss over QQ."""
    if isinstance(field, PrimeField):
        return fp_det(flat, 10, field.p)
    return Matrix(field, [flat[i * 10 : (i + 1) * 10] for i in range(10)]).det()


def pairing_entries(A: EpwLagrangian, vcoords, chart: int):
    """M(v) = sum_s v_s M_s on the chart as a flat 10x10 list."""
    F = A.field
    v = [F.of(x) for x in vcoords]
    if F.is_zero(v[chart]):
        raise ChartError(f"coordinate {chart} vanishes; chart invalid")
    return F.lincomb(v, A.pencil(chart))


def pairing_matrix(A: EpwLagrangian, vcoords, chart=None) -> Matrix:
    """M[i][j] = form(frame_i(v), a_j); entries linear homogeneous in v."""
    F = A.field
    if chart is None:
        chart = chart_for(F, [F.of(x) for x in vcoords])
    flat = pairing_entries(A, vcoords, chart)
    rows = [flat[i * 10 : (i + 1) * 10] for i in range(10)]
    return Matrix(F, rows)


def pairing_det(A: EpwLagrangian, vcoords, chart=None):
    F = A.field
    if chart is None:
        chart = chart_for(F, [F.of(x) for x in vcoords])
    return _det10(F, pairing_entries(A, vcoords, chart))


def sextic_on_line(A: EpwLagrangian, p, q, chart=None):
    """Coefficients of t -> det M(p + t q), asserted of degree <= 6.

    Preconditions: p_c = 1 and q_c = 0 for the chart c, so the whole affine
    line stays on the chart. M(p + t q) = M(p) + t M(q); eleven samples
    t = 0..10 pin the polynomial and any inconsistency with the degree
    bound raises InterpolationError (so does a field with fewer than 11
    elements, through duplicate abscissae).
    """
    F = A.field
    p = [F.of(x) for x in p]
    q = [F.of(x) for x in q]
    if chart is None:
        chart = chart_for(F, p)
    if not F.is_zero(F.sub(p[chart], F.one)) or not F.is_zero(q[chart]):
        raise ChartError("line must satisfy p_c = 1, q_c = 0 on its chart")
    pencil = A.pencil(chart)
    mp, mq = F.lincomb(p, pencil), F.lincomb(q, pencil)
    samples = []
    for k in range(11):
        t = F.of(k)
        samples.append((t, _det10(F, F.axpy(mp, t, mq))))
    return interpolate_univariate(F, samples, 6)


def gradient_det(A: EpwLagrangian, v0, chart=None):
    """Exact gradient of v -> det M(v) at v0 by Jacobi's formula,
    d/dv_k det M = tr(adj M . M_k) = <adj(M)^T, M_k> over the pencil.

    One rref of [M | I] = [E M | E] gives the rank of M, a right kernel
    vector x from E M and, in the rows where E M vanishes, a left kernel
    vector y (or M^-1 = E at full rank):
    - off the sextic, adj M = det M . M^-1;
    - at corank 1, adj M = c x y^T, where det(M + e_i e_j^T) = c x_j y_i by
      the matrix determinant lemma; i and j are taken where y_i = x_j = 1;
    - at corank >= 2 every 9x9 minor vanishes, so the gradient is 0.
    """
    F = A.field
    if chart is None:
        chart = chart_for(F, [F.of(x) for x in v0])
    m0 = pairing_entries(A, v0, chart)
    zero, one = F.zero, F.one
    aug = [(*m0[10 * i : 10 * i + 10], *(one if j == i else zero for j in range(10))) for i in range(10)]
    red, pivots = Matrix._reduced(F, aug, 20).rref()
    rows = red.rows
    rank = bisect_left(pivots, 10)
    if rank == 10:
        d = _det10(F, m0)
        adj_t = [F.mul(d, rows[b][10 + a]) for a in range(10) for b in range(10)]
    elif rank == 9:
        # x from the free column j of E M, with x_j = 1; y is the right half
        # of the last row, whose leading entry y_i = 1 sits at its pivot
        j = next(c for c in range(10) if c not in pivots)
        i = pivots[9] - 10
        x = [zero] * 10
        x[j] = one
        for r, pc in enumerate(pivots[:9]):
            x[pc] = F.neg(rows[r][j])
        bumped = list(m0)
        bumped[10 * i + j] = F.add(bumped[10 * i + j], one)
        c = _det10(F, bumped)  # c x_j y_i with x_j = y_i = 1
        adj_t = [F.mul(F.mul(c, ya), xb) for ya in rows[9][10:] for xb in x]
    else:
        return (zero,) * 6
    return tuple(F.dot(adj_t, mk) for mk in A.pencil(chart))


def generator_of_intersection(A: EpwLagrangian, v0) -> ExteriorVector:
    """The (unique up to scale) element spanning F_v0 ∩ A; requires dim 1."""
    F = A.field
    vx = ExteriorVector(F, 1, [F.of(x) for x in v0])
    inter = A.space.fiber(vx).meet(A.subspace)
    if inter.dim != 1:
        raise ValueError(f"intersection has dimension {inter.dim}, need 1")
    return ExteriorVector(F, 3, inter.basis()[0])


def alpha_from_generator(field, v0, g: ExteriorVector) -> ExteriorVector:
    """Solve v0 ^ alpha = g for a 2-vector alpha (well-defined mod v0 ^ V).

    Column b of the 20 x 15 system is v0 ^ e_b for the b-th 2-subset, read
    off `wedge_table(1, 2)`: +-v0_s at the 3-subset {s} + b. Its entries
    and g's are canonical, so the augmented rows are trusted."""
    F = field
    v = [F.of(x) for x in v0]
    aug = [[F.zero] * 15 + [x] for x in g.coords]
    for s, row in enumerate(wedge_table(1, 2)):
        for b, hit in enumerate(row):
            if hit is not None:
                sg, pos = hit
                aug[pos][b] = v[s] if sg > 0 else F.neg(v[s])
    red, pivots = Matrix._reduced(F, [tuple(r) for r in aug], 16).rref()
    if 15 in pivots:
        raise ValueError("generator is not divisible by v0")
    x = [F.zero] * 15
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][15]
    return ExteriorVector(F, 2, x)


def generator_is_decomposable(field, v0, g: ExteriorVector) -> bool:
    """True iff g = v0 ^ alpha is a decomposable 3-vector, tested through
    alpha ^ alpha ^ v0 = 0 (independent of the choice of alpha)."""
    alpha = alpha_from_generator(field, v0, g)
    vx = ExteriorVector(field, 1, [field.of(x) for x in v0])
    return alpha.wedge(alpha).wedge(vx).is_zero()


def tangent_functional(A: EpwLagrangian, v0, alpha: ExteriorVector):
    """The covector v -> vol(v0 ^ v ^ alpha ^ alpha).

    Precondition (checked): F_v0 ∩ A is spanned by v0 ^ alpha alone, so the
    point is off the rank-2 stratum. At smooth points this is proportional
    to gradient_det.
    """
    F = A.field
    v0 = [F.of(x) for x in v0]
    vx = ExteriorVector(F, 1, v0)
    g = vx.wedge(alpha)
    inter = A.space.fiber(vx).meet(A.subspace)
    if inter.dim != 1:
        raise ValueError("point lies on the rank-2 stratum")
    if g.is_zero() or not inter.contains(g.coords):
        raise ValueError("v0 ^ alpha does not span the fiber intersection")
    u = alpha.wedge(alpha)
    out = []
    for k in range(6):
        w = vx.wedge(ExteriorVector.basis(F, k)).wedge(u)
        out.append(vol(w))
    return tuple(out)


def smoothness_predicate(A: EpwLagrangian, v) -> bool:
    """True iff the sextic is smooth at [v]: the fiber intersection is a
    line spanned by an indecomposable 3-vector."""
    d = fiber_intersection_dim(A, v)
    if d != 1:
        return False
    g = generator_of_intersection(A, v)
    return not generator_is_decomposable(A.field, v, g)


# -- the two triple-quadric Lagrangians of the rank-2 model ----------------

_PAIRS4 = tuple(combinations(range(4), 2))
_POS4 = {p: i for i, p in enumerate(_PAIRS4)}


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


def u_wedge_space(field, u, basis):
    """The 3-space u ^ U spanned by the u ^ b over a basis b of the
    4-dimensional U, or None when it is not 3-dimensional (u = 0)."""
    if all(field.is_zero(x) for x in u):
        return None
    w = Subspace.from_spanning(field, 6, [wedge2_of_4(field, u, b) for b in basis])
    return w if w.dim == 3 else None


def _construction_lagrangian(space, ubasis, rng, three_space):
    """The span of the wedge-cubes of 24 sampled 3-spaces, each drawn as
    three_space(basis, four random scalars); a None draw is retried, up to
    400 draws in all."""
    F = space.field
    basis = [[F.of(x) for x in b] for b in ubasis]
    if Matrix(F, basis).rank() != 4:
        raise ValueError("degenerate basis of the 4-dimensional space")
    spanning = []
    for _ in range(400):
        w = three_space(basis, [F.random(rng) for _ in range(4)])
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


def a_plus(space: SymplecticSpace, ubasis, rng) -> EpwLagrangian:
    """Span of the wedge-cubes of the 3-spaces u ^ U over sampled u: a
    10-dimensional Lagrangian in the model where the base space is the
    wedge square of a 4-dimensional U."""
    F = space.field

    def u_wedge(basis, coeffs):
        return u_wedge_space(F, F.lincomb(coeffs, basis), basis)

    return _construction_lagrangian(space, ubasis, rng, u_wedge)


def a_minus(space: SymplecticSpace, ubasis, rng) -> EpwLagrangian:
    """The mirror construction through the dual 4-dimensional space: each
    functional phi gives the 3-space annihilating phi ^ (dual space)."""
    F = space.field
    dual_basis = Matrix.identity(F, 4).rows

    def annihilator(basis, phi):
        t = u_wedge_space(F, phi, dual_basis)
        if t is None:
            return None
        ann = Matrix(F, t.basis(), ncols=6).kernel_basis()
        return ann if ann.dim == 3 else None

    return _construction_lagrangian(space, ubasis, rng, annihilator)


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
    whole line lies on the sextic. Returns (point, lines_tried)."""
    F = A.field
    if not isinstance(F, PrimeField):
        raise ValueError("point search needs a prime-field context")
    p = F.p
    for tried in range(1, budget + 1):
        base = [1] + [rng.randrange(p) for _ in range(5)]
        direction = [0] + [rng.randrange(p) for _ in range(5)]
        if all(x == 0 for x in direction):
            continue
        root = smallest_root(sextic_on_line(A, base, direction, chart=0), p)
        if root is None:
            continue
        v = F.axpy(base, root, direction)
        assert fiber_intersection_dim(A, v) >= 1
        return ExteriorVector(F, 1, v), tried
    raise RetryBudgetExhausted(f"no rational root found on {budget} lines")


def find_point_on_Y(A: EpwLagrangian, rng, budget=60) -> ExteriorVector:
    return find_point_stats(A, rng, budget)[0]
