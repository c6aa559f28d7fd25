"""EPW sextics as determinantal loci.

A fixed Lagrangian A pairs against the fibers v ^ (2-vectors) through the
symplectic form; the resulting 10x10 determinant cuts a degree-6
hypersurface in the projectivized base space. Degree claims are checked on
lines by exact interpolation, never by expanding the 6-variable polynomial.

The pairing is held as data: per chart, six 10x10 matrices M_s with
M(v) = sum v_s M_s (`EpwLagrangian.pencil`), and over QQ the same pencil on
integers over one common denominator, so a QQ pairing determinant is one
integer Bareiss pass. The point search restricts the determinant to a line
p + t q by a rank-6 factorization M(q) = U R, read off q, and a 6x6
characteristic polynomial (`sextic_from_factorization`); `sextic_on_line`
keeps the 11-point interpolation as the independent route.

A point [v] of the sextic is read by one meet of F_v with A: when it is a
line v ^ alpha, `tangent_functional` reads alpha off the line's generator
at the fiber's pivots, with no solve, and returns the tangent covector
vol(v ^ . ^ alpha ^ alpha). The sextic is smooth at [v] exactly when that
covector exists and is nonzero. Points come from `find_point_stats(A, rng)[0]`.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import combinations

from .exterior import DIM3, SUBSETS, ExteriorVector, SymplecticSpace, chart_for, frame_leads, frame_struct, vol
from .fpkernel import fp_det
# poly_eval is re-bound here for callers that look it up as epw.poly_eval
# (perfbench/spans.py counts calls through both names)
from .linalg import Matrix, Subspace, _bareiss, charpoly, interpolate_univariate, poly_eval, smallest_root
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


def sextic_on_line(A: EpwLagrangian, p, q, chart=None):
    """Coefficients of t -> det M(p + t q), asserted of degree <= 6.

    Preconditions (`_line`): p_c = 1 and q_c = 0 for the chart c.
    M(p + t q) = M(p) + t M(q); eleven samples t = 0..10 pin the polynomial
    and any inconsistency with the degree bound raises InterpolationError
    (so does a field with fewer than 11 elements, through duplicate
    abscissae).
    """
    F = A.field
    p, q, chart = _line(F, p, q, chart)
    pencil = A.pencil(chart)
    mp, mq = F.lincomb(p, pencil), F.lincomb(q, pencil)
    samples = []
    for k in range(11):
        t = F.of(k)
        samples.append((t, _det10(F, F.axpy(mp, t, mq))))
    return interpolate_univariate(F, samples, 6)


@cache
def _rank6_frame(chart, k):
    """The factorization M(q) = U R on the chart c for q with q_c = 0 and
    q_k != 0, as (keep, u): keep the indices of the six frame rows whose
    pair avoids k, which are R, and per frame row the entries
    (s, sign, column) of U, each being sign * q_s / q_k (s = k and sign 1
    for the identity on R).

    Row {a, b} of M(q) is linear in q ^ e_a ^ e_b. From
    q ^ e_k = -(1/q_k) sum_{s != k} q_s q ^ e_s (q ^ q = 0), the row of a
    pair {k, j} is -(1/q_k) sum_s q_s times the row of {s, j} over the s
    off {c, k, j} (q_c = 0, and e_j ^ e_j = 0): a signed combination of R."""
    pairs = [pr for pr in SUBSETS[2] if chart not in pr]
    keep = [i for i, pr in enumerate(pairs) if k not in pr]
    column = {pairs[i]: n for n, i in enumerate(keep)}
    u = []
    for a, b in pairs:
        if k not in (a, b):
            u.append(((k, 1, column[a, b]),))
            continue
        j, eps = (b, 1) if a == k else (a, -1)
        u.append(
            tuple(
                (s, -eps if s < j else eps, column[min(s, j), max(s, j)])
                for s in range(6)
                if s not in (chart, k, j)
            )
        )
    return tuple(keep), tuple(u)


def sextic_from_factorization(A: EpwLagrangian, p, q, chart=None):
    """The coefficients of `sextic_on_line`, from a rank-6 factorization.

    With q_k != 0, M(q) = U R (`_rank6_frame`), R being six rows of M(q) and
    U a 10 x 6 matrix read off q, so det(M(p) + t M(q)) = det M(p) det(I_6 +
    t K) with K = R M(p)^-1 U. One rref of [M(p) | U] gives M(p)^-1 U, and
    det(I + t K) has the coefficients (-1)^i a_{6-i} of the characteristic
    polynomial sum a_i x^i of K (`charpoly`). When det M(p) = 0, q = 0 or
    the field has fewer than 11 elements, this is `sextic_on_line`, which
    then also raises what it raises."""
    F = A.field
    p, q, chart = _line(F, p, q, chart)
    k = next((s for s, x in enumerate(q) if not F.is_zero(x)), None)
    pencil = A.pencil(chart)
    mp = F.lincomb(p, pencil)
    small = isinstance(F, PrimeField) and F.p < 11
    d = F.zero if k is None or small else _det10(F, mp)
    if F.is_zero(d):
        return sextic_on_line(A, p, q, chart)
    keep, u = _rank6_frame(chart, k)
    inv = F.inv(q[k])
    coeff = [F.mul(x, inv) for x in q]
    aug = []
    for i, entries in enumerate(u):
        row = [F.zero] * 6
        for s, sg, col in entries:
            row[col] = coeff[s] if sg > 0 else F.neg(coeff[s])
        aug.append((*mp[10 * i : 10 * i + 10], *row))
    red = Matrix(F, aug).rref()[0]
    x_cols = list(zip(*[r[10:] for r in red.rows]))
    mq = F.lincomb(q, pencil)
    k_rows = [[F.dot(mq[10 * r : 10 * r + 10], col) for col in x_cols] for r in keep]
    a = charpoly(F, k_rows)
    return [F.mul(d, a[6 - i] if i % 2 == 0 else F.neg(a[6 - i])) for i in range(7)]


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
    v0, chart = _on_chart(F, v0, chart)
    m0 = F.lincomb(v0, A.pencil(chart))
    zero, one = F.zero, F.one
    aug = [(*m0[10 * i : 10 * i + 10], *(one if j == i else zero for j in range(10))) for i in range(10)]
    red, pivots = Matrix(F, aug).rref()
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
    whole line lies on the sextic. The restriction comes from the rank-6
    factorization (`sextic_from_factorization`), which interpolates only
    when the base point lies on the sextic. Returns (point, lines_tried)."""
    F = A.field
    if not isinstance(F, PrimeField):
        raise ValueError("point search needs a prime-field context")
    p = F.p
    for tried in range(1, budget + 1):
        base = [1] + [rng.randrange(p) for _ in range(5)]
        direction = [0] + [rng.randrange(p) for _ in range(5)]
        if all(x == 0 for x in direction):
            continue
        root = smallest_root(sextic_from_factorization(A, base, direction, chart=0), p)
        if root is None:
            continue
        v = F.axpy(base, root, direction)
        assert fiber_intersection_dim(A, v) >= 1
        return ExteriorVector(F, 1, v), tried
    raise RetryBudgetExhausted(f"no rational root found on {budget} lines")

