"""Incidence geometry of Lagrangian subspaces.

Tangent directions at a Lagrangian are quadratic forms on it (55 upper
coordinates for dimension 10); the module solves the linear systems cut by
restriction and evaluation conditions, builds pencils of Lagrangians
through a common 9-dimensional core, and replays the everywhere-tangency
construction point by point.

Each row entry of a kernel system is computed from its formula and made
canonical by one `of`. Kernel dimensions are computed here: over F_p by one
elimination, over QQ by the certificate of a full rank mod 10007
(`certified_rank_full`, a change of field), with exact Bareiss when that is
inconclusive.
"""

from dataclasses import dataclass

from .exterior import DIM3, ExteriorVector, SymplecticSpace, chart_vector
from .linalg import Matrix, ShapeError, Subspace
from .scalars import GF, PrimeField


class PreconditionError(ValueError):
    pass


# the 55 upper coordinates (k, l), k <= l, of a quadratic form on a 10-space
_UPPER = [(k, l) for k in range(10) for l in range(k, 10)]


def _restriction_rows(field, R, i, j):
    """Row of coefficients (over the 55 upper coordinates) of the (i, j)
    entry of the restricted form R Q R^T: R[i][k] R[j][l] + R[j][k] R[i][l]
    at k < l and R[i][k] R[j][k] at k = l."""
    a, b, of = R[i], R[j], field.of
    return [of(a[k] * b[k] if k == l else a[k] * b[l] + b[k] * a[l]) for k, l in _UPPER]


def _evaluation_row(field, c):
    """Coefficients of q(c) over the 55 upper coordinates: c_k^2 at k = l
    and 2 c_k c_l at k < l."""
    of = field.of
    return [of(c[k] * c[k] if k == l else 2 * c[k] * c[l]) for k, l in _UPPER]


def _omega_rows(field, RA, RB):
    """The agreement system of `omega_tangent_dim`: per (i, j), the form on
    A restricted to the core minus the form on B restricted to it."""
    rows = []
    for i in range(9):
        for j in range(i, 9):
            right = _restriction_rows(field, RB, i, j)
            rows.append(_restriction_rows(field, RA, i, j) + [field.neg(x) for x in right])
    return rows


def _injective_rows(field, R, coords):
    """The system of `injective_differential_kernel`: the form restricted to
    the hyperplane with coordinate rows R vanishes, and q(c) = 0 for every c."""
    rows = [_restriction_rows(field, R, i, j) for i in range(9) for j in range(i, 9)]
    return rows + [_evaluation_row(field, c) for c in coords]


def certified_rank_full(build, inputs):
    """(row count, `system_width`) of the QQ system build(QQ, *inputs) when
    it provably has full row rank, else None; the QQ system itself is not
    built.

    `build(field, *inputs)` makes the rows by sums and products (with
    integer coefficients) of the entries of `inputs`, lists of coordinate
    rows. Reduction mod 10007 is a ring homomorphism on the rationals whose
    denominators are prime to 10007, so build(GF(10007), *reduced inputs) is
    the reduction of the QQ system. Its rank is at most the QQ rank, which
    is at most the row count: a full-rank elimination over GF(10007) is an
    exact certificate, not a probabilistic one. None is inconclusive (a rank
    deficit mod 10007, or an input denominator divisible by 10007); callers
    fall back to exact elimination.
    """
    F = GF(10007)
    try:
        reduced = [[[F.of(x) for x in row] for row in rows] for rows in inputs]
    except ZeroDivisionError:
        return None
    rows = build(F, *reduced)
    ncols = system_width(rows)
    return (len(rows), ncols) if Matrix(F, rows, ncols).rank() == len(rows) else None


def system_width(rows) -> int:
    """The number of unknowns of a linear system: the common length of its
    rows (0 without rows). Rows of unequal width raise ShapeError."""
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ShapeError(f"system rows of unequal widths {sorted(widths)}")
    return widths.pop() if widths else 0


def _kernel_dim(field, build, inputs):
    """dim ker of the system build(field, *inputs), in as many unknowns as
    its rows are wide (`system_width`: rows of unequal width raise
    ShapeError). Over QQ the system is first built over GF(10007) from the
    inputs reduced mod 10007; when it has full rank there, that certifies
    the kernel dimension (`certified_rank_full`). Otherwise the QQ system is
    built and eliminated by exact Bareiss."""
    if not isinstance(field, PrimeField):
        shape = certified_rank_full(build, inputs)
        if shape is not None:
            nrows, ncols = shape
            return ncols - nrows
    rows = build(field, *inputs)
    ncols = system_width(rows)
    return ncols - Matrix(field, rows, ncols).rank()


@dataclass(frozen=True)
class LagrangianPencil:
    """The Lagrangians containing a fixed 9-dimensional isotropic core:
    member(t, s) = core + <t*x0 + s*x1> inside perp(core)."""

    space: SymplecticSpace
    core: Subspace
    x0: tuple
    x1: tuple

    def member(self, t, s) -> Subspace:
        F = self.space.field
        t, s = F.of(t), F.of(s)
        if F.is_zero(t) and F.is_zero(s):
            raise ValueError("member needs a nonzero parameter pair")
        return self.core.with_vector(F.lincomb((t, s), (self.x0, self.x1)))


def pencil_through(space: SymplecticSpace, u: Subspace) -> LagrangianPencil:
    """The pencil through u in the chart of `graph_lagrangian`, with no
    elimination. u's rows r_a pivot at 0..9 but f; x0 = `chart_vector(y, f)`,
    y_a = form(e_f, r_a), y_f = 0, is row f of the graph(M) through u with
    M[f][f] = 0, and with x1 = `chart_vector(l)`, where l = e_f - sum_a
    r_a[f] e_a kills u's L-part, member(1, s) is graph(M + s l l^T)."""
    if u.ambient != DIM3 or u.dim != 9 or not space.is_isotropic(u):
        raise PreconditionError("core must be a 9-dimensional isotropic subspace")
    if u.pivots[-1] >= 10:
        raise PreconditionError("core meets wedge^3 <e_1..e_5>: no graph contains it")
    F = space.field
    f = next(c for c in range(10) if c not in u.pivots)
    ell = [F.neg(r[f]) for r in u.basis()]
    y = [space.form_row(r)[f] for r in u.basis()]
    ell.insert(f, F.one)
    y.insert(f, F.zero)
    return LagrangianPencil(space, u, chart_vector(F, y, f), chart_vector(F, ell))


def hyperplane(A: Subspace, ell) -> Subspace:
    """u = {z in A : ell(z[0..9]) = 0}, for A with pivots 0..9 (a graph, as
    `graph_lagrangian` builds it) and ell a nonzero list of 10 elements of
    A's field. With f the last index where ell_f != 0, the rows
    A_a - (ell_a / ell_f) A_f, a != f, are u's canonical RREF: A_f is 0 at
    every other pivot, and ell_a = 0 for a > f."""
    F = A.field
    f = max(i for i, x in enumerate(ell) if x)
    lag = A.basis()
    pivots = [a for a in range(10) if a != f]
    rows = [tuple(F.axpy(lag[a], F.neg(F.div(ell[a], ell[f])), lag[f])) for a in pivots]
    return Subspace(F, DIM3, rows, pivots)


def _omega_cores(space: SymplecticSpace, A: Subspace, B: Subspace):
    """(RA, RB): the coordinates of the common 9-dimensional core's basis in
    A and in B, the inputs of the agreement system `_omega_rows`."""
    if not (space.is_lagrangian(A) and space.is_lagrangian(B)):
        raise PreconditionError("both subspaces must be Lagrangian")
    if A == B:
        raise PreconditionError("need two distinct subspaces")
    u = A.meet(B)
    if u.dim != 9:
        raise PreconditionError(f"common core has dimension {u.dim}, need 9")
    return [A.coords_of(r) for r in u.basis()], [B.coords_of(r) for r in u.basis()]


def omega_tangent_dim(space: SymplecticSpace, A: Subspace, B: Subspace) -> int:
    """Dimension of the pairs of quadratic forms on A and B that agree on
    the common 9-dimensional core (65 for half-dimension 10), out of the
    110 of two free forms."""
    return _kernel_dim(space.field, _omega_rows, _omega_cores(space, A, B))


def omega_unknowns(space: SymplecticSpace, A: Subspace, B: Subspace) -> int:
    """The number of unknowns of the agreement system of `omega_tangent_dim`:
    the upper coordinates of one free quadratic form on each side (110)."""
    return system_width(_omega_rows(space.field, *_omega_cores(space, A, B)))


def _alpha_coords(B: Subspace, alphas, u=None):
    """Each alpha's coordinates in B; PreconditionError off B or in u. An
    alpha is a row of elements of B's field."""
    out = []
    for vec in alphas:
        coords, residue = B._reduce(vec)
        if any(residue):
            raise PreconditionError("alpha outside the base subspace")
        if u is not None and u.contains(vec):
            raise PreconditionError("alpha lies in the hyperplane")
        out.append(coords)
    return out


def injective_differential_kernel(space, B: Subspace, u: Subspace, alphas, require_full=True) -> int:
    """Dimension of {q on B : q restricts to zero on the hyperplane u and
    kills every alpha}. With 10 independent alphas off u this is 0: such a
    q splits as a product of the hyperplane form with a second linear form
    that would have to kill all the alphas."""
    F = space.field
    if not space.is_lagrangian(B):
        raise PreconditionError("base subspace must be Lagrangian")
    # u's coordinates in B, and its residues modulo B
    split = [B._reduce(r) for r in u.basis()] if u.dim == 9 else ()
    if u.dim != 9 or any(any(residue) for _, residue in split):
        raise PreconditionError("u must be a hyperplane of the base subspace")
    coords = _alpha_coords(B, alphas, u)
    if Matrix(F, coords, ncols=10).rank() != len(coords):
        raise PreconditionError("alphas are linearly dependent")
    if require_full and len(coords) != 10:
        raise PreconditionError(f"need 10 alphas, got {len(coords)} (relaxed mode only)")
    return _kernel_dim(F, _injective_rows, ([c for c, _ in split], coords))


def sigma_tangent_space(space, A: Subspace, alphas) -> Subspace:
    """Solution subspace of the evaluation conditions q(alpha_i) = 0 inside
    the 55 upper coordinates of the quadratic forms on A."""
    F = space.field
    if not space.is_lagrangian(A):
        raise PreconditionError("base subspace must be Lagrangian")
    rows = [_evaluation_row(F, c) for c in _alpha_coords(A, alphas)]
    return Matrix(F, rows, ncols=55).kernel_basis()


class ScenarioFailure(AssertionError):
    pass


@dataclass(frozen=True)
class TangencyScenario:
    v: ExteriorVector
    A: Subspace
    B: Subspace
    core: Subspace
    member: Subspace  # the pencil member through the rank-2 point
    fiber_member_dim: int


def tangency_scenario(space: SymplecticSpace, rng) -> TangencyScenario:
    """Builds a point v and a pencil pair (A, B) adapted to it, then checks:
    the fiber meets A and B in the same line; the fiber meets A+B in a
    plane; core + (fiber ∩ (A+B)) is a Lagrangian pencil member; and that
    member meets the fiber in dimension >= 2. The member needs no check
    that it lies in perp(core), which makes it a pencil member: it contains
    core and is isotropic, so it is orthogonal to core. Draws up to 40
    points, and raises PreconditionError when each of them is degenerate."""
    F = space.field
    for _ in range(40):
        v = ExteriorVector(F, 1, [F.random(rng) for _ in range(6)])
        if v.is_zero():
            continue
        beta = ExteriorVector(F, 2, [F.random(rng) for _ in range(15)])
        alpha = v.wedge(beta)
        # alpha = 0, or alpha in wedge^3 <e_1..e_5>, has no completion
        if not any(alpha.coords[:10]):
            continue
        seed_sub = Subspace.from_spanning(F, DIM3, [alpha.coords])
        A = space.lagrangian_completion(seed_sub, rng)
        fiber = space.fiber(v)
        line_a = fiber.meet(A)
        if line_a.dim != 1:
            continue
        # u = {z in A : l(z[0..9]) = 0} for a random l that kills alpha
        k = seed_sub.pivots[0]
        ell = [F.random(rng) for _ in range(10)]
        ell[k] = F.sub(ell[k], F.dot(ell, seed_sub.basis()[0][:10]))
        if not any(ell):
            continue
        u = hyperplane(A, ell)
        pencil = pencil_through(space, u)
        B = pencil.member(1, 0)
        if B == A:
            B = pencil.member(1, 1)
        if (line_b := fiber.meet(B)).dim != 1:
            continue

        # the four contracts; failures here are real bugs, not bad luck
        if line_a != line_b:
            raise ScenarioFailure(f"fiber intersections differ: v={v!r}")
        plane = fiber.meet(A.join(B))
        if plane.dim != 2:
            raise ScenarioFailure(f"fiber ∩ (A+B) has dimension {plane.dim}, want 2: v={v!r}")
        core = A.meet(B)
        if core != u:
            raise ScenarioFailure("pencil core drifted from the chosen hyperplane")
        member = core.join(plane)
        if not space.is_lagrangian(member):
            raise ScenarioFailure("core + plane is not Lagrangian")
        d = fiber.meet(member).dim
        if d < 2:
            raise ScenarioFailure(f"member meets the fiber in dimension {d} < 2")
        if member.meet(A).dim != 9:
            raise ScenarioFailure("member does not meet A along the core")
        return TangencyScenario(v, A, B, core, member, d)
    raise PreconditionError("no non-degenerate scenario in 40 attempts")
