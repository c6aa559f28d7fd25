"""Incidence geometry of Lagrangian subspaces.

Tangent directions at a Lagrangian are quadratic forms on it (55 upper
coordinates for dimension 10); the module solves the linear systems cut by
restriction and evaluation conditions, builds pencils of Lagrangians
through a common 9-dimensional core, and replays the everywhere-tangency
construction point by point.
"""

from dataclasses import dataclass

from .exterior import DIM3, ExteriorVector, SymplecticSpace
from .linalg import Matrix, Subspace, certified_rank_full
from .scalars import PrimeField


class PreconditionError(ValueError):
    pass


SYM_PAIRS_10 = [(k, l) for k in range(10) for l in range(k, 10)]  # 55 coordinates


def _restriction_rows(field, R, i, j):
    """Row of coefficients (over the 55 upper coordinates) of the (i, j)
    entry of the restricted form R Q R^T."""
    row = []
    for k, l in SYM_PAIRS_10:
        if k == l:
            row.append(field.mul(R[i][k], R[j][k]))
        else:
            row.append(
                field.add(field.mul(R[i][k], R[j][l]), field.mul(R[j][k], R[i][l]))
            )
    return row


def _evaluation_row(field, c):
    """Coefficients of q(c) over the 55 upper coordinates."""
    row = []
    for k, l in SYM_PAIRS_10:
        row.append(field.mul(c[k], c[k]) if k == l else field.mul(field.of(2), field.mul(c[k], c[l])))
    return row


def _kernel_dim(field, rows, ncols):
    """dim ker of the system; over QQ a full-rank modular elimination is an
    exact certificate (rank_p <= rank_Q <= #rows), else exact Bareiss."""
    if not rows:
        return ncols
    # the rows are sums and products of canonical coordinates: trusted
    m = Matrix._reduced(field, [tuple(r) for r in rows], ncols)
    if not isinstance(field, PrimeField) and certified_rank_full(m):
        return ncols - m.nrows
    return ncols - m.rank()


@dataclass(frozen=True)
class LagrangianPencil:
    """The Lagrangians containing a fixed 9-dimensional isotropic core:
    member(t, s) = core + <t*x0 + s*x1> inside perp(core)."""

    space: SymplecticSpace
    core: Subspace
    a0: Subspace
    a1: Subspace
    x0: tuple
    x1: tuple

    def member(self, t, s) -> Subspace:
        F = self.space.field
        t, s = F.of(t), F.of(s)
        if F.is_zero(t) and F.is_zero(s):
            raise ValueError("member needs a nonzero parameter pair")
        return self.core.with_vector(F.lincomb((t, s), (self.x0, self.x1)))


def pencil_through(space: SymplecticSpace, u: Subspace) -> LagrangianPencil:
    if u.ambient != DIM3 or u.dim != 9 or not space.is_isotropic(u):
        raise PreconditionError("core must be a 9-dimensional isotropic subspace")
    pool = space.perp(u)
    assert pool.dim == 11
    x0 = next(r for r in pool.basis() if not u.contains(r))
    a0 = u.with_vector(x0)
    x1 = next(r for r in pool.basis() if not a0.contains(r))
    a1 = u.with_vector(x1)
    pencil = LagrangianPencil(space, u, a0, a1, tuple(x0), tuple(x1))
    assert space.is_lagrangian(a0) and space.is_lagrangian(a1)
    assert a0.meet(a1) == u
    for t, s in ((1, 0), (0, 1), (1, 1)):
        assert space.is_lagrangian(pencil.member(t, s))
    return pencil


def omega_tangent_dim(space: SymplecticSpace, A: Subspace, B: Subspace, require_agreement=True) -> int:
    """Dimension of the pairs of quadratic forms on A and B that agree on
    the common 9-dimensional core (65 for half-dimension 10); with the
    agreement dropped, the two forms are free (110)."""
    F = space.field
    if not (space.is_lagrangian(A) and space.is_lagrangian(B)):
        raise PreconditionError("both subspaces must be Lagrangian")
    if A == B:
        raise PreconditionError("need two distinct subspaces")
    u = A.meet(B)
    if u.dim != 9:
        raise PreconditionError(f"common core has dimension {u.dim}, need 9")
    if not require_agreement:
        return 110
    RA = [A.coords_of(r) for r in u.basis()]
    RB = [B.coords_of(r) for r in u.basis()]
    rows = []
    for i in range(9):
        for j in range(i, 9):
            left = _restriction_rows(F, RA, i, j)
            right = _restriction_rows(F, RB, i, j)
            rows.append(left + [F.neg(x) for x in right])
    return _kernel_dim(F, rows, 110)


def injective_differential_kernel(space, B: Subspace, u: Subspace, alphas, require_full=True) -> int:
    """Dimension of {q on B : q restricts to zero on the hyperplane u and
    kills every alpha}. With 10 independent alphas off u this is 0: such a
    q splits as a product of the hyperplane form with a second linear form
    that would have to kill all the alphas."""
    F = space.field
    if not space.is_lagrangian(B):
        raise PreconditionError("base subspace must be Lagrangian")
    if u.dim != 9 or not B.contains_subspace(u):
        raise PreconditionError("u must be a hyperplane of the base subspace")
    coords = []
    for a in alphas:
        vec = a.coords if isinstance(a, ExteriorVector) else a
        if not B.contains(vec):
            raise PreconditionError("alpha outside the base subspace")
        if u.contains(vec):
            raise PreconditionError("alpha lies in the hyperplane")
        coords.append(B.coords_of(vec))
    if Matrix(F, coords, ncols=10).rank() != len(coords):
        raise PreconditionError("alphas are linearly dependent")
    if require_full and len(coords) != 10:
        raise PreconditionError(f"need 10 alphas, got {len(coords)} (relaxed mode only)")
    R = [B.coords_of(r) for r in u.basis()]
    rows = []
    for i in range(9):
        for j in range(i, 9):
            rows.append(_restriction_rows(F, R, i, j))
    for c in coords:
        rows.append(_evaluation_row(F, c))
    return _kernel_dim(F, rows, 55)


def sigma_tangent_space(space, A: Subspace, alphas) -> Subspace:
    """Solution subspace of the evaluation conditions q(alpha_i) = 0 inside
    the 55 upper coordinates of the quadratic forms on A."""
    F = space.field
    if not space.is_lagrangian(A):
        raise PreconditionError("base subspace must be Lagrangian")
    rows = []
    for a in alphas:
        vec = a.coords if isinstance(a, ExteriorVector) else a
        if not A.contains(vec):
            raise PreconditionError("alpha outside the base subspace")
        rows.append(_evaluation_row(F, A.coords_of(vec)))
    if not rows:
        return Subspace.full(F, 55)
    return Matrix(F, rows, ncols=55).kernel_basis()


def perp_sum_identity(space: SymplecticSpace, A: Subspace, B: Subspace) -> bool:
    """perp(A ∩ B) = A + B, as canonical subspaces (both Lagrangian)."""
    if not (space.is_lagrangian(A) and space.is_lagrangian(B)):
        raise PreconditionError("both subspaces must be Lagrangian")
    return space.perp(A.meet(B)) == A.join(B)


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


def tangency_scenario(space: SymplecticSpace, rng, budget=40) -> TangencyScenario:
    """Builds a point v and a pencil pair (A, B) adapted to it, then checks:
    the fiber meets A and B in the same line; the fiber meets A+B in a
    plane; core + (fiber ∩ (A+B)) is a Lagrangian pencil member; and that
    member meets the fiber in dimension >= 2."""
    F = space.field
    for _ in range(budget):
        v = ExteriorVector(F, 1, [F.random(rng) for _ in range(6)])
        if v.is_zero():
            continue
        beta = ExteriorVector(F, 2, [F.random(rng) for _ in range(15)])
        alpha = v.wedge(beta)
        if alpha.is_zero():
            continue
        seed_sub = Subspace.from_spanning(F, DIM3, [alpha.coords])
        A = space.lagrangian_completion(seed_sub, rng)
        fiber = space.fiber(v)
        line_a = fiber.meet(A)
        if line_a.dim != 1:
            continue
        # a hyperplane of A through alpha
        u = None
        for _ in range(16):
            extra = [F.lincomb([F.random(rng) for _ in range(10)], A.basis()) for _ in range(8)]
            cand = Subspace.from_spanning(F, DIM3, [alpha.coords] + extra)
            if cand.dim == 9:
                u = cand
                break
        if u is None:
            continue
        pencil = pencil_through(space, u)
        B = None
        for t, s in ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)):
            cand = pencil.member(t, s)
            if cand != A:
                B = cand
                break
        if B is None or (line_b := fiber.meet(B)).dim != 1:
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
        if member.dim != 10 or not space.is_lagrangian(member):
            raise ScenarioFailure("core + plane is not Lagrangian")
        if not space.perp(core).contains_subspace(member):
            raise ScenarioFailure("member escapes perp(core): not in the pencil")
        d = fiber.meet(member).dim
        if d < 2:
            raise ScenarioFailure(f"member meets the fiber in dimension {d} < 2")
        if member.meet(A).dim != 9:
            raise ScenarioFailure("member does not meet A along the core")
        return TangencyScenario(v, A, B, core, member, d)
    raise PreconditionError(f"no non-degenerate scenario in {budget} attempts")
