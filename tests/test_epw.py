from fractions import Fraction
from itertools import combinations

import pytest

from epwcalc import epw
from epwcalc.exterior import DIM3, ExteriorVector, SymplecticSpace, vol
from epwcalc.linalg import InterpolationError, Matrix, Subspace, interpolate_univariate, poly_degree, poly_eval
from epwcalc.rng import derive_rng
from epwcalc.scalars import GF, QQ, PrimeField

F = GF(10007)
SP = SymplecticSpace(F)


def unit_rows(field, n):
    """The rows of the n x n identity matrix, as tuples."""
    return [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]


def pairing_entries(A, vcoords, chart):
    """M(v) = sum_s v_s M_s on the chart as a flat 10x10 list, off the
    pencil."""
    return A.field.lincomb([A.field.of(x) for x in vcoords], A.pencil(chart))


def pairing_matrix(A, vcoords, chart):
    """M[i][j] = form(frame_i(v), a_j) on the chart, as a Matrix: the
    entries of `pairing_entries`, which are linear homogeneous in v."""
    flat = pairing_entries(A, vcoords, chart)
    return Matrix(A.field, [flat[i * 10 : (i + 1) * 10] for i in range(10)])


def smooth_at(A, v):
    """The sextic is smooth at [v]: the tangent covector exists and is
    nonzero."""
    func = epw.tangent_functional(A, v)
    return func is not None and any(not A.field.is_zero(x) for x in func)


@pytest.fixture(scope="module")
def datum():
    return epw.random_lagrangian_datum(SP, derive_rng(1, "epw.datum"))


def test_generic_point_misses_the_sextic(datum):
    rnd = derive_rng(2, "generic")
    for _ in range(10):
        v = [F.random(rnd) for _ in range(6)]
        if all(F.is_zero(x) for x in v):
            continue
        d = epw.fiber_intersection_dim(datum, v)
        det = epw.pairing_det(datum, v)
        assert (d == 0) == (det != 0)


def test_fiber_dim_rejects_zero(datum):
    with pytest.raises(ValueError):
        epw.fiber_intersection_dim(datum, [0] * 6)


def test_chart_errors(datum):
    with pytest.raises(epw.ChartError):
        epw.pairing_det(datum, [0, 1, 2, 3, 4, 5], chart=0)
    with pytest.raises(epw.ChartError):
        epw.sextic_on_line(datum, [1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], 7, chart=0)


def test_pairing_matrix_scaling(datum):
    rnd = derive_rng(3, "scale")
    v = [1] + [F.random(rnd) for _ in range(5)]
    lam = 1234
    m1 = pairing_matrix(datum, v, 0)
    m2 = pairing_matrix(datum, [F.mul(F.of(lam), x) for x in v], 0)
    assert m2.rows == tuple(tuple(F.mul(F.of(lam), x) for x in row) for row in m1.rows)
    d1, d2 = epw.pairing_det(datum, v, 0), epw.pairing_det(datum, [F.mul(F.of(lam), x) for x in v], 0)
    assert d2 == F.mul(pow(lam, 10, 10007), d1)
    assert epw.fiber_intersection_dim(datum, v) == epw.fiber_intersection_dim(
        datum, [F.mul(F.of(lam), x) for x in v]
    )


@pytest.mark.parametrize("field", [F, QQ], ids=["GF10007", "QQ"])
def test_pairing_entries_match_the_form_definition(field):
    """M[i][j] = form(v ^ e_a ^ e_b, a_j) for the i-th pair (a, b) avoiding
    the chart, computed by wedge products instead of the pencil."""
    sp = SymplecticSpace(field)
    rnd = derive_rng(23, "pencil_entries")
    A = epw.EpwLagrangian(sp, sp.random_lagrangian(rnd))
    lagr = [ExteriorVector(field, 3, row) for row in A.basis]
    for chart in range(6):
        v = [field.random(rnd) for _ in range(6)]
        v[chart] = field.of(chart + 2)
        vx = ExteriorVector(field, 1, v)
        m = pairing_matrix(A, v, chart)
        pairs = [(a, b) for a, b in combinations(range(6), 2) if chart not in (a, b)]
        for i, (a, b) in enumerate(pairs):
            frame = vx.wedge(ExteriorVector.basis(field, a)).wedge(ExteriorVector.basis(field, b))
            assert m.rows[i] == tuple(sp.form(frame, aj) for aj in lagr)


def _gradient_by_interpolation(A, v0, chart):
    """Each partial as coefficient 1 of t -> det M(v0 + t e_k), interpolated
    to degree 10 from 11 values of t that keep the chart coordinate nonzero."""
    F = A.field
    v0 = [F.of(x) for x in v0]
    grad = []
    for k in range(6):
        ts = [F.of(t) for t in range(12)]
        if k == chart:
            ts = [t for t in ts if not F.is_zero(F.add(v0[chart], t))]
        samples = []
        for t in ts[:11]:
            v = list(v0)
            v[k] = F.add(v[k], t)
            samples.append((t, epw.pairing_det(A, v, chart)))
        grad.append(interpolate_univariate(F, samples, 10)[1])
    return tuple(grad)


@pytest.mark.parametrize("field", [GF(101), F, QQ], ids=["GF101", "GF10007", "QQ"])
def test_gradient_matches_interpolated_partials(field):
    sp = SymplecticSpace(field)
    rnd = derive_rng(24, "gradient_route")
    A = epw.EpwLagrangian(sp, sp.random_lagrangian(rnd))
    if isinstance(field, PrimeField):
        for _ in range(3):
            v = epw.find_point_stats(A, rnd)[0].coords
            chart = epw.chart_for(field, v)
            assert epw.gradient_det(A, v) == _gradient_by_interpolation(A, v, chart)
        low = field.of(field.p - 5)
    else:
        low = field.of(-5)
    # v0_c = -5: one shift t = 5 along the chart axis leaves the chart
    for chart in range(6):
        v = [field.random(rnd) for _ in range(6)]
        v[chart] = low
        assert epw.gradient_det(A, v, chart) == _gradient_by_interpolation(A, v, chart)


def _gradient_by_row_replacement(A, v0, chart):
    """Each partial as the t-coefficient of det(M(v0) + t M_k): det is linear
    in each row, so it is the sum over i of det M(v0) with row i replaced by
    row i of M_k. Forty 10x10 determinants; the independent reference for
    the Jacobi-formula gradient."""
    F = A.field
    m0 = pairing_entries(A, v0, chart)
    grad = []
    for mk in A.pencil(chart):
        acc = F.zero
        for i in range(0, 100, 10):
            if any(mk[i : i + 10]):  # a zero row of M_k contributes nothing
                rows = [m0[r : r + 10] for r in range(0, 100, 10)]
                rows[i // 10] = mk[i : i + 10]
                acc = F.add(acc, Matrix(F, rows).det())
        grad.append(acc)
    return tuple(grad)


def _completed_through_fiber(sp, v, k, rnd):
    """A Lagrangian completed from k random vectors of the fiber F_v, so
    dim(F_v ∩ A) >= k (F_v is Lagrangian, so any subspace of it is isotropic)."""
    F = sp.field
    fiber = sp.fiber(ExteriorVector(F, 1, v))
    vecs = [F.lincomb([F.random(rnd) for _ in range(10)], fiber.basis()) for _ in range(k)]
    return epw.EpwLagrangian(sp, sp.lagrangian_completion(Subspace.from_spanning(F, DIM3, vecs), rnd))


@pytest.mark.parametrize("field", [GF(13), GF(101), F], ids=["GF13", "GF101", "GF10007"])
def test_gradient_matches_row_replacement(field):
    sp = SymplecticSpace(field)
    rnd = derive_rng(26, "jacobi")
    A = epw.EpwLagrangian(sp, sp.random_lagrangian(rnd))
    for _ in range(4):  # points found on the sextic, corank 1 in the main
        v = epw.find_point_stats(A, rnd)[0].coords
        assert epw.gradient_det(A, v) == _gradient_by_row_replacement(A, v, epw.chart_for(field, v))
    # corank 2: A meets F_v in a plane at least, and the gradient vanishes
    v = [field.one] + [field.random(rnd) for _ in range(5)]
    B = _completed_through_fiber(sp, v, 2, rnd)
    assert epw.fiber_intersection_dim(B, v) >= 2
    assert epw.gradient_det(B, v) == (field.zero,) * 6 == _gradient_by_row_replacement(B, v, 0)
    # off the sextic: adj M = det M . M^-1
    while True:
        v = [field.random(rnd) for _ in range(6)]
        if any(v) and epw.pairing_det(A, v) != 0:
            break
    assert epw.gradient_det(A, v) == _gradient_by_row_replacement(A, v, epw.chart_for(field, v))


def test_gradient_matches_row_replacement_over_qq():
    sp = SymplecticSpace(QQ)
    rnd = derive_rng(27, "jacobi_qq")
    v = [QQ.of(x) for x in (2, -1, 3, 0, 5, -4)]
    A = _completed_through_fiber(sp, v, 1, rnd)
    assert epw.fiber_intersection_dim(A, v) == 1
    grad = epw.gradient_det(A, v)
    assert grad == _gradient_by_row_replacement(A, v, 0)
    assert any(grad) == smooth_at(A, v)


def test_sextic_on_line_needs_eleven_field_elements():
    small = GF(7)
    sp = SymplecticSpace(small)
    A = epw.EpwLagrangian(sp, sp.random_lagrangian(derive_rng(25, "gf7")))
    with pytest.raises(ValueError):
        epw.sextic_on_line(A, [1, 2, 3, 4, 5, 6], [0, 1, 1, 2, 3, 5], 11)


def test_sextic_on_line_degree(datum):
    rnd = derive_rng(4, "lines")
    exact6 = 0
    for _ in range(20):
        p = [1] + [F.random(rnd) for _ in range(5)]
        q = [0] + [F.random(rnd) for _ in range(5)]
        if all(F.is_zero(x) for x in q):
            continue
        coeffs = epw.sextic_on_line(datum, p, q, 11)
        assert len(coeffs) == 7
        if poly_degree(F, coeffs) == 6:
            exact6 += 1
    assert exact6 >= 18


def test_sextic_through_two_marked_points(datum):
    from epwcalc.linalg import poly_eval

    rnd = derive_rng(5, "two_points")
    v1 = epw.find_point_stats(datum, rnd)[0].coords
    v2 = epw.find_point_stats(datum, rnd)[0].coords
    if F.is_zero(v2[0]):
        pytest.skip("second point off the chart for this seed")
    # normalize both points onto the chart and take their difference as the
    # direction: p + 0*q and p + 1*q are the two marked points
    p = [F.div(x, v1[0]) for x in v1]
    w = [F.div(x, v2[0]) for x in v2]
    q = [F.sub(a, b) for a, b in zip(w, p)]
    if all(F.is_zero(x) for x in q):
        pytest.skip("coincident points for this seed")
    coeffs = epw.sextic_on_line(datum, p, q, 7)
    assert poly_eval(F, coeffs, 0) == 0
    assert poly_eval(F, coeffs, 1) == 0


def test_gradient_and_smoothness_at_plane_points():
    rnd = derive_rng(6, "sigma_point")
    w = Subspace.from_spanning(F, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    dec = SP.decomposable_of(w)
    A = epw.EpwLagrangian(
        SP, SP.lagrangian_completion(Subspace.from_spanning(F, DIM3, [dec.coords]), rnd)
    )
    # a point of the plane P(W) lies on the sextic and is singular there
    v = [3, 5, 7, 0, 0, 0]
    assert epw.fiber_intersection_dim(A, v) >= 1
    grad = epw.gradient_det(A, v)
    assert all(F.is_zero(g) for g in grad)
    assert not smooth_at(A, v)


def test_smoothness_criterion_down_both_routes(datum):
    rnd = derive_rng(7, "smooth")
    seen_smooth = 0
    for _ in range(10):
        v = epw.find_point_stats(datum, rnd)[0].coords
        grad = epw.gradient_det(datum, v)
        nonzero = any(not F.is_zero(g) for g in grad)
        assert nonzero == smooth_at(datum, v)
        seen_smooth += int(nonzero)
    assert seen_smooth > 0


def _fiber_generator(A, v):
    """The first canonical basis vector of F_v ∩ A, as a 3-vector, and the
    dimension of that meet."""
    inter = A.space.fiber(ExteriorVector(A.field, 1, v)).meet(A.subspace)
    return ExteriorVector(A.field, 3, inter.basis()[0]) if inter.dim else None, inter.dim


def test_tangent_functional_matches_gradient(datum):
    rnd = derive_rng(8, "tangent")
    done = 0
    while done < 6:
        v = epw.find_point_stats(datum, rnd)[0].coords
        if not smooth_at(datum, v):
            continue
        func = epw.tangent_functional(datum, v)
        grad = epw.gradient_det(datum, v)
        assert any(not F.is_zero(x) for x in func)
        assert any(not F.is_zero(x) for x in grad)
        assert Matrix(F, [func, grad], ncols=6).rank() == 1
        # the base point lies on its own tangent hyperplane
        acc = F.zero
        for x, c in zip(v, func):
            acc = F.add(acc, F.mul(x, c))
        assert F.is_zero(acc)
        done += 1


def test_tangent_functional_precondition(datum):
    """No covector unless F_v ∩ A is a line: None where the fiber misses A
    (a generic v) and where it meets A in a plane or more."""
    rnd = derive_rng(9, "tangent_pre")
    v = [F.random(rnd) for _ in range(6)]
    assert epw.fiber_intersection_dim(datum, v) == 0
    assert epw.tangent_functional(datum, v) is None
    assert not smooth_at(datum, v)
    v = [F.one] + [F.random(rnd) for _ in range(5)]
    B = _completed_through_fiber(SP, v, 2, rnd)
    assert epw.fiber_intersection_dim(B, v) >= 2
    assert epw.tangent_functional(B, v) is None
    assert not smooth_at(B, v)


def _covector_by_wedges(field, v0, alpha):
    """vol(v0 ^ e_k ^ alpha ^ alpha) for k = 0..5: twelve wedges."""
    vx = ExteriorVector(field, 1, v0)
    u = alpha.wedge(alpha)
    return tuple(vol(vx.wedge(ExteriorVector.basis(field, k)).wedge(u)) for k in range(6))


@pytest.mark.parametrize("field", [GF(13), GF(10007), QQ], ids=repr)
def test_tangent_functional_equals_the_wedge_route(field):
    """The covector read off v0 ^ alpha ^ alpha equals the twelve-wedge
    covector, with alpha solved by `_alpha_by_wedges` from a test-local
    meet, on data completed through a random vector of F_v (smooth in the
    main) and through a decomposable 3-vector of a 3-space containing v (g
    decomposable, the covector zero). v lies on each of the six charts in
    turn, with leading zeros and a random chart coordinate, so a wrong sign
    or scale of a fiber row shows. Wherever the meet is not a line the
    covector is None."""
    sp = SymplecticSpace(field)
    rnd = derive_rng(14, "tangent_wedges")
    seen = {"smooth": [], "decomposable": []}
    for k in range(48):
        chart = k // 2 % 6
        v = [field.zero] * chart + [field.random(rnd) for _ in range(6 - chart)]
        if field.is_zero(v[chart]):
            continue
        if k % 2:
            rows = [v] + [[field.random(rnd) for _ in range(6)] for _ in range(2)]
            w = Subspace.from_spanning(field, 6, rows)
            if w.dim != 3:
                continue
            dec = sp.decomposable_of(w)
            A = epw.EpwLagrangian(sp, sp.lagrangian_completion(Subspace.from_spanning(field, DIM3, [dec.coords]), rnd))
        else:
            A = _completed_through_fiber(sp, v, 1, rnd)
        func = epw.tangent_functional(A, v)
        g, dim = _fiber_generator(A, v)
        if dim != 1:
            assert func is None
            continue
        alpha = _alpha_by_wedges(field, v, g)
        assert ExteriorVector(field, 1, v).wedge(alpha) == g
        want = _covector_by_wedges(field, v, alpha)
        assert func == want and [type(x) for x in func] == [type(x) for x in want]
        smooth = any(not field.is_zero(x) for x in want)
        assert smooth_at(A, v) == smooth
        if k % 2:
            assert not smooth
        seen["smooth" if smooth else "decomposable"].append(chart)
    assert all(len(charts) >= 10 and set(charts) == set(range(6)) for charts in seen.values()), seen


def _alpha_by_wedges(field, v0, g):
    """A 2-vector alpha with v0 ^ alpha = g, solved from the 20 x 15 system
    whose columns are the 15 ExteriorVector wedges v0 ^ e_i ^ e_j."""
    vx = ExteriorVector(field, 1, [field.of(x) for x in v0])
    pairs = list(combinations(range(6), 2))
    cols = [vx.wedge(ExteriorVector.basis(field, i, j)).coords for i, j in pairs]
    aug = [list(col) + [val] for col, val in zip(zip(*cols), g.coords)]
    red, pivots = Matrix(field, aug, ncols=16).rref()
    if 15 in pivots:
        raise ValueError("generator is not divisible by v0")
    x = [field.zero] * 15
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][15]
    return ExteriorVector(field, 2, x)


def test_a_plus_minus_decomposition():
    rnd = derive_rng(11, "apm")
    ap = epw.a_plus(SP, rnd)
    am = epw.a_minus(SP, rnd)
    assert ap.subspace.dim == 10 and am.subspace.dim == 10
    assert SP.is_lagrangian(ap.subspace) and SP.is_lagrangian(am.subspace)
    assert ap.subspace.meet(am.subspace).dim == 0
    assert ap.subspace.join(am.subspace).dim == 20


def test_a_plus_does_not_depend_on_the_basis_of_u():
    """The wedge cubes of the 3-spaces u ^ U, each spanned by the u ^ b over
    a non-standard basis b of U and u a random combination of it, span the
    Lagrangian that `a_plus` builds in the standard basis."""
    rnd = derive_rng(11, "apm.basis")
    basis = [[1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, 5], [3, 0, 0, 1]]
    assert Matrix(F, basis).rank() == 4
    cubes = []
    while len(cubes) < 24:
        u = F.lincomb([F.random(rnd) for _ in range(4)], basis)
        w = Subspace.from_spanning(F, 6, [epw.wedge2_of_4(F, u, b) for b in basis])
        if w.dim == 3:
            cubes.append(SP.decomposable_of(w).coords)
    assert Subspace.from_spanning(F, DIM3, cubes) == epw.a_plus(SP, rnd).subspace


def test_a_plus_images_are_pairwise_orthogonal():
    rnd = derive_rng(12, "orth")
    for _ in range(8):
        u0 = [F.random(rnd) for _ in range(4)]
        u1 = [F.random(rnd) for _ in range(4)]
        rows0 = [epw.wedge2_of_4(F, u0, b) for b in unit_rows(F, 4)]
        rows1 = [epw.wedge2_of_4(F, u1, b) for b in unit_rows(F, 4)]
        s0 = Subspace.from_spanning(F, 6, rows0)
        s1 = Subspace.from_spanning(F, 6, rows1)
        if s0.dim != 3 or s1.dim != 3:
            continue
        d0, d1 = SP.decomposable_of(s0), SP.decomposable_of(s1)
        assert F.is_zero(SP.form(d0, d1))
        assert s0.meet(s1).dim >= 1  # the planes share the line through u0 ^ u1


def test_triple_quadric_identity_and_failure():
    rnd = derive_rng(13, "triple")
    ap = epw.a_plus(SP, rnd)
    assert epw.verify_triple_quadric(ap, 60, rnd)
    generic = epw.random_lagrangian_datum(SP, rnd)
    assert not epw.verify_triple_quadric(generic, 12, rnd)


def test_quadric_points_lie_on_triple_sextic():
    rnd = derive_rng(14, "qpts")
    ap = epw.a_plus(SP, rnd)
    for _ in range(10):
        x = [F.random(rnd) for _ in range(4)]
        y = [F.random(rnd) for _ in range(4)]
        v = epw.wedge2_of_4(F, x, y)
        if all(F.is_zero(c) for c in v) or F.is_zero(v[0]):
            continue
        assert F.is_zero(epw.plucker_quadric(F, v))
        assert epw.pairing_det(ap, v, 0) == 0
        assert epw.fiber_intersection_dim(ap, v) >= 1


def test_sigma_membership():
    rnd = derive_rng(15, "sigma")
    w = Subspace.from_spanning(F, 6, [[1, 0, 0, 2, 0, 0], [0, 1, 0, 0, 3, 0], [0, 0, 1, 0, 0, 4]])
    dec = SP.decomposable_of(w)
    A = epw.EpwLagrangian(
        SP, SP.lagrangian_completion(Subspace.from_spanning(F, DIM3, [dec.coords]), rnd)
    )
    assert epw.sigma_membership(A, w)
    generic = epw.random_lagrangian_datum(SP, rnd)
    assert not epw.sigma_membership(generic, w)


def test_find_point_needs_prime_field():
    sq = SymplecticSpace(QQ)
    rnd = derive_rng(16, "qq")
    A = epw.EpwLagrangian(sq, sq.random_lagrangian(rnd))
    with pytest.raises(ValueError):
        epw.find_point_stats(A, rnd)


def test_find_point_root_property(datum):
    rnd = derive_rng(17, "roots")
    for _ in range(5):
        v = epw.find_point_stats(datum, rnd)[0]
        assert epw.pairing_det(datum, v.coords) == 0
        assert epw.fiber_intersection_dim(datum, v.coords) >= 1


def test_triple_quadric_line_section_is_a_perfect_cube():
    rnd = derive_rng(18, "cube")
    ap = epw.a_plus(SP, rnd)
    for _ in range(5):
        p = [1] + [F.random(rnd) for _ in range(5)]
        q = [0] + [F.random(rnd) for _ in range(5)]
        sextic = epw.sextic_on_line(ap, p, q, 7)
        # restrict the Grassmannian quadric to the same line
        qp = epw.plucker_quadric(F, p)
        qd = epw.plucker_quadric(F, q)
        mixed = F.sub(
            F.sub(epw.plucker_quadric(F, [F.add(a, b) for a, b in zip(p, q)]), qp), qd
        )
        quad = [qp, mixed, qd]
        cube = [F.zero] * 7
        for i, a in enumerate(quad):
            for j, b in enumerate(quad):
                for k, c in enumerate(quad):
                    cube[i + j + k] = F.add(cube[i + j + k], F.mul(F.mul(a, b), c))
        # proportionality: sextic x cube[j] == cube x sextic[j] across all slots
        pairs = [(a, b) for a, b in zip(sextic, cube)]
        nonzero = [(a, b) for a, b in pairs if not (F.is_zero(a) and F.is_zero(b))]
        assert nonzero, "degenerate line"
        a0, b0 = nonzero[0]
        for a, b in pairs:
            assert F.is_zero(F.sub(F.mul(a, b0), F.mul(b, a0)))


def test_tangent_functional_vanishes_at_decomposable_generator():
    rnd = derive_rng(19, "dec_gen")
    for _ in range(40):
        w = Subspace.from_spanning(F, 6, [[F.random(rnd) for _ in range(6)] for _ in range(3)])
        if w.dim != 3:
            continue
        dec = SP.decomposable_of(w)
        A = epw.EpwLagrangian(
            SP, SP.lagrangian_completion(Subspace.from_spanning(F, DIM3, [dec.coords]), rnd)
        )
        coeffs = [F.random(rnd) for _ in range(3)]
        v = [F.zero] * 6
        for c, row in zip(coeffs, w.basis()):
            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
        if all(F.is_zero(x) for x in v):
            continue
        if epw.fiber_intersection_dim(A, v) != 1:
            continue
        g, _ = _fiber_generator(A, v)
        alpha = _alpha_by_wedges(F, v, g)
        assert alpha.wedge(alpha).wedge(ExteriorVector(F, 1, v)).is_zero()
        func = epw.tangent_functional(A, v)
        assert all(F.is_zero(x) for x in func)
        assert not smooth_at(A, v)
        return
    pytest.fail("no dimension-1 sample found")


def test_sigma_membership_for_construction_lagrangian():
    rnd = derive_rng(20, "sigma_ap")
    ap = epw.a_plus(SP, rnd)
    u = [F.random(rnd) for _ in range(4)]
    rows = [epw.wedge2_of_4(F, u, b) for b in unit_rows(F, 4)]
    w = Subspace.from_spanning(F, 6, rows)
    assert w.dim == 3
    assert epw.sigma_membership(ap, w)


def test_find_point_on_triple_quadric_lands_on_the_quadric():
    rnd = derive_rng(21, "find_on_3g")
    ap = epw.a_plus(SP, rnd)
    for _ in range(5):
        v = epw.find_point_stats(ap, rnd)[0]
        assert F.is_zero(epw.plucker_quadric(F, v.coords))


def test_chart_frame_spans_the_fiber_on_every_chart():
    rnd = derive_rng(22, "frames")
    for chart in range(6):
        v = [F.random(rnd) for _ in range(6)]
        v[:chart] = [F.zero] * chart
        v[chart] = F.one
        assert epw.chart_for(F, v) == chart
        vx = ExteriorVector(F, 1, v)
        frame_rows = []
        for i, j in combinations(range(6), 2):
            if chart in (i, j):
                continue
            frame_rows.append(vx.wedge(ExteriorVector.basis(F, i, j)).coords)
        span = Subspace.from_spanning(F, DIM3, frame_rows)
        assert span.dim == 10
        assert span == SP.fiber(vx)
    # off-chart (v_c = 0) the same pairs under-span: chart 1 for v = e0
    # keeps only the six pairs from {2..5}, spanning 6 of the 10 dimensions
    e0 = ExteriorVector.basis(F, 0)
    off_chart = []
    for i, j in combinations(range(6), 2):
        if 1 in (i, j):
            continue
        off_chart.append(e0.wedge(ExteriorVector.basis(F, i, j)).coords)
    assert Subspace.from_spanning(F, DIM3, off_chart).dim == 6


def test_chart_for_picks_smallest_nonzero_index():
    assert epw.chart_for(F, [0, 0, 3, 1, 0, 0]) == 2
    assert epw.chart_for(F, [5, 0, 0, 0, 0, 0]) == 0
    with pytest.raises(ValueError):
        epw.chart_for(F, [0] * 6)


@pytest.mark.parametrize("p", [17, 10007, 2**61 - 1], ids=["GF17", "GF10007", "GF2^61-1"])
def test_seven_samples_equal_eleven_on_every_chart(p):
    """The rank <= 6 lemma of `sextic_on_line`: seven samples give the
    coefficients that eleven confirm. 72 lines per field, 216 in all: on
    each of the six charts, q with one nonzero coordinate at each position
    off the chart, and seven random q."""
    K = GF(p)
    sp = SymplecticSpace(K)
    rnd = derive_rng(40, f"seven.{p}")
    A = epw.random_lagrangian_datum(sp, rnd)
    lines = []
    for chart in range(6):
        for n in range(12):
            base = [K.random(rnd) for _ in range(6)]
            base[chart] = K.one
            if n < 5:
                q = [K.zero] * 6
                q[[s for s in range(6) if s != chart][n]] = K.random(rnd) or K.one
            else:
                q = [K.random(rnd) for _ in range(6)]
                q[chart] = K.zero
            lines.append((base, q, chart))
    for base, q, chart in lines:
        assert epw.sextic_on_line(A, base, q, 7, chart) == epw.sextic_on_line(A, base, q, 11, chart)
    assert len(lines) == 72


@pytest.mark.parametrize(
    "p", [17, 10007, 2**61 - 1, 3317044064679887385961813], ids=["GF17", "GF10007", "GF2^61-1", "largest"]
)
def test_packed_pencil_dets_equal_the_matrix_det_on_every_chart(p):
    """`pairing_det` and the samples of `sextic_on_line`, both read off the
    packed pencil rows, equal `Matrix.det` of lincomb(v, pencil(chart)) on
    every chart, at eleven points of a line each; a point of the sextic has
    det 0 on each chart where it has a nonzero coordinate."""
    K = GF(p)
    rnd = derive_rng(45, f"packed.{p}")
    A = epw.random_lagrangian_datum(SymplecticSpace(K), rnd)
    for chart in range(6):
        base = [K.random(rnd) for _ in range(6)]
        q = [K.random(rnd) for _ in range(6)]
        base[chart], q[chart] = K.one, K.zero
        coeffs = epw.sextic_on_line(A, base, q, 7, chart)
        for t in map(K.of, range(11)):
            v = K.axpy(base, t, q)
            want = pairing_matrix(A, v, chart).det()
            assert epw.pairing_det(A, v, chart) == poly_eval(K, coeffs, t) == want, (chart, t)
    point = epw.find_point_stats(A, rnd)[0].coords
    for chart in (c for c in range(6) if point[c]):
        assert epw.pairing_det(A, point, chart) == pairing_matrix(A, point, chart).det() == 0


def test_seven_samples_equal_eleven_on_a_line_through_a_point_of_the_sextic(datum):
    """det M(p) = 0 at a point from `find_point_stats`, the start of every
    line the point search restricts: the constant coefficient is zero and
    seven samples still give the coefficients that eleven confirm."""
    rnd = derive_rng(42, "on-sextic")
    base = list(epw.find_point_stats(datum, rnd)[0].coords)
    assert base[0] == 1 and epw.pairing_det(datum, base, 0) == 0
    q = [0] + [F.random(rnd) for _ in range(5)]
    expected = epw.sextic_on_line(datum, base, q, 11, 0)
    assert epw.sextic_on_line(datum, base, q, 7, 0) == expected and expected[0] == 0


def test_seven_samples_equal_eleven_on_qq_lines_with_fractions():
    rnd = derive_rng(41, "seven.qq")
    A = epw.random_lagrangian_datum(SymplecticSpace(QQ), rnd)
    for chart in (0, 3, 5):
        base = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)) for _ in range(6)]
        q = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)) for _ in range(6)]
        base[chart], q[chart] = Fraction(1), Fraction(0)
        assert epw.sextic_on_line(A, base, q, 7, chart) == epw.sextic_on_line(A, base, q, 11, chart)


def test_both_sample_counts_raise_the_same_chart_errors(datum):
    cases = [
        ([1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], 0),
        ([2, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], 0),
        ([0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], 0),
        ([0] * 6, [0, 1, 0, 0, 0, 0], None),
    ]
    for p, q, chart in cases:
        errors = []
        for samples in (7, 11):
            with pytest.raises(ValueError) as info:
                epw.sextic_on_line(datum, p, q, samples, chart)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]


def test_eleven_samples_check_the_degree_bound(datum, monkeypatch):
    """A pencil of six random 10x10 matrices is not of rank <= 6 on the
    chart: the restriction has degree 10, and the four samples beyond seven
    raise InterpolationError, which sextic_degree reads as a failed line."""
    rnd = derive_rng(44, "random-pencil")
    mats = [[F.random(rnd) for _ in range(100)] for _ in range(6)]
    monkeypatch.setattr(datum, "pencil", lambda chart: mats)
    base = [1] + [F.random(rnd) for _ in range(5)]
    q = [0] + [F.random(rnd) for _ in range(5)]
    with pytest.raises(InterpolationError):
        epw.sextic_on_line(datum, base, q, 11, 0)


def test_point_search_restricts_each_line_on_seven_samples(datum, monkeypatch):
    """Every line of the point search goes through `sextic_on_line` on its
    seven exact samples, one interpolation of seven points each, and every
    point found lies on the sextic."""
    counts, interpolated = [], []
    on_line, interpolate = epw.sextic_on_line, epw.interpolate_univariate

    def recording(*args, **kwargs):
        counts.append(args[3])
        return on_line(*args, **kwargs)

    def counting(field, samples, degree_bound):
        interpolated.append(len(samples))
        return interpolate(field, samples, degree_bound)

    monkeypatch.setattr(epw, "sextic_on_line", recording)
    monkeypatch.setattr(epw, "interpolate_univariate", counting)
    rnd = derive_rng(43, "seven-samples")
    for _ in range(5):
        v = epw.find_point_stats(datum, rnd)[0]
        assert epw.pairing_det(datum, v.coords) == 0
    assert counts and set(counts) == {7} and interpolated == counts


def _fractional_datum(rnd, v):
    """A QQ datum with Fraction entries through v ^ e_1 ^ e_2, a fractional
    seed in the chart (v_0 != 0), so that v lies on its sextic."""
    vx = ExteriorVector(QQ, 1, v)
    seed = vx.wedge(ExteriorVector.basis(QQ, 1, 2)).coords
    sq = SymplecticSpace(QQ)
    return epw.EpwLagrangian(sq, sq.lagrangian_completion(Subspace.from_spanning(QQ, DIM3, [seed]), rnd))


def test_qq_pairing_det_equals_bareiss_on_the_pairing_entries():
    """One integer Bareiss pass on the combined integer pencil equals the
    Matrix determinant of `pairing_entries`, for fractional v on every chart,
    on a datum with Fraction entries, and at points of the sextic (0)."""
    rnd = derive_rng(44, "qq.pairing")
    on_y = [Fraction(rnd.randint(1, 9), rnd.randint(2, 5))]
    on_y += [Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)) or Fraction(1) for _ in range(5)]
    A = _fractional_datum(rnd, on_y)
    assert any(x.denominator > 1 for row in A.basis for x in row)
    points = [[x * 3 for x in on_y], on_y]
    for _ in range(6):
        points.append([Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)) or Fraction(1) for _ in range(6)])
    points.append([0, 0, Fraction(2, 3), Fraction(-1, 2), 5, 0])
    zeros = 0
    for v in points:
        for chart in [c for c in range(6) if v[c] != 0]:
            rows = pairing_entries(A, v, chart)
            expected = Matrix(QQ, [rows[i * 10 : (i + 1) * 10] for i in range(10)]).det()
            got = epw.pairing_det(A, v, chart)
            assert got == expected and type(got) is Fraction
            zeros += expected == 0
        assert epw.pairing_det(A, v) == epw.pairing_det(A, v, epw.chart_for(QQ, v))
    assert zeros == 12  # on_y and 3 on_y, on each of the six charts
    with pytest.raises(epw.ChartError):
        epw.pairing_det(A, points[-1], 0)
