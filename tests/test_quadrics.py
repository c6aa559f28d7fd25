from fractions import Fraction
from itertools import count

import pytest

from epwcalc import quadrics
from epwcalc.linalg import Matrix
from epwcalc.rng import derive_rng
from epwcalc.scalars import GF, QQ, is_prime

F = GF(10007)


def random_web(field, rnd):
    while True:
        qs = []
        for _ in range(4):
            m = [[field.zero] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    m[i][j] = m[j][i] = field.random(rnd)
            qs.append(Matrix(field, m))
        try:
            return quadrics.WebOfQuadrics(field, qs)
        except quadrics.DegenerateWeb:
            continue


def member_rank(web, t):
    """The rank of the member sum t_i Q_i, by one elimination: the reference
    that the field scan's census is compared with."""
    F = web.field
    t = [F.of(x) for x in t]
    if all(F.is_zero(x) for x in t):
        raise ValueError("zero parameter point")
    return web.member(t).rank()


def diagonal_web(field):
    qs = []
    for k in range(4):
        rows = [[field.zero] * 4 for _ in range(4)]
        rows[k][k] = field.one
        qs.append(Matrix(field, rows))
    return quadrics.WebOfQuadrics(field, qs)


def test_harris_tu_values():
    assert quadrics.harris_tu_degree(4, 2) == 10
    assert quadrics.harris_tu_degree(4, 3) == 4
    assert quadrics.harris_tu_degree(3, 1) == 4
    for n in range(2, 7):
        assert quadrics.harris_tu_degree(n, n - 1) == n
    with pytest.raises(ValueError):
        quadrics.harris_tu_degree(3, 3)


def test_harris_tu_veronese_oracle():
    """Independent point-count oracle for the rank-1 locus of 3x3 forms.

    The locus is parametrized by squares; its degree is the number of
    common zeros of two generic hyperplane sections, i.e. of two conics in
    the parametrizing plane. Scan a small prime plane for a seed where all
    four are rational and distinct.
    """
    p = 101
    Fp = GF(p)
    for attempt in range(200):
        rnd = derive_rng(attempt, "veronese.oracle")
        conics = []
        for _ in range(2):
            cs = [rnd.randrange(p) for _ in range(6)]
            conics.append(cs)

        def conic_val(cs, x, y, z):
            monos = (x * x, x * y, x * z, y * y, y * z, z * z)
            return sum(c * m for c, m in zip(cs, monos)) % p

        points = []
        for x, y, z in _proj_plane_points(p):
            if conic_val(conics[0], x, y, z) == 0 and conic_val(conics[1], x, y, z) == 0:
                points.append((x, y, z))
        if len(points) == 4:
            assert quadrics.harris_tu_degree(3, 1) == len(points)
            return
    pytest.fail("no fully split section found in the seed budget")


def _proj_plane_points(p):
    for y in range(p):
        for z in range(p):
            yield (1, y, z)
    for z in range(p):
        yield (0, 1, z)
    yield (0, 0, 1)


def test_member_rank_examples():
    web = diagonal_web(QQ)
    assert member_rank(web, (1, 1, 0, 0)) == 2
    assert member_rank(web, (1, 1, 1, 1)) == 4
    with pytest.raises(ValueError):
        member_rank(web, (0, 0, 0, 0))


def test_quartic_surface_diagonal():
    web = diagonal_web(QQ)
    poly = quadrics.quartic_surface(web)
    assert poly == {(1, 1, 1, 1): Fraction(1)}


def test_quartic_surface_matches_member_det(rng):
    web = random_web(F, derive_rng(1, "web"))
    poly = quadrics.quartic_surface(web)
    for _ in range(50):
        t = [F.random(rng) for _ in range(4)]
        assert quadrics._mp_eval(F, poly, t) == web.member(t).det()


def test_degenerate_web_detection():
    qs = [Matrix(QQ, [[1 if i == j else 0 for j in range(4)] for i in range(4)])] * 3
    with pytest.raises(quadrics.DegenerateWeb):
        quadrics.WebOfQuadrics(QQ, qs + [qs[0]])
    # independent generators but identically zero determinant
    def e(i, j):
        rows = [[0] * 4 for _ in range(4)]
        rows[i][j] = rows[j][i] = 1
        return Matrix(QQ, rows)

    thin = quadrics.WebOfQuadrics(QQ, [e(0, 0), e(0, 1), e(1, 1), e(0, 2)])
    with pytest.raises(quadrics.DegenerateWeb):
        quadrics.quartic_surface(thin)


def test_adjugate_gradient_identity(rng):
    web = random_web(F, derive_rng(2, "webgrad"))
    grads = quadrics.quartic_gradient(web)
    for _ in range(12):
        t = [F.random(rng) for _ in range(4)]
        adj = quadrics.adjugate(web.member(t))
        for i in range(4):
            prod = adj.mul(web.qs[i])
            trace = F.zero
            for d in range(4):
                trace = F.add(trace, prod.rows[d][d])
            assert quadrics._mp_eval(F, grads[i], t) == trace


def test_adjugate_of_rank_le_2_vanishes():
    m = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    adj = quadrics.adjugate(m)
    assert all(x == 0 for row in adj.rows for x in row)


def bitangent_fixture(field, rnd):
    r0, r1 = (1, 0, 0, 0), (0, 1, 0, 0)
    qs = []
    for _ in range(2):
        m = [[field.zero] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                if i < 2 and j < 2:
                    continue
                m[i][j] = m[j][i] = field.random(rnd)
        qs.append(Matrix(field, m))
    for _ in range(2):
        m = [[field.zero] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                m[i][j] = m[j][i] = field.random(rnd)
        qs.append(Matrix(field, m))
    web = quadrics.WebOfQuadrics(field, qs)
    return web, (qs[0], qs[1]), (r0, r1)


def test_bitangent_pair_satisfies_all_conditions():
    rnd = derive_rng(3, "bit")
    produced = 0
    while produced < 12:
        try:
            web, pencil, line = bitangent_fixture(F, rnd)
            pair = quadrics.bitangent_pair(web, pencil, line)
        except (quadrics.NoRationalRoots, quadrics.DegenerateWeb):
            continue
        produced += 1
        for q in web.qs:
            assert F.is_zero(quadrics.bilinear(F, q, pair.x, pair.y))
            assert F.is_zero(quadrics.bilinear(F, q, pair.y, pair.x))


def test_bitangent_pair_over_qq():
    rnd = derive_rng(258, "bitqq")
    for attempt in range(4000):
        try:
            web, pencil, line = bitangent_fixture(QQ, derive_rng(attempt, "bitqq"))
            pair = quadrics.bitangent_pair(web, pencil, line)
        except (quadrics.NoRationalRoots, quadrics.DegenerateWeb):
            continue
        for q in web.qs:
            assert quadrics.bilinear(QQ, q, pair.x, pair.y) == 0
        return
    pytest.fail("no rational fixture found")


def test_bitangent_pair_requires_line_in_base_locus():
    rnd = derive_rng(4, "bitpre")
    web = random_web(F, rnd)
    with pytest.raises(ValueError):
        quadrics.bitangent_pair(web, (web.qs[0], web.qs[1]), ((1, 0, 0, 0), (0, 1, 0, 0)))


def test_veronese_independence():
    rnd = derive_rng(5, "ver")
    pts = [[F.random(rnd) for _ in range(4)] for _ in range(10)]
    assert quadrics.veronese_independence(F, pts) == 10
    more = pts + [[F.random(rnd) for _ in range(4)]]
    assert quadrics.veronese_independence(F, more) <= 10
    on_quadric = [[1, a, a * a % 10007, 0] for a in range(2, 12)]
    assert quadrics.veronese_independence(F, on_quadric) <= 9
    with pytest.raises(ValueError):
        quadrics.veronese_independence(F, [[0, 0, 0, 0]])


def test_field_scan_diagonal_census():
    p = 41
    census = quadrics.field_scan(diagonal_web(GF(p)))
    assert census.rank_counts[1] == 4
    assert census.rank_counts[2] == 6 * (p - 1)
    assert census.rank_counts[1] + census.rank_counts[2] == 6 * p - 2
    assert census.rank_counts[0] == 0
    total = sum(census.rank_counts.values())
    assert total == p**3 + p**2 + p + 1
    assert census.rank2_nonsingular == 0
    rows = census.json_rows()
    assert rows[1] == {"rank": 1, "count": 4}


def test_field_scan_random_web():
    p = 41
    census = quadrics.field_scan(random_web(GF(p), derive_rng(6, "scan")))
    assert census.rank2_nonsingular == 0
    # rank-3 points approximate the quartic surface point count ~ p^2
    assert abs(census.rank_counts[3] - p * p) <= 40 * p


def test_det4_matches_the_kernel_det():
    from epwcalc.fpkernel import fp_det

    rnd = derive_rng(11, "det4")
    for p in (61, 10007):
        for k in range(200):
            a = [rnd.randrange(-3 * p, 3 * p) for _ in range(16)]
            if k % 4 == 0:  # a repeated row: singular
                a[4:8] = a[0:4]
            assert quadrics._det4(a) % p == fp_det(a, 4, p)


@pytest.mark.parametrize("p", [3, 61, 10007])
def test_rank3_minor_agrees_with_the_kernel_rank(p):
    from epwcalc.fpkernel import fp_rank

    rnd = derive_rng(12, "rank3")
    seen = set()
    for k in range(400):
        # a sum of r terms s.v.v^T: symmetric of rank at most r, unreduced
        r = k % 5
        a = [0] * 16
        for _ in range(r):
            v = [rnd.randrange(-p, 2 * p) for _ in range(4)]
            s = rnd.randrange(1, p)
            for i in range(4):
                for j in range(4):
                    a[4 * i + j] += s * v[i] * v[j]
        rank = fp_rank(a, 4, 4, p)
        seen.add(rank)
        # field_scan's test: det first, then the principal minors
        assert bool(quadrics._det4(a) % p or quadrics._rank3_minor(a, p)) == (rank >= 3)
        if rank <= 3:
            assert quadrics._rank3_minor(a, p) == (rank == 3)
    assert seen == {0, 1, 2, 3, 4}
    # rank 4 with every principal 3x3 minor zero: two hyperbolic planes
    hyp = [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0]
    assert fp_rank(hyp, 4, 4, p) == 4 and not quadrics._rank3_minor(hyp, p)


@pytest.mark.parametrize("p", [3, 5, 13])  # below 5 the sample abscissae d = 0..4 run past p
def test_field_scan_census_equals_member_ranks(p):
    web = random_web(GF(p), derive_rng(9, "scan"))
    census = quadrics.field_scan(web)
    points = [(1, b, c, d) for b in range(p) for c in range(p) for d in range(p)]
    points += [(0, 1, c, d) for c in range(p) for d in range(p)]
    points += [(0, 0, 1, d) for d in range(p)] + [(0, 0, 0, 1)]
    counts = {r: 0 for r in range(5)}
    for t in points:
        counts[member_rank(web, t)] += 1
    assert census.rank_counts == counts


@pytest.mark.parametrize("p", [13, 61])
def test_compiled_gradient_cubics_equal_mp_eval(p):
    field = GF(p)
    rnd = derive_rng(12, "cubics")
    for web in (diagonal_web(field), random_web(field, rnd)):
        grads = quadrics.quartic_gradient(web)
        compiled = quadrics._compile_cubics(grads)
        for _ in range(50):
            t = [rnd.randrange(p) for _ in range(4)]
            assert quadrics._cubic_values(compiled, t, p) == [quadrics._mp_eval(field, g, t) for g in grads]


def test_field_scan_guard():
    web = diagonal_web(GF(32771))
    with pytest.raises(ValueError):
        quadrics.field_scan(web)
    with pytest.raises(ValueError):
        quadrics.field_scan(diagonal_web(QQ))


def test_field_scan_guard_refuses_the_next_prime():
    p = next(q for q in count(quadrics.SCAN_MAX_PRIME + 1) if is_prime(q))
    assert p == 131
    with pytest.raises(ValueError, match="scan guard"):
        quadrics.field_scan(diagonal_web(GF(p)))


def test_member_rank_partial_diagonal_block():
    q0 = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    q1 = Matrix(QQ, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    q2 = Matrix(QQ, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    q3 = Matrix(QQ, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    web = quadrics.WebOfQuadrics(QQ, [q0, q1, q2, q3])
    assert member_rank(web, (1, 0, 0, 0)) == 2


def test_binary_quadratic_double_root_flag():
    roots = quadrics._binary_quadratic_roots(QQ, Fraction(1), Fraction(-2), Fraction(1))
    (s1, t1), (s2, t2), double = roots
    assert double and (s1, t1) == (s2, t2) == (1, 1)
    lin = quadrics._binary_quadratic_roots(QQ, Fraction(0), Fraction(1), Fraction(-3))
    assert lin[0] == (1, 0) and lin[1] == (3, 1) and not lin[2]
    with pytest.raises(quadrics.NoRationalRoots):
        quadrics._binary_quadratic_roots(QQ, Fraction(1), Fraction(0), Fraction(1))
    with pytest.raises(quadrics.DegenerateWeb):
        quadrics._binary_quadratic_roots(QQ, Fraction(0), Fraction(0), Fraction(0))


def test_bitangent_residual_identically_zero_is_reported():
    rnd = derive_rng(7, "allvanish")
    r0, r1 = (1, 0, 0, 0), (0, 1, 0, 0)
    while True:
        qs = []
        for _ in range(4):
            m = [[F.zero] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    if i < 2 and j < 2:
                        continue  # every generator vanishes on the line
                    m[i][j] = m[j][i] = F.random(rnd)
            qs.append(Matrix(F, m))
        try:
            web = quadrics.WebOfQuadrics(F, qs)
            break
        except quadrics.DegenerateWeb:
            continue
    with pytest.raises(quadrics.DegenerateWeb):
        quadrics.bitangent_pair(web, (qs[0], qs[1]), (r0, r1))
