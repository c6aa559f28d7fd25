from collections import Counter
from fractions import Fraction
from itertools import combinations, count, permutations

import pytest

from epwcalc import fpkernel, linalg, quadrics, suites
from epwcalc.fpkernel import fp_rank
from epwcalc.linalg import Matrix, adjugate_traces
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


def zero_block_web(field, rnd):
    """A web whose generators all vanish at e0: (1, 0, 0, 0) is a base point."""
    while True:
        try:
            return quadrics.WebOfQuadrics(field, [suites._random_symmetric(field, rnd, 1) for _ in range(4)])
        except quadrics.DegenerateWeb:
            continue


def quartic_by_permutations(web):
    """det(sum t_i Q_i) expanded over the 24 permutations, each a product of
    four linear forms: the reference for `quartic_surface`."""
    F = web.field

    def times(a, b):
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = F.add(out.get(k, F.zero), F.mul(va, vb))
        return out

    units = [tuple(int(k == a) for k in range(4)) for a in range(4)]
    total = {}
    for perm in permutations(range(4)):
        term = {(0, 0, 0, 0): F.one}
        for i in range(4):
            term = times(term, {units[a]: q.rows[i][perm[i]] for a, q in enumerate(web.qs)})
        odd = sum(perm[a] > perm[b] for a, b in combinations(range(4), 2)) % 2
        for k, v in term.items():
            total[k] = F.add(total.get(k, F.zero), F.neg(v) if odd else v)
    return {k: v for k, v in total.items() if not F.is_zero(v)}


@pytest.mark.parametrize("field", [GF(61), GF(10007), QQ], ids=["GF61", "GF10007", "QQ"])
def test_quartic_surface_equals_the_permutation_expansion(field):
    rnd = derive_rng(13, "quartic.minors")
    webs = [diagonal_web(field)]
    webs += [random_web(field, rnd) for _ in range(3)]
    webs += [zero_block_web(field, rnd) for _ in range(3)]
    for web in webs:
        assert quadrics.quartic_surface(web) == quartic_by_permutations(web)


def test_degenerate_web_detection():
    qs = [Matrix(QQ, [[1 if i == j else 0 for j in range(4)] for i in range(4)])] * 3
    with pytest.raises(quadrics.DegenerateWeb):
        quadrics.WebOfQuadrics(QQ, qs + [qs[0]])
    # independent generators but identically zero determinant
    def e(field, i, j):
        rows = [[0] * 4 for _ in range(4)]
        rows[i][j] = rows[j][i] = 1
        return Matrix(field, rows)

    for field in (QQ, GF(61)):
        thin = quadrics.WebOfQuadrics(field, [e(field, 0, 0), e(field, 0, 1), e(field, 1, 1), e(field, 0, 2)])
        assert quartic_by_permutations(thin) == {}
        with pytest.raises(quadrics.DegenerateWeb):
            quadrics.quartic_surface(thin)


def test_adjugate_gradient_identity(rng):
    web = random_web(F, derive_rng(2, "webgrad"))
    grads = quadrics.quartic_gradient(web)
    for _ in range(12):
        t = [F.random(rng) for _ in range(4)]
        traces = adjugate_traces(web.member(t), [[x for row in q.rows for x in row] for q in web.qs])
        for i in range(4):
            assert quadrics._mp_eval(F, grads[i], t) == traces[i]


def test_adjugate_of_rank_le_2_vanishes():
    m = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    # the identity and the all-ones matrix, flat
    assert adjugate_traces(m, [[int(k % 5 == 0) for k in range(16)], [1] * 16]) == (0, 0)


def bitangent_fixture(field, rnd):
    """A web whose first two generators vanish on the line t2 = t3 = 0."""
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
    return quadrics.WebOfQuadrics(field, qs)


def test_bitangent_pair_satisfies_all_conditions():
    rnd = derive_rng(3, "bit")
    produced = 0
    while produced < 12:
        try:
            web = bitangent_fixture(F, rnd)
            pair = quadrics.bitangent_pair(web)
        except (quadrics.NoRationalRoots, quadrics.DegenerateWeb):
            continue
        produced += 1
        for q in web.qs:
            assert F.is_zero(quadrics.bilinear(F, q, pair.x, pair.y))
            assert F.is_zero(quadrics.bilinear(F, q, pair.y, pair.x))


def test_one_bitangent_pair_makes_no_fp_elimination(monkeypatch):
    """Q2 and Q3 cut the residual quadratic: the call ranks no stack of
    generators, so it makes no F_p elimination."""
    web = bitangent_fixture(F, derive_rng(3, "bit.count"))
    calls = Counter()
    for owner, name in ((linalg, "fp_rank"), (fpkernel, "fp_rank"), (fpkernel, "_forward")):
        fn = getattr(owner, name)

        def counted(*args, key=f"{owner.__name__}.{name}", fn=fn):
            calls[key] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)
    pair = quadrics.bitangent_pair(web)
    assert not calls
    assert all(F.is_zero(quadrics.bilinear(F, q, pair.x, pair.y)) for q in web.qs)


def test_bitangent_pair_over_qq():
    rnd = derive_rng(258, "bitqq")
    for attempt in range(4000):
        try:
            web = bitangent_fixture(QQ, derive_rng(attempt, "bitqq"))
            pair = quadrics.bitangent_pair(web)
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
        quadrics.bitangent_pair(web)


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


def det4(a):
    """Determinant of a flat row-major 4x4 integer matrix: Laplace expansion
    along the first two rows, 2x2 minors times their complements."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    return (
        (a0 * a5 - a1 * a4) * (a10 * a15 - a11 * a14)
        - (a0 * a6 - a2 * a4) * (a9 * a15 - a11 * a13)
        + (a0 * a7 - a3 * a4) * (a9 * a14 - a10 * a13)
        + (a1 * a6 - a2 * a5) * (a8 * a15 - a11 * a12)
        - (a1 * a7 - a3 * a5) * (a8 * a14 - a10 * a12)
        + (a2 * a7 - a3 * a6) * (a8 * a13 - a9 * a12)
    )


def test_det4_matches_the_kernel_det():
    from epwcalc.fpkernel import fp_det

    rnd = derive_rng(11, "det4")
    for p in (61, 10007):
        for k in range(200):
            a = [rnd.randrange(-3 * p, 3 * p) for _ in range(16)]
            if k % 4 == 0:  # a repeated row: singular
                a[4:8] = a[0:4]
            assert det4(a) % p == fp_det(a, 4, p)


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
        assert bool(det4(a) % p or quadrics._rank3_minor(a, p)) == (rank >= 3)
        if rank <= 3:
            assert quadrics._rank3_minor(a, p) == (rank == 3)
    assert seen == {0, 1, 2, 3, 4}
    # rank 4 with every principal 3x3 minor zero: two hyperbolic planes
    hyp = [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0]
    assert fp_rank(hyp, 4, 4, p) == 4 and not quadrics._rank3_minor(hyp, p)


@pytest.mark.parametrize("p", [3, 5, 13])  # at p = 3 a plane has 9 points, fewer than a quartic has terms
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


def line_scan_reference(web):
    """The census by the line-at-a-time scan: on each affine line (1, b, c, d),
    (0, 1, c, d) and (0, 0, 1, d), det(base + d*f3) is a quartic in d that
    four forward differences step through d < p, and each member where it
    vanishes mod p is ranked and its gradient tested; then (0, 0, 0, 1)."""
    F = web.field
    p = F.p
    grads = quadrics.quartic_gradient(web)
    f0, f1, f2, f3 = ([x for row in q.rows for x in row] for q in web.qs)
    counts = {r: 0 for r in range(5)}
    rank3_singular = rank2_nonsingular = 0

    def visit_singular(t, flat):
        nonlocal rank3_singular, rank2_nonsingular
        r = 3 if quadrics._rank3_minor(flat, p) else fp_rank(flat, 4, 4, p)
        counts[r] += 1
        if r <= 3:
            singular = not any(quadrics._mp_eval(F, g, t) for g in grads)
            if r <= 2:
                rank2_nonsingular += not singular
            else:
                rank3_singular += singular

    def scan_line(head, base):
        diffs = [det4([x + d * w for x, w in zip(base, f3)]) for d in range(5)]
        for k in range(1, 5):
            for i in range(4, k - 1, -1):
                diffs[i] -= diffs[i - 1]
        v, d1, d2, d3, d4 = diffs
        for d in range(p):
            if v % p == 0:
                visit_singular((*head, d), [x + d * w for x, w in zip(base, f3)])
            else:
                counts[4] += 1
            v, d1, d2, d3 = v + d1, d1 + d2, d2 + d3, d3 + d4

    for b in range(p):
        for c in range(p):
            scan_line((1, b, c), [x + b * y + c * z for x, y, z in zip(f0, f1, f2)])
    for c in range(p):
        scan_line((0, 1, c), [y + c * z for y, z in zip(f1, f2)])
    scan_line((0, 0, 1), f2)
    if det4(f3) % p:
        counts[4] += 1
    else:
        visit_singular((0, 0, 0, 1), f3)
    return quadrics.ScanCensus(p, counts, rank3_singular, rank2_nonsingular)


@pytest.mark.parametrize("p", [17, 19, 23, 61])
def test_field_scan_equals_the_line_scan(p):
    """Diagonal, random and zero-block webs. A zero-block web has the base
    point e0, so the member that kills e0 is a singular point of the
    quartic: at p = 61 it has rank 3 in three of the four, which covers the
    rank-3 singular branch, and rank 2 in the fourth."""
    field = GF(p)
    rnd = derive_rng(p, "scan.reference")
    webs = [diagonal_web(field)] + [random_web(field, rnd) for _ in range(2 if p == 61 else 4)]
    blocks = [zero_block_web(field, derive_rng(seed, "scan.zero_block")) for seed in range(4)]
    for web in webs + blocks:
        assert quadrics.field_scan(web) == line_scan_reference(web)
    if p == 61:
        assert [quadrics.field_scan(web).rank3_singular for web in blocks] == [1, 1, 0, 1]


@pytest.mark.parametrize("p", [17, quadrics.SCAN_MAX_PRIME])
def test_slot_reduction_is_exact_at_the_largest_slot_value(p):
    slots = quadrics._Slots(p, p * p)
    top = 15 * (p - 1) ** 2
    values = [top - k for k in range(p * p)]
    assert slots.residues(slots.pack(values)) == bytes(v % p for v in values)
    # of several values the OR of the residues, 0 exactly where all are 0; at
    # p = 127 a sum would not be: 87 + 87 + 82 = 256 has a zero low byte
    lower = slots.pack(v - 5 for v in values)
    assert slots.residues(slots.pack(values), slots.pack(values), lower) == bytes(v % p | (v - 5) % p for v in values)
    # every table, every coefficient p - 1: the quartic of a plane at its largest
    monos = [(i, j) for i in range(5) for j in range(5 - i)]
    tables = quadrics._plane_tables(slots, monos)
    got = slots.residues(sum((p - 1) * tables[m] for m in monos))
    want = bytes(sum((p - 1) * c**i * d**j for i, j in monos) % p for c in range(p) for d in range(p))
    assert got == want


def test_field_scan_ranks_only_the_points_of_the_quartic(monkeypatch):
    """Python work goes to the points of the surface: on the p + 1 affine
    planes `_rank3_minor` runs once at each point where the determinant
    vanishes, and at no other, and `fp_rank` only where it finds no nonzero
    minor; each of the p + 1 members of the line at infinity is ranked by
    `fp_rank` once."""
    p = 61
    minors, ranks = [], []
    rank3_minor, kernel_rank = quadrics._rank3_minor, fpkernel.fp_rank
    monkeypatch.setattr(quadrics, "_rank3_minor", lambda a, p: minors.append(rank3_minor(a, p)) or minors[-1])
    monkeypatch.setattr(fpkernel, "fp_rank", lambda a, m, n, p: ranks.append(1) or kernel_rank(a, m, n, p))
    for web in (diagonal_web(GF(p)), random_web(GF(p), derive_rng(7, "scan.calls"))):
        line = [(0, 0, 1, d) for d in range(p)] + [(0, 0, 0, 1)]
        line_singular = sum(member_rank(web, t) < 4 for t in line)
        minors.clear()
        ranks.clear()
        census = quadrics.field_scan(web)
        assert len(minors) == sum(census.rank_counts[r] for r in range(4)) - line_singular
        assert len(ranks) - minors.count(False) == p + 1


@pytest.mark.parametrize("p", [13, 61])
def test_packed_plane_values_equal_mp_eval(p):
    """The quartic and its four gradient cubics, packed over the planes
    (1, b) and (0, 1), reduce to their values by `_mp_eval` at every point of
    the plane: at p = 13 on all p + 1 planes, at p = 61 on the planes
    (1, p - 1), where b has its largest powers, and (0, 1)."""
    field = GF(p)
    rnd = derive_rng(12, "cubics")
    slots = quadrics._Slots(p, p * p)
    heads = [(1, b) for b in range(p)] + [(0, 1)]
    checked = range(p + 1) if p == 13 else (p - 1, p)
    for web in (diagonal_web(field), random_web(field, rnd)):
        forms = [quadrics.quartic_surface(web), *quadrics.quartic_gradient(web)]
        planes = list(quadrics._plane_values(slots, forms, forms))
        assert len(planes) == p + 1
        for k in checked:
            got = [slots.residues(v) for v in planes[k]]
            points = [(*heads[k], c, d) for c in range(p) for d in range(p)]
            assert got == [bytes(quadrics._mp_eval(field, f, t) for t in points) for f in forms]


@pytest.mark.parametrize("p", [13, 61])
def test_three_packed_partials_find_the_singular_points(p):
    """By Euler, 4f = sum t_i d_i f, the scan packs three partials per plane:
    d_1, d_2, d_3 on (1, b) and d_0, d_2, d_3 on (0, 1). On every plane of a
    random web and of a zero-block web, which has a singular point, they
    vanish at a zero of the quartic exactly where all four partials by
    `_mp_eval` do."""
    field = GF(p)
    rnd = derive_rng(p, "euler")
    slots = quadrics._Slots(p, p * p)
    heads = [(1, b) for b in range(p)] + [(0, 1)]
    singular = 0
    for web in (random_web(field, rnd), zero_block_web(field, rnd)):
        f = quadrics.quartic_surface(web)
        grads = quadrics.quartic_gradient(web)
        planes = quadrics._plane_values(slots, [f, *grads[1:]], [f, grads[0], *grads[2:]])
        for head, values in zip(heads, planes):
            quartic, gradient = slots.residues(values[0]), slots.residues(*values[1:])
            for k in (k for k in range(p * p) if quartic[k] == 0):
                t = (*head, *divmod(k, p))
                assert (gradient[k] == 0) == all(quadrics._mp_eval(field, g, t) == 0 for g in grads)
                singular += gradient[k] == 0
    assert singular


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


def test_binary_quadratic_roots():
    double = quadrics._binary_quadratic_roots(QQ, Fraction(1), Fraction(-2), Fraction(1))
    assert double == ((1, 1), (1, 1))
    lin = quadrics._binary_quadratic_roots(QQ, Fraction(0), Fraction(1), Fraction(-3))
    assert lin == ((1, 0), (3, 1))
    with pytest.raises(quadrics.NoRationalRoots):
        quadrics._binary_quadratic_roots(QQ, Fraction(1), Fraction(0), Fraction(1))
    with pytest.raises(quadrics.DegenerateWeb):
        quadrics._binary_quadratic_roots(QQ, Fraction(0), Fraction(0), Fraction(0))


def test_bitangent_residual_identically_zero_is_reported():
    rnd = derive_rng(7, "allvanish")
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
        quadrics.bitangent_pair(web)
