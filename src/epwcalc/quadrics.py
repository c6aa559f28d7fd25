"""Webs of quadrics on a 3-dimensional projective space.

A web is a 4-dimensional linear system of symmetric 4x4 forms; its
singular members sweep a determinantal quartic whose singular points are
the rank <= 2 members (the adjugate kills the gradient there). Bitangent
point-pairs on a line in the base locus of a pencil come out of a single
binary quadratic.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

from .linalg import Matrix
from .scalars import PrimeField


class DegenerateWeb(ValueError):
    pass


class NoRationalRoots(ValueError):
    """The residual binary quadratic does not split over the base field."""


# -- small multivariate polynomials (exponent-tuple dicts) ------------------


def _mp_add(field, a, b):
    out = dict(a)
    for k, v in b.items():
        s = field.add(out.get(k, field.zero), v)
        if field.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _mp_mul(field, a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = field.add(out.get(k, field.zero), field.mul(va, vb))
            if field.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _mp_eval(field, poly, t):
    acc = field.zero
    for expo, c in poly.items():
        term = c
        for x, e in zip(t, expo):
            for _ in range(e):
                term = field.mul(term, x)
        acc = field.add(acc, term)
    return acc


def _mp_partial(field, poly, i):
    out = {}
    for expo, c in poly.items():
        if expo[i] == 0:
            continue
        k = tuple(e - (1 if j == i else 0) for j, e in enumerate(expo))
        out[k] = field.add(out.get(k, field.zero), field.mul(field.of(expo[i]), c))
    return {k: v for k, v in out.items() if not field.is_zero(v)}


class WebOfQuadrics:
    """Four linearly independent symmetric 4x4 forms Q0..Q3."""

    def __init__(self, field, qs):
        if len(qs) != 4:
            raise ValueError("a web needs four generators")
        self.field = field
        mats = []
        for q in qs:
            m = q if isinstance(q, Matrix) else Matrix(field, q)
            if m.nrows != 4 or m.ncols != 4 or m.rows != m.transpose().rows:
                raise ValueError("generators must be symmetric 4x4")
            mats.append(m)
        self.qs = tuple(mats)
        flat = [[x for row in m.rows for x in row] for m in mats]
        if Matrix(field, flat, ncols=16).rank() != 4:
            raise DegenerateWeb("generators are linearly dependent")

    def member(self, t) -> Matrix:
        F = self.field
        t = [F.of(x) for x in t]
        return Matrix(F, [F.lincomb(t, rows) for rows in zip(*(q.rows for q in self.qs))])


def member_rank(web: WebOfQuadrics, t) -> int:
    F = web.field
    t = [F.of(x) for x in t]
    if all(F.is_zero(x) for x in t):
        raise ValueError("zero parameter point")
    return web.member(t).rank()


def quartic_surface(web: WebOfQuadrics):
    """Full expansion of det(sum t_i Q_i) as a polynomial in t0..t3;
    raises on an identically zero determinant."""
    F = web.field
    # each entry of the member matrix is a linear form in t
    lin = [
        [
            {tuple(1 if k == a else 0 for k in range(4)): web.qs[a].rows[i][j] for a in range(4)}
            for j in range(4)
        ]
        for i in range(4)
    ]
    for i in range(4):
        for j in range(4):
            lin[i][j] = {k: v for k, v in lin[i][j].items() if not F.is_zero(v)}
    total = {}
    from itertools import permutations

    for perm in permutations(range(4)):
        sign = 1
        for a, b in combinations(range(4), 2):
            if perm[a] > perm[b]:
                sign = -sign
        term = {(0, 0, 0, 0): F.one}
        for i in range(4):
            term = _mp_mul(F, term, lin[i][perm[i]])
        if sign < 0:
            term = {k: F.neg(v) for k, v in term.items()}
        total = _mp_add(F, total, term)
    if not total:
        raise DegenerateWeb("determinant vanishes identically")
    return total


def quartic_gradient(web: WebOfQuadrics):
    poly = quartic_surface(web)
    return [_mp_partial(web.field, poly, i) for i in range(4)]


def _compile_cubics(polys):
    """Homogeneous cubics in t0..t3 over F_p as (monomials, rows): the
    monomials t_i t_j t_k (i <= j <= k) that occur in any of them, as index
    triples, and each cubic's coefficients against those, for
    `_cubic_values`."""

    def triple(expo):
        return tuple(i for i, e in enumerate(expo) for _ in range(e))

    monos = sorted({triple(expo) for poly in polys for expo in poly})
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for poly in polys:
        row = [0] * len(monos)
        for expo, c in poly.items():
            row[index[triple(expo)]] = c
        rows.append(row)
    return monos, rows


def _cubic_values(compiled, t, p):
    """The compiled cubics at the integer point t, mod p: their shared
    monomials once, then one dot product per cubic."""
    monos, rows = compiled
    vals = [t[i] * t[j] * t[k] for i, j, k in monos]
    return [sum(map(mul, row, vals)) % p for row in rows]


def adjugate(m: Matrix) -> Matrix:
    """Classical adjoint: adj(M)[j][i] = (-1)^{i+j} det(minor_ij)."""
    F = m.field
    n = m.nrows
    out = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [
                [m.rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            d = Matrix(F, sub).det()
            out[j][i] = d if (i + j) % 2 == 0 else F.neg(d)
    return Matrix(F, out)


def harris_tu_degree(n: int, r: int) -> int:
    """Degree of the rank <= r locus of symmetric n x n forms:
    prod_{a=0}^{n-r-1} C(n+a, n-r-a) / C(2a+1, a)."""
    if not 0 <= r < n:
        raise ValueError("need 0 <= r < n")
    val = Fraction(1)
    for a in range(n - r):
        val *= Fraction(comb(n + a, n - r - a), comb(2 * a + 1, a))
    assert val.denominator == 1
    return int(val)


def bilinear(field, q: Matrix, x, y):
    """x^T q y."""
    x, y = [field.of(a) for a in x], [field.of(b) for b in y]
    return field.dot(field.lincomb(x, q.rows), y)


def quadric_contains_line(field, q: Matrix, r0, r1) -> bool:
    return all(
        field.is_zero(bilinear(field, q, a, b))
        for a, b in ((r0, r0), (r0, r1), (r1, r1))
    )


def _binary_quadratic_roots(field, alpha, beta, gamma):
    """Projective roots of alpha s0^2 + beta s0 s1 + gamma s1^2.

    Returns ((s0, s1), (s0, s1), is_double); raises NoRationalRoots when the
    discriminant is not a square, DegenerateWeb when identically zero.
    """
    F = field
    if all(F.is_zero(x) for x in (alpha, beta, gamma)):
        raise DegenerateWeb("residual binary form vanishes identically")
    if F.is_zero(alpha):
        # (1:0) is a root; the other from beta s0 + gamma s1 = 0
        if F.is_zero(beta):
            return (F.one, F.zero), (F.one, F.zero), True
        return (F.one, F.zero), (F.neg(F.div(gamma, beta)), F.one), False
    disc = F.sub(F.mul(beta, beta), F.mul(F.of(4), F.mul(alpha, gamma)))
    root = F.sqrt(disc)
    if root is None:
        raise NoRationalRoots("discriminant is not a square in the field")
    two_a = F.mul(F.of(2), alpha)
    s_plus = F.div(F.add(F.neg(beta), root), two_a)
    s_minus = F.div(F.sub(F.neg(beta), root), two_a)
    return (s_plus, F.one), (s_minus, F.one), F.is_zero(disc)


def _point_on_line(field, r0, r1, s):
    return tuple(field.lincomb(s, ([field.of(a) for a in r0], [field.of(b) for b in r1])))


def _canonical_point(field, pt):
    lead = next((x for x in pt if not field.is_zero(x)), None)
    if lead is None:
        raise ValueError("zero point")
    inv = field.inv(lead)
    return tuple(field.mul(inv, x) for x in pt)


@dataclass(frozen=True)
class BitangentPair:
    x: tuple
    y: tuple
    tangent: bool  # double-point case


def bitangent_pair(web: WebOfQuadrics, pencil, line, completion=None) -> BitangentPair:
    """The unordered point pair {x, y} on the line satisfying the bilinear
    condition for every member of the web.

    `pencil` holds two members vanishing on the line (checked); their
    conditions are automatic there, and the two completing generators cut a
    binary quadratic whose roots are the pair. A double root is flagged as
    a tangency; an identically zero residual system is an error.
    """
    F = web.field
    r0, r1 = line
    qa, qb = pencil
    for q in (qa, qb):
        if not quadric_contains_line(F, q, r0, r1):
            raise ValueError("pencil member does not vanish on the line")
    if completion is None:
        flat_pencil = [[x for row in q.rows for x in row] for q in (qa, qb)]
        completion = []
        for q in web.qs:
            cand = flat_pencil + [[x for row in m.rows for x in row] for m in completion]
            cand.append([x for row in q.rows for x in row])
            if Matrix(F, cand, ncols=16).rank() == len(cand):
                completion.append(q)
            if len(completion) == 2:
                break
        if len(completion) != 2:
            raise DegenerateWeb("pencil does not extend to the web")
    qc, qd = completion
    c00, c01, c11 = (
        bilinear(F, qc, r0, r0),
        bilinear(F, qc, r0, r1),
        bilinear(F, qc, r1, r1),
    )
    d00, d01, d11 = (
        bilinear(F, qd, r0, r0),
        bilinear(F, qd, r0, r1),
        bilinear(F, qd, r1, r1),
    )
    alpha = F.sub(F.mul(c00, d01), F.mul(c01, d00))
    beta = F.sub(
        F.add(F.mul(c00, d11), F.mul(c01, d01)),
        F.add(F.mul(c01, d01), F.mul(c11, d00)),
    )
    gamma = F.sub(F.mul(c01, d11), F.mul(c11, d01))
    s1, s2, double = _binary_quadratic_roots(F, alpha, beta, gamma)
    x = _canonical_point(F, _point_on_line(F, r0, r1, s1))
    y = _canonical_point(F, _point_on_line(F, r0, r1, s2))
    for q in web.qs:
        if not F.is_zero(bilinear(F, q, x, y)):
            raise DegenerateWeb("computed pair fails a generator condition")
    return BitangentPair(x, y, double)


def veronese_independence(field, points) -> int:
    """Rank of the degree-2 monomial vectors of the points (10 monomials)."""
    monos = [(i, j) for i in range(4) for j in range(i, 4)]
    rows = []
    for pt in points:
        v = [field.of(x) for x in pt]
        if all(field.is_zero(x) for x in v):
            raise ValueError("zero point")
        rows.append([field.mul(v[i], v[j]) for i, j in monos])
    return Matrix(field, rows, ncols=10).rank()


def _det4(a):
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


def _rank3_minor(a, p):
    """True when a principal 3x3 minor of the flat symmetric 4x4 integer
    matrix a is nonzero mod p. When det a = 0 mod p that is exactly rank 3:
    at rank 3, adj a = c.x.x^T with c != 0 and x != 0 spanning the kernel,
    so some diagonal entry, a principal minor c.x_i^2, is nonzero; at
    rank <= 2 every 3x3 minor vanishes."""
    a0, a1, a2, a3, _, a5, a6, a7, _, _, a10, a11, _, _, _, a15 = a
    # det [[d1, x, y], [x, d2, z], [y, z, d3]] = d1 d2 d3 + 2xyz - d1 z^2 - d2 y^2 - d3 x^2
    return bool(
        (a5 * a10 * a15 + 2 * a6 * a7 * a11 - a5 * a11 * a11 - a10 * a7 * a7 - a15 * a6 * a6) % p
        or (a0 * a10 * a15 + 2 * a2 * a3 * a11 - a0 * a11 * a11 - a10 * a3 * a3 - a15 * a2 * a2) % p
        or (a0 * a5 * a15 + 2 * a1 * a3 * a7 - a0 * a7 * a7 - a5 * a3 * a3 - a15 * a1 * a1) % p
        or (a0 * a5 * a10 + 2 * a1 * a2 * a6 - a0 * a6 * a6 - a5 * a2 * a2 - a10 * a1 * a1) % p
    )


@dataclass(frozen=True)
class ScanCensus:
    prime: int
    rank_counts: dict
    rank3_singular: int
    rank2_nonsingular: int  # always 0: the adjugate argument

    def is_generic(self) -> bool:
        return self.rank3_singular == 0

    def json_rows(self):
        return [{"rank": r, "count": self.rank_counts.get(r, 0)} for r in range(5)]


# the largest p field_scan accepts: a scan visits p^3 + p^2 + p + 1 points
SCAN_MAX_PRIME = 127


def field_scan(web: WebOfQuadrics) -> ScanCensus:
    """Tallies the member ranks over every point of the projective parameter
    space over F_p, and checks that every rank <= 2 point is a singular point
    of the quartic. Guarded to p <= SCAN_MAX_PRIME = 127, where one scan of a
    diagonal or random web takes 1.0-1.2 s CPU (0.6-0.8 s at p = 101 and
    0.21-0.26 s at the quadrics suite's p = 61; CPython 3.11 on a 2-vCPU
    x86_64 VM); the time grows as p^3.

    On each affine line (1, b, c, d), (0, 1, c, d) and (0, 0, 1, d),
    det(base + d*f3) is a quartic in d: its values at d = 0..4 (on integers)
    step through d < p by four forward differences. Only members where it
    vanishes mod p are built and ranked; the rest of the line has rank 4.
    A singular member has rank 3 when a principal 3x3 minor is nonzero
    (`_rank3_minor`); only the members where all four vanish are eliminated,
    so ranks 0, 1 and 2 do not rest on the gradient cubics.
    The one point left, (0, 0, 0, 1), is the member f3. At a rank <= 3
    member the four gradient cubics of the expanded quartic, compiled once
    against the (at most 20) monomials they share, are one dot product each."""
    F = web.field
    if not isinstance(F, PrimeField):
        raise ValueError("field scan needs a prime-field context")
    p = F.p
    if p > SCAN_MAX_PRIME:
        raise ValueError(f"scan guard: p = {p} > {SCAN_MAX_PRIME}")
    grads = _compile_cubics(quartic_gradient(web))
    from .fpkernel import fp_rank

    f0, f1, f2, f3 = ([x for row in q.rows for x in row] for q in web.qs)
    counts = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
    rank3_singular = 0
    rank2_nonsingular = 0

    def visit_singular(t, flat):
        """Tally the member with flat (unreduced) entries at the point t,
        where its determinant vanishes mod p."""
        nonlocal rank3_singular, rank2_nonsingular
        r = 3 if _rank3_minor(flat, p) else fp_rank(flat, 4, 4, p)
        counts[r] += 1
        if r <= 3:
            singular = not any(_cubic_values(grads, t, p))
            if r <= 2:
                if not singular:
                    rank2_nonsingular += 1
            elif singular:
                rank3_singular += 1

    def scan_line(head, base):
        """The p members base + d*f3 at the points head + (d,)."""
        # forward differences of the quartic det(base + d*f3) at d = 0
        diffs = [_det4([x + d * w for x, w in zip(base, f3)]) for d in range(5)]
        for k in range(1, 5):
            for i in range(4, k - 1, -1):
                diffs[i] -= diffs[i - 1]
        v, d1, d2, d3, d4 = diffs
        zeros = 0
        for d in range(p):
            if v % p == 0:
                zeros += 1
                visit_singular((*head, d), [x + d * w for x, w in zip(base, f3)])
            v += d1
            d1 += d2
            d2 += d3
            d3 += d4
        counts[4] += p - zeros

    for b in range(p):
        for c in range(p):
            scan_line((1, b, c), [x + b * y + c * z for x, y, z in zip(f0, f1, f2)])
    for c in range(p):
        scan_line((0, 1, c), [y + c * z for y, z in zip(f1, f2)])
    scan_line((0, 0, 1), f2)
    if _det4(f3) % p:
        counts[4] += 1
    else:
        visit_singular((0, 0, 0, 1), f3)

    assert rank2_nonsingular == 0, "rank <= 2 point with nonzero gradient"
    return ScanCensus(p, counts, rank3_singular, rank2_nonsingular)
