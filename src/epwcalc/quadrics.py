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
from operator import add

from .linalg import Matrix
from .scalars import PrimeField


class DegenerateWeb(ValueError):
    pass


class NoRationalRoots(ValueError):
    """The residual binary quadratic does not split over the base field."""


# -- small multivariate polynomials (exponent-tuple dicts) ------------------


def _mp_mul(a, b):
    """The product of two polynomials on exact, unreduced coefficients."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            out[k] = out.get(k, 0) + va * vb
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
            m = q if isinstance(q, Matrix) else Matrix(field, [[field.of(x) for x in r] for r in q])
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


def quartic_surface(web: WebOfQuadrics):
    """Full expansion of det(sum t_i Q_i) as a polynomial in t0..t3, by
    Laplace expansion along the first two rows (as `_det4`): six products of
    a 2x2 minor, a quadratic form in t, with its complementary minor. The
    coefficients are summed exactly and made canonical once. Raises on an
    identically zero determinant."""
    F = web.field
    units = [tuple(int(k == a) for k in range(4)) for a in range(4)]
    # each entry of the member matrix is a linear form in t
    lin = [
        [{units[a]: q.rows[i][j] for a, q in enumerate(web.qs) if not F.is_zero(q.rows[i][j])} for j in range(4)]
        for i in range(4)
    ]

    def minor(r, c, d):
        """The 2x2 minor on rows r, r + 1 and columns c, d."""
        out = _mp_mul(lin[r][c], lin[r + 1][d])
        for k, v in _mp_mul(lin[r][d], lin[r + 1][c]).items():
            out[k] = out.get(k, 0) - v
        return out

    total = {}
    for c, d in combinations(range(4), 2):
        e, f = (k for k in range(4) if k not in (c, d))
        sign = -1 if (c + d) % 2 == 0 else 1  # (-1)^(0 + 1 + c + d)
        for k, v in _mp_mul(minor(0, c, d), minor(2, e, f)).items():
            total[k] = total.get(k, 0) + sign * v
    total = {k: x for k, v in total.items() if not F.is_zero(x := F.of(v))}
    if not total:
        raise DegenerateWeb("determinant vanishes identically")
    return total


def quartic_gradient(web: WebOfQuadrics):
    poly = quartic_surface(web)
    return [_mp_partial(web.field, poly, i) for i in range(4)]


def _compile_cubics(polys, p):
    """Homogeneous cubics over F_p, in any number of variables, compiled for
    `_cubic_values` as (monomials, packed, width, count): the monomials
    t_i t_j t_k (i <= j <= k) that occur in any of them, as index triples,
    and for each monomial one int that holds its coefficient in cubic g at
    bit g * width. A slot is wide enough for a cubic's value at a point
    with coordinates in [0, p), so no slot carries into the next."""
    expos = {expo for poly in polys for expo in poly}
    triples = {expo: tuple(i for i, e in enumerate(expo) for _ in range(e)) for expo in expos}
    monos = sorted(set(triples.values()))
    index = {m: k for k, m in enumerate(monos)}
    width = (len(monos) * (p - 1) ** 4).bit_length()
    packed = [0] * len(monos)
    for g, poly in enumerate(polys):
        for expo, c in poly.items():
            packed[index[triples[expo]]] += c << (g * width)
    return monos, packed, width, len(polys)


def _on_plane(poly, head, p):
    """The form poly(t0..t3) on the plane t0 = h0 s, t1 = h1 s, as a form in
    (s, t2, t3) mod p: t0^e0 t1^e1 t2^i t3^j becomes h0^e0 h1^e1 s^(e0+e1)
    t2^i t3^j."""
    h0, h1 = head
    out = {}
    for (e0, e1, i, j), coef in poly.items():
        k = (e0 + e1, i, j)
        out[k] = out.get(k, 0) + coef * h0**e0 * h1**e1
    return {k: v % p for k, v in out.items() if v % p}


def _cubic_values(compiled, t, p):
    """The compiled cubics at the point t, coordinates in [0, p), mod p:
    their shared monomials once, then one dot product with the packed
    coefficients, which leaves each cubic's value in its own slot."""
    monos, packed, width, count = compiled
    v = sum([t[i] * t[j] * t[k] * x for (i, j, k), x in zip(monos, packed)])
    mask = (1 << width) - 1
    return [(v >> (g * width) & mask) % p for g in range(count)]


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


def bitangent_pair(web: WebOfQuadrics, pencil, line) -> BitangentPair:
    """The unordered point pair {x, y} on the line satisfying the bilinear
    condition for every member of the web.

    `pencil` holds two members vanishing on the line (checked); their
    conditions are automatic there, and the two completing generators cut a
    binary quadratic whose roots are the pair. A double root is flagged as
    a tangency; an identically zero residual system is an error. The
    `bitangent_pairs` check, not this function, evaluates every generator's
    condition on the pair.
    """
    F = web.field
    r0, r1 = line
    qa, qb = pencil
    for q in (qa, qb):
        if not quadric_contains_line(F, q, r0, r1):
            raise ValueError("pencil member does not vanish on the line")
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
    rank2_nonsingular: int  # 0 by the adjugate argument; the scan checks gate on it

    def is_generic(self) -> bool:
        return self.rank3_singular == 0

    def json_rows(self):
        return [{"rank": r, "count": self.rank_counts.get(r, 0)} for r in range(5)]


# the largest p field_scan accepts: a scan covers p^3 + p^2 + p + 1 points
SCAN_MAX_PRIME = 127


class _Slots:
    """n slots of whole bytes in one int, slot k at byte k * nbytes, each
    holding a value v with 0 <= v <= 15 (p - 1)^2: a bivariate quartic, at
    most 15 terms, with coefficients and monomial values in [0, p).
    `reduce` takes every slot mod p at once as v - p * floor(v / p), where
    floor(v / p) = (v * m) >> s for m = ceil(2^s / p) and 2^s > 15 (p - 1)^2
    * p. A slot is wide enough to hold v * m, so no slot carries into the
    next, and the mask drops the bits that the shift brings down from the
    slot above. A residue is below p <= 127, so it is the slot's low byte."""

    def __init__(self, p, n):
        top = 15 * (p - 1) ** 2
        self.p, self.n = p, n
        self.shift = (top * p).bit_length()
        self.mul = -(-(1 << self.shift) // p)
        self.nbytes = -(-(top * self.mul).bit_length() // 8)
        width = 8 * self.nbytes
        ones = ((1 << (width * n)) - 1) // ((1 << width) - 1)
        self.mask = ((1 << (width - self.shift)) - 1) * ones

    def pack(self, values):
        return int.from_bytes(b"".join(v.to_bytes(self.nbytes, "little") for v in values), "little")

    def reduce(self, v):
        return v - self.p * (((v * self.mul) >> self.shift) & self.mask)

    def residues(self, v):
        """The slots of v mod p as bytes, slot k at byte k."""
        return self.reduce(v).to_bytes(self.nbytes * self.n, "little")[:: self.nbytes]


def _plane_tables(slots, monomials):
    """For each (i, j) of `monomials`, the values c^i d^j mod p over the
    affine plane, packed into `slots` (n = p^2) with (c, d) at slot c p + d:
    block c is c^i times the row of the d^j, reduced once."""
    p = slots.p
    size = slots.nbytes * p
    rows = [slots.pack(pow(d, j, p) for d in range(p)) for j in range(5)]
    return {
        (i, j): slots.reduce(
            int.from_bytes(b"".join((pow(c, i, p) * rows[j]).to_bytes(size, "little") for c in range(p)), "little")
        )
        for i, j in monomials
    }


def field_scan(web: WebOfQuadrics) -> ScanCensus:
    """Tallies the member ranks over every point of the projective parameter
    space over F_p, and counts the rank <= 2 points that are not singular
    points of the quartic, which the adjugate argument says are none; the
    report gates on that count. Guarded to p <= SCAN_MAX_PRIME = 127.

    The quartic det(sum t_i Q_i) is expanded once (`quartic_surface`). On
    each of the p + 1 affine planes (1, b, c, d) and (0, 1, c, d) it is a
    quartic in (c, d), and its values at all p^2 points of the plane are
    one packed integer, p^2 slots (`_Slots`) with (c, d) at slot c p + d:
    - the tables P_ij hold c^i d^j mod p (`_plane_tables`), so a quartic
      sum a_ij c^i d^j with its at most 15 coefficients packs as
      sum a_ij P_ij;
    - on the plane (1, b) the quartic is sum_k b^k g_k(c, d), so the five
      g_k are packed once per scan and each plane is a five-term sum;
    - a few big-integer operations reduce every slot mod p, and `bytes.find`
      walks the zero slots.
    Only those points, the F_p-points of the quartic, are visited one at a
    time; the rest of each plane has rank 4. The p + 1 points of the line
    (0, 0, 1, d) and the point (0, 0, 0, 1) are tested one by one with
    `_det4`. So a scan makes p + 1 plane evaluations, p + 1 determinants
    and one Python step per point of the surface, about p^2 of them, where
    a scan point by point makes p^3 + p^2 + p + 1.

    At a visited member, rank 3 is read off a nonzero principal 3x3 minor
    (`_rank3_minor`); only the members where all four vanish are
    eliminated, so ranks 0, 1 and 2 do not rest on the gradient cubics.
    At every visited member the four gradient cubics of the expanded
    quartic are evaluated by `_cubic_values`: restricted to the plane
    (`_on_plane`) they share at most 10 monomials, compiled once per plane.

    One scan of the diagonal web and of a random web takes 66-73 and
    33-40 ms CPU at the quadrics suite's p = 61, and 0.31 and 0.17 s at
    p = 127, where a scan point by point took 142-172 ms at p = 61 and
    0.73-0.81 s at p = 127 (min of 5 alternated runs each; CPython 3.11 on
    a 2-vCPU x86_64 VM). The plane work is p^2 slots of a few bytes on each
    of p + 1 planes, so it grows as p^3 bytes of big-integer arithmetic;
    the visits grow as p^2."""
    F = web.field
    if not isinstance(F, PrimeField):
        raise ValueError("field scan needs a prime-field context")
    p = F.p
    if p > SCAN_MAX_PRIME:
        raise ValueError(f"scan guard: p = {p} > {SCAN_MAX_PRIME}")
    poly = quartic_surface(web)
    grads = [_mp_partial(F, poly, i) for i in range(4)]
    from .fpkernel import fp_rank

    f0, f1, f2, f3 = ([x for row in q.rows for x in row] for q in web.qs)
    counts = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
    rank3_singular = 0
    rank2_nonsingular = 0

    def visit_singular(flat, compiled, t):
        """Tally the member with flat (unreduced) entries, where its
        determinant vanishes mod p, so its rank is at most 3; the compiled
        gradient cubics vanish at t exactly where the quartic is singular."""
        nonlocal rank3_singular, rank2_nonsingular
        r = 3 if _rank3_minor(flat, p) else fp_rank(flat, 4, 4, p)
        counts[r] += 1
        singular = not any(_cubic_values(compiled, t, p))
        if r <= 2:
            if not singular:
                rank2_nonsingular += 1
        elif singular:
            rank3_singular += 1

    # on the plane (1, b) the quartic is sum_k b^k g_k(c, d), where g_k
    # collects the monomials t0^e0 t1^k t2^i t3^j; on (0, 1) it is h(c, d),
    # the monomials with e0 = 0. Each is packed over the p^2 points once.
    slots = _Slots(p, p * p)
    tables = _plane_tables(slots, {(i, j) for _, _, i, j in poly})
    g, h = [0] * 5, 0
    for (e0, e1, i, j), coef in poly.items():
        g[e1] += coef * tables[i, j]
        if e0 == 0:
            h += coef * tables[i, j]
    g = [slots.reduce(x) for x in g]
    c_f2 = [[c * x for x in f2] for c in range(p)]
    d_f3 = [[d * x for x in f3] for d in range(p)]

    def scan_plane(head, base, values):
        """The p^2 members base + c*f2 + d*f3 at the points head + (c, d) of
        the plane t0 = h0, t1 = h1, where the packed quartic is `values`."""
        compiled = _compile_cubics([_on_plane(grad, head, p) for grad in grads], p)
        residues = slots.residues(values)
        row_c = None
        k = residues.find(0)
        while k >= 0:
            c, d = divmod(k, p)
            if c != row_c:
                row_c, row = c, list(map(add, base, c_f2[c]))
            visit_singular(list(map(add, row, d_f3[d])), compiled, (1, c, d))
            k = residues.find(0, k + 1)
        counts[4] += p * p - residues.count(0)

    for b in range(p):
        values = sum(pow(b, k, p) * gk for k, gk in enumerate(g))
        scan_plane((1, b), [x + b * y for x, y in zip(f0, f1)], values)
    scan_plane((0, 1), f1, h)
    compiled = _compile_cubics(grads, p)
    points = [((0, 0, 1, d), list(map(add, f2, d_f3[d]))) for d in range(p)]
    for t, flat in points + [((0, 0, 0, 1), f3)]:
        if _det4(flat) % p:
            counts[4] += 1
        else:
            visit_singular(flat, compiled, t)

    return ScanCensus(p, counts, rank3_singular, rank2_nonsingular)
