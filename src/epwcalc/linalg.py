"""Dense exact linear algebra: matrices, canonical subspaces, interpolation
and roots of univariate polynomials over F_p.

Rank and determinants over Q use fraction-free (Bareiss) elimination to
control entry growth; over F_p plain Gaussian elimination runs through the
F_p kernel in `fpkernel`. Those eliminations and the modular rank
certificate are the only code here that branches on the field; every vector
combination, reduction and product goes through the field's `lincomb`,
`axpy` and `dot`. Subspaces are stored in reduced row echelon form, which
makes subspace equality syntactic. Each subspace operation reads its
canonical form off the one elimination it needs: a kernel off the rref of
the matrix with its columns reversed, a meet off the kernel of the residues
modulo the other side's canonical basis, a join off their rref. The
univariate polynomial helpers sit together at the end: interpolation,
evaluation and degree over either field, and `smallest_root`, a
gcd-and-split root finder over F_p that takes no pass over the field.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .fpkernel import fp_det, fp_rank, fp_rref
from .scalars import PrimeField, same_field


class ShapeError(ValueError):
    pass


def _bareiss_forward(rows):
    """Fraction-free forward elimination on integer rows; returns the rank."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    prev = 1
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), -1)
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for c in range(col + 1, ncols):
                m[i][c] = (m[r][col] * m[i][c] - m[i][col] * m[r][c]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return r


def _integerize(rows):
    """Scale each row of Fractions to coprime integers (rank-preserving)."""
    out = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        ints = [int(x * mult) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


class Matrix:
    """Immutable row-major matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        of = field.of
        rows = tuple(tuple(map(of, r)) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ShapeError("ragged rows")
        elif ncols is None:
            raise ShapeError("empty matrix needs an explicit column count")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _reduced(cls, field, rows, ncols):
        """A Matrix over rows that already are tuples of field elements, such
        as the output of an elimination: no entry is coerced again."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "rows", tuple(rows))
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, [[field.zero] * ncols for _ in range(nrows)], ncols=ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        return Matrix._reduced(self.field, list(zip(*self.rows)), self.nrows)

    def mul(self, other):
        same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise ShapeError("inner dimension mismatch")
        F = self.field
        bt = list(zip(*other.rows))
        out = [tuple([F.dot(r, c) for c in bt]) for r in self.rows]
        return Matrix._reduced(F, out, other.ncols)

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        F = self.field
        if isinstance(F, PrimeField):
            flat = [x for r in self.rows for x in r]
            return fp_rank(flat, self.nrows, self.ncols, F.p)
        return _bareiss_forward(_integerize(self.rows))

    def det(self):
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a non-square matrix")
        F = self.field
        n = self.nrows
        if n == 0:
            return F.one
        if isinstance(F, PrimeField):
            flat = [x for r in self.rows for x in r]
            return fp_det(flat, n, F.p)
        # Bareiss over the integers, tracking the row scalings
        scale = Fraction(1)
        rows = []
        for row in self.rows:
            mult = lcm(*(x.denominator for x in row))
            scale /= mult
            rows.append([int(x * mult) for x in row])
        m = rows
        prev = 1
        sign = 1
        for col in range(n - 1):
            piv = next((i for i in range(col, n) if m[i][col]), -1)
            if piv < 0:
                return F.zero
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                sign = -sign
            for i in range(col + 1, n):
                for c in range(col + 1, n):
                    m[i][c] = (m[col][col] * m[i][c] - m[i][col] * m[col][c]) // prev
                m[i][col] = 0
            prev = m[col][col]
        return F.of(sign * scale * m[n - 1][n - 1])

    def rref(self):
        """Return (canonical rref Matrix, pivot column tuple)."""
        F = self.field
        if self.nrows == 0:
            return self, ()
        if isinstance(F, PrimeField):
            flat = [x for r in self.rows for x in r]
            rank, pivots, red = fp_rref(flat, self.nrows, self.ncols, F.p)
            rows = [tuple(red[i * self.ncols : (i + 1) * self.ncols]) for i in range(self.nrows)]
            return Matrix._reduced(F, rows, self.ncols), tuple(pivots)
        # over Q: eliminate on integer-scaled rows, dividing out each row's
        # content; row scaling keeps the row space, so the final division by
        # the pivots gives the same canonical form as Fraction elimination
        m = _integerize(self.rows)
        nrows, ncols = self.nrows, self.ncols
        pivots = []
        r = 0
        for col in range(ncols):
            piv = next((i for i in range(r, nrows) if m[i][col]), -1)
            if piv < 0:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
            top = m[r]
            a = top[col]
            for i in range(nrows):
                f = m[i][col]
                if i != r and f:
                    row = [a * x - f * y for x, y in zip(m[i], top)]
                    g = gcd(*row)
                    m[i] = [x // g for x in row] if g > 1 else row
            pivots.append(col)
            r += 1
            if r == nrows:
                break
        zero = Fraction(0)
        red = [tuple([Fraction(x, row[pc]) if x else zero for x in row]) for row, pc in zip(m, pivots)]
        red += [(zero,) * ncols for _ in range(nrows - r)]
        return Matrix._reduced(F, red, ncols), tuple(pivots)

    def kernel_basis(self) -> "Subspace":
        """Right kernel {x : M x = 0} as a canonical Subspace, from one rref
        of M with its columns reversed.

        A reduced row is zero left of its pivot, so the kernel vector of a
        column f with no pivot, 1 at f and -red[r][f] at each row r's pivot,
        is nonzero only at f and at pivot columns right of f in M: it leads
        at f and vanishes at the other pivotless columns. Sorted by f, these
        vectors already are the kernel's canonical RREF, pivoting there."""
        F, n = self.field, self.ncols
        red, rev_pivots = Matrix._reduced(F, [row[::-1] for row in self.rows], n).rref()
        free = [f for f in range(n) if n - 1 - f not in rev_pivots]
        basis = []
        for f in free:
            c = n - 1 - f
            vec = [F.zero] * n
            vec[f] = F.one
            for row, pc in zip(red.rows, rev_pivots[: bisect_left(rev_pivots, c)]):
                vec[n - 1 - pc] = F.neg(row[c])
            basis.append(tuple(vec))
        assert len(basis) + len(rev_pivots) == n, "rank-nullity violated"
        return Subspace.from_rref(F, n, basis, free)


class Subspace:
    """A linear subspace stored as an RREF basis; equality is syntactic."""

    __slots__ = ("field", "ambient", "mat", "pivots")

    def __init__(self, field, ambient, mat: Matrix, pivots):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning(cls, field, ambient, vectors) -> "Subspace":
        vectors = [v for v in vectors]
        if not vectors:
            return cls(field, ambient, Matrix(field, [], ncols=ambient), ())
        m = Matrix(field, vectors)
        if m.ncols != ambient:
            raise ShapeError("vector length does not match ambient dimension")
        red, pivots = m.rref()
        return cls.from_rref(field, ambient, red.rows[: len(pivots)], pivots)

    @classmethod
    def from_rref(cls, field, ambient, rows, pivots) -> "Subspace":
        """Trusted constructor: `rows` (tuples of field elements) already are
        the canonical RREF basis with these pivot columns. Nothing is checked,
        coerced or eliminated."""
        return cls(field, ambient, Matrix._reduced(field, rows, ambient), pivots)

    @classmethod
    def zero(cls, field, ambient) -> "Subspace":
        return cls.from_spanning(field, ambient, [])

    @classmethod
    def full(cls, field, ambient) -> "Subspace":
        """The identity rows, which already are the canonical RREF."""
        one, zero = field.one, field.zero
        rows = [tuple(one if i == j else zero for j in range(ambient)) for i in range(ambient)]
        return cls.from_rref(field, ambient, rows, range(ambient))

    @property
    def dim(self) -> int:
        return self.mat.nrows

    def basis(self):
        return self.mat.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.mat.rows == other.mat.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.mat.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field!r})"

    def _split(self, vec):
        """(coords, residue) with vec = sum coords[i] * basis[i] + residue,
        the residue zero exactly when vec lies in self. Each RREF row vanishes
        at the other rows' pivots, so the coordinates are vec's pivot entries."""
        F = self.field
        v = [F.of(x) for x in vec]
        if len(v) != self.ambient:
            raise ShapeError("vector length mismatch")
        return self._reduce(v)

    def _reduce(self, v):
        """`_split` of a vector whose entries already are field elements."""
        coords = [v[pc] for pc in self.pivots]
        return coords, self.field.lincomb([1, *(-c for c in coords)], [v, *self.mat.rows])

    def contains(self, vec) -> bool:
        return not any(self._split(vec)[1])

    def with_vector(self, vec) -> "Subspace":
        """The span of self and vec by one RREF insert, with no elimination of
        the whole basis; self itself when vec already lies in it.

        The residue of vec has zeros in every pivot column, so its leading
        entry is a new pivot: normalised to one and cleared from the other
        rows, it leaves the canonical RREF of the span."""
        v = self._split(vec)[1]
        if not any(v):
            return self
        F = self.field
        q = next(i for i, x in enumerate(v) if x)
        v = tuple(F.lincomb([F.inv(v[q])], [v]))
        rows = [tuple(F.axpy(row, -row[q], v)) if row[q] else row for row in self.mat.rows]
        k = bisect_left(self.pivots, q)
        rows.insert(k, v)
        return Subspace.from_rref(F, self.ambient, rows, (*self.pivots[:k], q, *self.pivots[k:]))

    def contains_subspace(self, other) -> bool:
        return all(self.contains(r) for r in other.mat.rows)

    def coords_of(self, vec):
        """Coordinates w.r.t. the RREF basis; ValueError when vec is not in self."""
        coords, residue = self._split(vec)
        if any(residue):
            raise ValueError("vector not in subspace")
        return tuple(coords)

    def _residues(self, other):
        """self's free columns, and other's basis rows reduced modulo self cut to them."""
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise ShapeError("ambient dimension mismatch")
        free = [c for c in range(self.ambient) if c not in self.pivots]
        residues = (self._reduce(t)[1] for t in other.mat.rows)
        return free, [tuple([res[c] for c in free]) for res in residues]

    def meet(self, other) -> "Subspace":
        """Intersection {c.T : c.R = 0}, T being other's k basis rows and R
        the k x w block of their residues modulo self; no join is built.

        The c are the kernel of R^T, one w x k elimination, and `kernel_basis`
        gives them in canonical RREF. T is in RREF too, so c.T has a 1 at the
        pivot of T picked out by c's pivot and vanishes at the pivots picked
        out by the other c: the c.T already are the meet's canonical RREF."""
        free, block = self._residues(other)
        F, n = self.field, self.ambient
        cs = Matrix._reduced(F, list(zip(*block)), other.dim).kernel_basis()
        rows = [tuple(F.lincomb(c, other.mat.rows)) for c in cs.basis()]
        meet = Subspace.from_rref(F, n, rows, [other.pivots[pc] for pc in cs.pivots])
        assert other.dim - meet.dim <= len(free), "rank R + dim meet = dim T, rank R <= w"
        return meet

    def join(self, other) -> "Subspace":
        return self._zassenhaus(other)

    def _zassenhaus(self, other):
        """The join of self and other, from the residues of other's basis
        modulo self. The name stays from the Zassenhaus block elimination
        this replaced, because `perfbench/spans.py` patches it by that name.

        Only the k x w block of residues on self's free columns is
        eliminated. Its canonical rows pivot at free columns; cleared from
        self's rows and merged by pivot order, as in `with_vector`, they are
        the join's canonical RREF."""
        free, block = self._residues(other)
        F, n = self.field, self.ambient
        red, pivots = Matrix._reduced(F, block, len(free)).rref()
        if not pivots:
            return self
        new_pivots = [free[pc] for pc in pivots]
        new = []
        for row in red.rows[: len(pivots)]:
            u = [F.zero] * n
            for c, x in zip(free, row):
                u[c] = x
            new.append(tuple(u))
        rows = []
        for row in self.mat.rows:
            coeffs = [row[q] for q in new_pivots]
            rows.append(tuple(F.lincomb([1, *(-c for c in coeffs)], [row, *new])) if any(coeffs) else row)
        merged = sorted(zip((*self.pivots, *new_pivots), rows + new), key=lambda pr: pr[0])
        join = Subspace.from_rref(F, n, [row for _, row in merged], [pc for pc, _ in merged])
        assert join.dim == self.dim + len(pivots), "dim S + rank R != dim join"
        return join


class InterpolationError(ValueError):
    pass


def interpolate_univariate(field, samples, degree_bound):
    """Coefficients (constant first) of the unique polynomial of degree
    <= degree_bound through the samples.

    Needs at least degree_bound+1 samples with distinct abscissae; any extra
    samples must be consistent with the bound or InterpolationError is raised.
    """
    F = field
    pts = [(F.of(t), F.of(v)) for t, v in samples]
    if len({t for t, _ in pts}) != len(pts):
        raise InterpolationError("duplicate abscissae")
    d = degree_bound
    if len(pts) < d + 1:
        raise InterpolationError(f"need at least {d + 1} samples, got {len(pts)}")
    head = pts[: d + 1]
    # Newton divided differences on the first d+1 points
    xs = [t for t, _ in head]
    coef = [v for _, v in head]
    for j in range(1, d + 1):
        for i in range(d, j - 1, -1):
            coef[i] = F.div(F.sub(coef[i], coef[i - 1]), F.sub(xs[i], xs[i - j]))
    # expand the Newton form into monomial coefficients
    poly = [F.zero] * (d + 1)
    poly[0] = coef[d]
    for j in range(d - 1, -1, -1):
        # poly <- poly * (x - xs[j]) + coef[j]
        shifted = [F.zero] + poly[:-1]
        poly = [F.sub(s, F.mul(xs[j], c)) for s, c in zip(shifted, poly)]
        poly[0] = F.add(poly[0], coef[j])
    for t, v in pts[d + 1 :]:
        if not F.is_zero(F.sub(poly_eval(F, poly, t), v)):
            raise InterpolationError(f"samples inconsistent with degree <= {d}")
    return poly


def poly_eval(field, coeffs, t):
    acc = field.zero
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, t), c)
    return acc


def poly_degree(field, coeffs) -> int:
    """Degree of the coefficient list; -1 for the zero polynomial."""
    for i in range(len(coeffs) - 1, -1, -1):
        if not field.is_zero(coeffs[i]):
            return i
    return -1


# -- roots over F_p: plain int lists, constant coefficient first, in [0, p) --


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _monic(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _divmod_monic(f, m, p):
    """(quotient, trimmed remainder) of f by the monic m; f may be unreduced."""
    r = list(f)
    dm = len(m) - 1
    q = [0] * max(len(r) - dm, 0)
    for k in range(len(r) - 1 - dm, -1, -1):
        c = r[k + dm] % p
        q[k] = c
        if c:
            for i in range(dm):
                r[k + i] -= c * m[i]
    return q, _trim([x % p for x in r[:dm]])


def _gcd_monic(f, g, p):
    """The monic gcd of f and g (f nonzero)."""
    while g:
        f, g = g, _divmod_monic(f, _monic(g, p), p)[1]
    return _monic(f, p)


def _pow_linear_mod(a, e, m, p):
    """(x + a)^e mod the monic m by square-and-multiply; multiplying by the
    linear base is one shift and one scaled add."""
    acc = [1]
    for bit in bin(e)[2:]:
        sq = [0] * (2 * len(acc) - 1)
        for i, x in enumerate(acc):
            if x:
                for j, y in enumerate(acc):
                    sq[i + j] += x * y
        acc = _divmod_monic(sq, m, p)[1]
        if bit == "1" and acc:
            acc = _divmod_monic([a * c + b for c, b in zip(acc + [0], [0] + acc)], m, p)[1]
    return acc


def smallest_root(coeffs, p):
    """The smallest t in 0..p-1 with f(t) = 0 mod p, or None when f has no
    root in F_p; 0 for the zero polynomial, every t being a root.

    No pass over F_p: g = gcd(f, x^p - x) is the product of the distinct linear
    factors of f, found by square-and-multiply mod f, and g is split into
    them by gcd(g, (x + a)^((p-1)/2) - 1), which keeps the roots r with r + a
    a nonzero square (Cantor-Zassenhaus 1981; von zur Gathen-Gerhard,
    Modern Computer Algebra, ch. 14). That is O(d^2 log p) work per shift for
    a polynomial of degree d.

    The shifts are deterministic: a = 0, 1, 2, ... in turn, each factor going
    on from the shift after the one that split off its parent, so no random
    stream is drawn. A shift separates two roots r != s when exactly one of
    r + a, s + a is a nonzero square, which holds for at least (p - 1)/2 of
    the p shifts; the Weil bound on incomplete character sums caps a run of
    consecutive shifts that all fail for one pair at O(sqrt(p) log p), and a
    few shifts suffice in practice. Over F_2, g divides x^2 - x and its roots
    are read off directly.
    """
    f = _trim([c % p for c in coeffs])
    if not f:
        return 0
    if len(f) == 1:
        return None
    f = _monic(f, p)
    w = _pow_linear_mod(0, p, f, p)  # x^p mod f
    w += [0] * (2 - len(w))
    w[1] = (w[1] - 1) % p
    g = _gcd_monic(f, _trim(w), p)
    if p == 2:
        return next((t for t, v in ((0, g[0]), (1, sum(g) % 2)) if v == 0), None)
    roots = []
    todo = [(g, 0)]
    while todo:
        h, a = todo.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        elif len(h) > 2:
            while True:
                w = _pow_linear_mod(a, (p - 1) // 2, h, p) or [0]
                w[0] = (w[0] - 1) % p
                d = _gcd_monic(h, _trim(w), p)
                a += 1
                if 1 < len(d) < len(h):
                    todo += [(d, a), (_divmod_monic(h, d, p)[0], a)]
                    break
    return min(roots, default=None)


def certified_rank_full(mat: Matrix, p: int = 10007) -> bool:
    """True if mat provably has full row rank over QQ.

    rank_{F_p} <= rank_QQ <= nrows always holds, so a full-rank modular
    elimination is an exact certificate, not a probabilistic one. A False
    return is inconclusive; callers fall back to exact elimination.
    """
    if not isinstance(mat.field, PrimeField):
        from .scalars import GF

        F = GF(p)
        try:
            rows = [[F.of(x) for x in r] for r in mat.rows]
        except ZeroDivisionError:
            return False
        return Matrix(F, rows, ncols=mat.ncols).rank() == mat.nrows
    return mat.rank() == mat.nrows
