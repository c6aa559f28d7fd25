"""Dense exact linear algebra: matrices, canonical subspaces, interpolation
and roots of univariate polynomials over F_p.

Entries are trusted. Every Matrix, Subspace, vector and sample handed to
this module holds elements of its field: reduced ints in [0, p) over F_p,
Fractions (or ints, the integer rationals) over Q. Nothing here coerces
them; raw numbers are made canonical once, where they enter the program
(`ExteriorVector`, the point and line arguments of `epw` and `quadrics`,
`WebOfQuadrics` generators given as lists, `LagrangianPencil.member`).
The reduction mod 10007 in `certified_rank_full` is a change of field,
the one place here that maps entries into a field.

Over Q, rank, determinant and rref share one fraction-free (Bareiss)
forward pass, `_bareiss`, which controls entry growth; rref then
back-substitutes from the last pivot up. Over F_p rank, determinant and
rref all run through the one forward elimination in `fpkernel`. Those
eliminations are the only code here that branches on the field; every
vector combination, reduction and product goes through the field's
`lincomb`, `axpy` and `dot`. Subspaces are stored in reduced row echelon
form, which makes subspace equality syntactic. A canonical row is 1 at its
own pivot and 0 at every other pivot, so the pivot columns are read, not
computed: reductions run on the k x (n - k) free-column block of a
k-dimensional subspace, and a residue is computed on the free columns
only. Each subspace operation reads its canonical form off the one
elimination it needs: a kernel off the rref of the matrix with its columns
reversed, a meet off the kernel of the residues modulo the other side's
canonical basis, a join off their rref. A join and `with_vector` share one
insert of canonical rows into a canonical basis, `Subspace._insert`. The
univariate polynomial helpers sit together at the end: interpolation,
evaluation, degree and the Hessenberg characteristic polynomial over
either field, and `smallest_root`, a gcd-and-split root finder over F_p
that takes no pass over the field.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd

from .fpkernel import fp_det, fp_rank, fp_rref
from .scalars import GF, PrimeField, _numerators, same_field


class ShapeError(ValueError):
    pass


def _bareiss(m):
    """Fraction-free forward elimination on the integer rows m, in place:
    (rank, sign of the row swaps, last pivot). For a square m of full rank
    the last pivot times the sign is the determinant."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    prev = 1
    sign = 1
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), -1)
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for c in range(col + 1, ncols):
                m[i][c] = (m[r][col] * m[i][c] - m[i][col] * m[r][c]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return r, sign, prev


def _integerize(rows):
    """Scale each row of Fractions to coprime integers (rank-preserving)."""
    out = []
    for row in rows:
        ints = _numerators(row)[1]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


class Matrix:
    """Immutable row-major matrix over a fixed field, its rows stored as
    tuples of the given entries. Matrices compare by identity; their `rows`
    compare by value."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(map(tuple, rows))
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

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)), self.nrows)

    def mul(self, other):
        same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise ShapeError("inner dimension mismatch")
        F = self.field
        bt = list(zip(*other.rows))
        out = [tuple([F.dot(r, c) for c in bt]) for r in self.rows]
        return Matrix(F, out, other.ncols)

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        F = self.field
        if isinstance(F, PrimeField):
            flat = [x for r in self.rows for x in r]
            return fp_rank(flat, self.nrows, self.ncols, F.p)
        return _bareiss(_integerize(self.rows))[0]

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
            mult, ints = _numerators(row)
            scale /= mult
            rows.append(ints)
        rank, sign, last = _bareiss(rows)
        return sign * scale * last if rank == n else F.zero

    def rref(self):
        """Return (canonical rref Matrix, pivot column tuple)."""
        F = self.field
        if self.nrows == 0:
            return self, ()
        if isinstance(F, PrimeField):
            flat = [x for r in self.rows for x in r]
            rank, pivots, red = fp_rref(flat, self.nrows, self.ncols, F.p)
            rows = [tuple(red[i * self.ncols : (i + 1) * self.ncols]) for i in range(self.nrows)]
            return Matrix(F, rows), tuple(pivots)
        # over Q: the Bareiss pass on integer-scaled rows (which keeps the row
        # space) leaves them in echelon form; from the last pivot up, each row
        # is scaled to 1 at its leading entry and cleared at the pivots below
        m = _integerize(self.rows)
        rank = _bareiss(m)[0]
        pivots = [next(c for c, x in enumerate(row) if x) for row in m[:rank]]
        red = []
        for k in range(rank - 1, -1, -1):
            row = F.lincomb([Fraction(1, m[k][pivots[k]])], [m[k]])
            for below, pc in zip(red, pivots[:k:-1]):
                if row[pc]:
                    row = F.axpy(row, -row[pc], below)
            red.append(row)
        red = red[::-1] + [(F.zero,) * self.ncols] * (self.nrows - rank)
        return Matrix(F, red), tuple(pivots)

    def kernel_basis(self) -> "Subspace":
        """Right kernel {x : M x = 0} as a canonical Subspace, from one rref
        of M with its columns reversed.

        A reduced row is zero left of its pivot, so the kernel vector of a
        column f with no pivot, 1 at f and -red[r][f] at each row r's pivot,
        is nonzero only at f and at pivot columns right of f in M: it leads
        at f and vanishes at the other pivotless columns. Sorted by f, these
        vectors already are the kernel's canonical RREF, pivoting there."""
        F, n = self.field, self.ncols
        red, rev_pivots = Matrix(F, [row[::-1] for row in self.rows], n).rref()
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
    """A linear subspace stored as its canonical RREF rows, a tuple, with
    their pivot columns; equality is syntactic.

    A canonical row is 1 at its own pivot and 0 at every other pivot, so only
    the k x (n - k) block on the free columns has to be computed. Reductions,
    memberships, meets and joins work on that block, built once from the
    canonical rows on first use."""

    __slots__ = ("field", "ambient", "_rows", "pivots", "_free")

    def __init__(self, field, ambient, rows, pivots):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_free", None)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning(cls, field, ambient, vectors) -> "Subspace":
        """The span of `vectors`, rows of length `ambient`, by one rref."""
        m = Matrix(field, vectors, ncols=ambient)
        if m.ncols != ambient:
            raise ShapeError("vector length does not match ambient dimension")
        red, pivots = m.rref()
        return cls(field, ambient, red.rows[: len(pivots)], pivots)

    @classmethod
    def from_rref(cls, field, ambient, rows, pivots) -> "Subspace":
        """`rows` (tuples of field elements) already are the canonical RREF
        basis with these pivot columns. Nothing is checked or eliminated.
        Any subset of a canonical basis, with its pivots, is again the
        canonical basis of its span."""
        return cls(field, ambient, rows, pivots)

    @classmethod
    def zero(cls, field, ambient) -> "Subspace":
        """The `from_rref` of no rows."""
        return cls.from_rref(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient) -> "Subspace":
        """The identity rows, which already are the canonical RREF."""
        one, zero = field.one, field.zero
        rows = [tuple(one if i == j else zero for j in range(ambient)) for i in range(ambient)]
        return cls.from_rref(field, ambient, rows, range(ambient))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self):
        return self._rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self._rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field!r})"

    def _free_block(self):
        """(free columns, the basis rows cut to them), cut from the canonical
        rows once and cached; the pivot columns need no storage."""
        if self._free is None:
            pivots = set(self.pivots)
            free = tuple([c for c in range(self.ambient) if c not in pivots])
            block = tuple([tuple([row[c] for c in free]) for row in self._rows])
            object.__setattr__(self, "_free", (free, block))
        return self._free

    def _reduce(self, vec):
        """(coords, residue) with vec = sum coords[i] * basis[i] + residue,
        the residue zero exactly when vec lies in self. Each RREF row vanishes
        at the other rows' pivots, so the coordinates are vec's pivot entries,
        and the residue vanishes at every pivot: it is given on the free
        columns only, k x (n - k) products on the free-column block."""
        if len(vec) != self.ambient:
            raise ShapeError("vector length mismatch")
        free, block = self._free_block()
        coords = [vec[pc] for pc in self.pivots]
        return coords, self.field.lincomb([1, *(-c for c in coords)], [[vec[c] for c in free], *block])

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec)[1])

    def with_vector(self, vec) -> "Subspace":
        """The span of self and vec by one RREF insert, with no elimination of
        the whole basis; self itself when vec already lies in it.

        The residue of vec has zeros in every pivot column, so its leading
        entry is a new pivot: normalised to one, the residue is a canonical
        row on the free columns, and `_insert` places it."""
        res = self._reduce(vec)[1]
        if not any(res):
            return self
        F = self.field
        i = next(i for i, x in enumerate(res) if x)
        return self._insert([F.lincomb([F.inv(res[i])], [res])], [i])

    def _insert(self, rows, pivots):
        """The span of self and `rows`, canonical RREF rows given on self's
        free columns, pivoting at the free columns indexed by `pivots`.

        Each new row is spread to the ambient columns, cleared from the rows
        that are nonzero at its pivot and placed by pivot order; it is zero at
        self's pivots and at the other new pivots, so the rows stay the
        canonical RREF of the span after every step."""
        F, n = self.field, self.ambient
        free = self._free_block()[0]
        out, out_pivots = list(self._rows), list(self.pivots)
        for row, pc in zip(rows, pivots):
            q = free[pc]
            v = [F.zero] * n
            for c, x in zip(free, row):
                v[c] = x
            v = tuple(v)
            out = [tuple(F.axpy(r, -r[q], v)) if r[q] else r for r in out]
            k = bisect_left(out_pivots, q)
            out.insert(k, v)
            out_pivots.insert(k, q)
        return Subspace.from_rref(F, n, out, out_pivots)

    def coords_of(self, vec):
        """Coordinates w.r.t. the RREF basis; ValueError when vec is not in self."""
        coords, residue = self._reduce(vec)
        if any(residue):
            raise ValueError("vector not in subspace")
        return tuple(coords)

    def _residues(self, other):
        """self's free columns, and the residues of other's basis rows modulo
        self on them."""
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise ShapeError("ambient dimension mismatch")
        return self._free_block()[0], [tuple(self._reduce(t)[1]) for t in other._rows]

    def meet(self, other) -> "Subspace":
        """Intersection {c.T : c.R = 0}, T being other's k basis rows and R
        the k x w block of their residues modulo self; no join is built.

        The c are the kernel of R^T, one w x k elimination, and `kernel_basis`
        gives them in canonical RREF. T is in RREF too, so c.T is c itself at
        T's pivots and c times T's free-column block elsewhere; it has a 1 at
        the pivot of T picked out by c's pivot and vanishes at the pivots
        picked out by the other c: the c.T already are the meet's canonical
        RREF."""
        free, block = self._residues(other)
        F, n = self.field, self.ambient
        cs = Matrix(F, list(zip(*block)), other.dim).kernel_basis()
        tfree, tblock = other._free_block()
        rows = []
        for c in cs.basis():
            u = [F.zero] * n
            for pc, x in zip(other.pivots, c):
                u[pc] = x
            for fc, x in zip(tfree, F.lincomb(c, tblock)):
                u[fc] = x
            rows.append(tuple(u))
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
        eliminated; its canonical rows pivot at free columns, and `_insert`
        places them among self's rows."""
        free, block = self._residues(other)
        red, pivots = Matrix(self.field, block, len(free)).rref()
        if not pivots:
            return self
        join = self._insert(red.rows[: len(pivots)], pivots)
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
    pts = list(samples)
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


def charpoly(field, rows):
    """Coefficients (constant first, monic) of det(x I - K) for the square
    matrix K with these rows of field elements, with no division by a
    polynomial (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9).

    K is brought to upper Hessenberg form H by similarities: per column m - 1
    a nonzero entry at or below the subdiagonal is swapped onto it (rows and
    columns m and i), and each row below it is cleared by a row operation
    paired with the inverse column operation. The characteristic polynomials
    p_m of the leading m x m blocks of H then follow from the expansion along
    column m: p_m = (x - h_mm) p_{m-1} - sum_{i < m} h_im h_{i+1,i}..h_{m,m-1}
    p_{i-1} (1-indexed)."""
    F = field
    n = len(rows)
    h = [list(r) for r in rows]
    for m in range(1, n - 1):
        i = next((r for r in range(m, n) if not F.is_zero(h[r][m - 1])), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        inv = F.inv(h[m][m - 1])
        for r in range(m + 1, n):
            u = F.mul(h[r][m - 1], inv)
            if not F.is_zero(u):
                h[r] = F.axpy(h[r], F.neg(u), h[m])
                for row in h:
                    row[m] = F.add(row[m], F.mul(u, row[r]))
    polys = [[F.one]]
    for m in range(n):
        coeffs = [F.one, F.neg(h[m][m])]
        terms = [[F.zero, *polys[m]], [*polys[m], F.zero]]
        t = F.one
        for i in range(m - 1, -1, -1):
            t = F.mul(t, h[i + 1][i])
            coeffs.append(F.neg(F.mul(t, h[i][m])))
            terms.append(polys[i] + [F.zero] * (m + 1 - i))
        polys.append(F.lincomb(coeffs, terms))
    return polys[n]


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
    few shifts suffice in practice.
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
