"""The rank-23 even lattice U^3 + E8(-1)^2 + <-2>, with its Fujiki and c2
constants read off chow's degree table.

By Fujiki's theorem the degree-4 intersection numbers on the 4-fold reduce
to the quadratic form: deg(x^4) = c q(x,x)^2 and deg(c2 x^2) = C q(x,x) for
every class x. `BBLattice` reads c and C off a `chow.VarietyModel` at the
polarization h. The quadruple product is the full polarization of
c q(x,x)^2, and the Riemann-Roch polynomial in q alone handles every
line-bundle Euler characteristic used downstream.
"""

from math import comb

from .chow import hrr_chi
from .linalg import Matrix
from .scalars import QQ

_U = [[0, 1], [1, 0]]

# Cartan matrix of the E8 diagram: chain 0-2-3-4-5-6-7 with node 1 on node 3
_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


def _e8_gram():
    """The Gram matrix of E8(-1): the negated Cartan matrix."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a][b] = g[b][a] = 1
    return g


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(b)
    return out


def _inertia(gram):
    """(positive, negative) eigenvalue counts of a symmetric integer matrix.

    A congruence G -> P^T G P keeps them (Sylvester's law of inertia), so
    they are the sign counts of the pivots of one symmetric elimination over
    QQ. A nonzero diagonal entry d = g_ii is a pivot: its sign is counted
    and the rest of G becomes the Schur complement g_rc - g_ri g_ic / d.
    When the whole diagonal is zero, adding row and column j to row and
    column i for some g_ij != 0 makes g_ii = 2 g_ij a pivot; an all-zero
    rest has only zero eigenvalues."""
    F = QQ
    g = [list(row) for row in gram]
    pos = neg = 0
    while g:
        i = next((i for i, row in enumerate(g) if row[i]), None)
        if i is None:
            i, j = next(((i, j) for i, row in enumerate(g) for j, x in enumerate(row) if x), (None, None))
            if i is None:
                break
            g[i] = [F.add(a, b) for a, b in zip(g[i], g[j])]
            for row in g:
                row[i] = F.add(row[i], row[j])
        pivot = g.pop(i)
        d = pivot.pop(i)
        pos += d > 0
        neg += d < 0
        inv = F.inv(d)
        for k, row in enumerate(g):
            u = row.pop(i)
            if u:
                u = F.neg(F.mul(u, inv))
                g[k] = [F.add(a, F.mul(u, b)) for a, b in zip(row, pivot)]
    return pos, neg


class BBLattice:
    """Gram matrix, the Fujiki constant c and the c2 constant C read off a
    chow model's degrees at h, and the degree functionals they induce."""

    def __init__(self, model):
        self.gram = _block_diag([_U, _U, _U, _e8_gram(), _e8_gram(), [[-2]]])
        self.rank = 23
        # the nonzero Gram entries (i, j, g_ij): 51 of the 529
        self._entries = [(i, j, g) for i, row in enumerate(self.gram) for j, g in enumerate(row) if g]
        # deg(h^4) = c q(h,h)^2 and deg(c2 h^2) = C q(h,h)
        h, qh = model.sym("h"), self.q(self.h, self.h)
        self.fujiki = model.degree(h**4) / qh**2
        self.c2_constant = model.degree(model.sym("c2") * h * h) / qh
        self.chi_trivial = hrr_chi(model, model.line(0))

    def q(self, a, b) -> int:
        if len(a) != self.rank or len(b) != self.rank:
            raise ValueError("lattice vectors have 23 coordinates")
        return sum(a[i] * g * b[j] for i, j, g in self._entries)

    def basis_vector(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    @property
    def h(self):
        """A square-2 polarization class: (1,1) in the first hyperbolic block."""
        return tuple([1, 1] + [0] * 21)

    @property
    def e_minus2(self):
        """The generator of the <-2> summand."""
        return self.basis_vector(22)

    def determinant(self) -> int:
        d = Matrix(QQ, self.gram).det()
        assert d.denominator == 1
        return int(d)

    def signature(self):
        """Inertia (positive, negative) of the Gram matrix, by `_inertia`."""
        return _inertia(self.gram)

    # -- degree functionals -------------------------------------------------

    def quad_intersection(self, a1, a2, a3, a4):
        """Full polarization of the Fujiki identity deg(x^4) = c q(x,x)^2:
        (c/3)(q12 q34 + q13 q24 + q14 q23)."""
        return self.fujiki / 3 * (
            self.q(a1, a2) * self.q(a3, a4)
            + self.q(a1, a3) * self.q(a2, a4)
            + self.q(a1, a4) * self.q(a2, a3)
        )

    def chi_of_class(self, qvalue):
        """Euler characteristic of a line bundle with square q by
        Riemann-Roch: deg(e^4)/24 + deg(c2 e^2)/24 + chi(O_X), that is
        (c q^2 + C q)/24 + chi(O_X). The lattice is even, so odd input is
        an error."""
        if qvalue % 2 != 0:
            raise ValueError("the lattice is even; q must be even")
        return (self.fujiki * qvalue**2 + self.c2_constant * qvalue) / 24 + self.chi_trivial

    def odd_section_count(self):
        """Anti-invariant cubic sections of the double cover: chi at q = 18
        minus the C(8,3) = 56 cubics pulled back from the ambient space."""
        return self.chi_of_class(18) - comb(8, 3)
