"""F_p elimination kernels on row-major flat int lists.

Every rank, rref and determinant over a prime field runs through this
module. `fp_rank` and `fp_det` are entry points over one forward Gaussian
elimination, `_forward`, which returns the rank and the signed product of
the pivots; `fp_rref` does the full reduction. Python ints are exact at any
p, so the kernels are correct for every prime the package accepts.
"""

def _inv(a, p):
    return pow(a, -1, p)


def _forward(a, nrows, ncols, p):
    """Forward Gaussian elimination on a copy of `a`: (rank, product of the
    pivots times the sign of the row swaps, mod p). The product is the
    determinant when the matrix is square of full rank."""
    m = [x % p for x in a]
    r = 0
    d = 1
    for col in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i * ncols + col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            d = p - d
            for c in range(col, ncols):
                m[r * ncols + c], m[piv * ncols + c] = m[piv * ncols + c], m[r * ncols + c]
        base = r * ncols
        pivval = m[base + col]
        d = d * pivval % p
        inv = _inv(pivval, p)
        for i in range(r + 1, nrows):
            f = m[i * ncols + col]
            if f:
                f = f * inv % p
                row = i * ncols
                for c in range(col, ncols):
                    m[row + c] = (m[row + c] - f * m[base + c]) % p
        r += 1
        if r == nrows:
            break
    return r, d


def fp_rank(a, nrows, ncols, p):
    """Rank by forward Gaussian elimination; `a` is consumed as a copy."""
    return _forward(a, nrows, ncols, p)[0]


def fp_rref(a, nrows, ncols, p):
    """Reduced row echelon form.

    Returns (rank, pivot column list, flat reduced matrix); the first
    `rank` rows hold the canonical basis, the rest are zero.
    """
    m = [x % p for x in a]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i * ncols + col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for c in range(ncols):
                m[r * ncols + c], m[piv * ncols + c] = m[piv * ncols + c], m[r * ncols + c]
        base = r * ncols
        inv = _inv(m[base + col], p)
        for c in range(col, ncols):
            m[base + c] = m[base + c] * inv % p
        for i in range(nrows):
            if i == r:
                continue
            f = m[i * ncols + col]
            if f:
                row = i * ncols
                for c in range(col, ncols):
                    m[row + c] = (m[row + c] - f * m[base + c]) % p
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


def fp_det(a, n, p):
    """Determinant of an n x n matrix over F_p."""
    r, d = _forward(a, n, n, p)
    return d if r == n else 0
