"""F_p elimination kernels on row-major flat int lists.

Every rank, rref and determinant over a prime field runs through these
three functions. Python ints are exact at any p, so the kernels are
correct for every prime the package accepts.
"""

def _inv(a, p):
    return pow(a, -1, p)


def fp_rank(a, nrows, ncols, p):
    """Rank by forward Gaussian elimination; `a` is consumed as a copy."""
    m = [x % p for x in a]
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
            for c in range(col, ncols):
                m[r * ncols + c], m[piv * ncols + c] = m[piv * ncols + c], m[r * ncols + c]
        inv = _inv(m[r * ncols + col], p)
        base = r * ncols
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
    return r


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
    m = [x % p for x in a]
    d = 1
    for col in range(n):
        piv = -1
        for i in range(col, n):
            if m[i * n + col]:
                piv = i
                break
        if piv < 0:
            return 0
        if piv != col:
            d = p - d
            for c in range(col, n):
                m[col * n + c], m[piv * n + c] = m[piv * n + c], m[col * n + c]
        pivval = m[col * n + col]
        d = d * pivval % p
        inv = _inv(pivval, p)
        base = col * n
        for i in range(col + 1, n):
            f = m[i * n + col]
            if f:
                f = f * inv % p
                row = i * n
                for c in range(col, n):
                    m[row + c] = (m[row + c] - f * m[base + c]) % p
    return d % p
