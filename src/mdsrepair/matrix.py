"""Exact dense linear algebra over GF(2^m): ``det`` and ``solve``.

Matrices are lists of rows, rows are lists (or tuples) of ints from one
field.  Everything here is pure: inputs are copied before elimination.
Pivoting picks the topmost nonzero entry in the leftmost unfinished
column; exact field arithmetic needs nothing fancier, and the fixed rule
keeps runs reproducible.  Row swaps never flip a determinant sign because
-1 = 1 in characteristic 2.

The determinant is the hot path of the whole package (it runs once per
column subset in the exhaustive MDS scans); ``solve`` serves coefficient
solving and decode.  Both run one forward elimination, ``_eliminate``,
which indexes the field's tables directly instead of calling
per-element methods.
"""

from __future__ import annotations

from .errors import DimensionMismatch, NonSquare, Singular
from .field import GF


def _eliminate(gf: GF, a, n: int) -> int | None:
    """Forward-eliminate the n x n left block of the rows ``a``, in place.

    Rows may be wider than n (``solve`` appends its right-hand side); each
    row operation runs across the full width.  Returns the sum of the
    pivot logs, or None when the block is singular.
    """
    exp, log = gf.exp, gf.log
    q1 = gf.order - 1
    width = len(a[0]) if n else 0
    det_log = 0
    for c in range(n):
        p = c
        while p < n and not a[p][c]:
            p += 1
        if p == n:
            return None
        if p != c:
            a[c], a[p] = a[p], a[c]
        prow = a[c]
        det_log += log[prow[c]]
        neg = q1 - log[prow[c]]  # log of pivot^-1
        for r in range(c + 1, n):
            f = a[r][c]
            if f:
                row = a[r]
                fl = log[f] + neg
                if fl >= q1:
                    fl -= q1
                for j in range(c + 1, width):
                    v = prow[j]
                    if v:
                        row[j] ^= exp[fl + log[v]]
    return det_log


def det(gf: GF, m) -> int:
    """Determinant by Gaussian elimination; exact over the field."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NonSquare(f"determinant needs a square matrix, got a {n}x{len(row)} row")
    det_log = _eliminate(gf, [list(row) for row in m], n)
    return 0 if det_log is None else gf.exp[det_log % (gf.order - 1)]


def solve(gf: GF, m, b) -> list[int]:
    """Solve M x = b for square invertible M."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NonSquare(f"solve needs a square matrix, got a {n}x{len(row)} row")
    if len(b) != n:
        raise DimensionMismatch(f"matrix is {n}x{n}, rhs has length {len(b)}")
    a = [list(row) + [bv] for row, bv in zip(m, b)]
    if _eliminate(gf, a, n) is None:
        raise Singular("matrix is singular")
    exp, log = gf.exp, gf.log
    q1 = gf.order - 1
    x = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = row[n]
        for j in range(r + 1, n):
            v = row[j]
            w = x[j]
            if v and w:
                acc ^= exp[log[v] + log[w]]
        if acc:
            x[r] = exp[log[acc] + q1 - log[row[r]]]
    return x
