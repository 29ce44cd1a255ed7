"""Exact dense linear algebra over GF(2^m): ``det`` and ``solve``.

Matrices are lists of rows, rows are lists (or tuples) of ints from one
field.  Everything here is pure: inputs are copied before elimination.
Pivoting picks the topmost nonzero entry in the leftmost unfinished
column; exact field arithmetic needs nothing fancier, and the fixed rule
keeps runs reproducible.  Row swaps never flip a determinant sign because
-1 = 1 in characteristic 2.

The determinant is the hot path of the whole package (it runs once per
column subset in the exhaustive MDS scans); ``solve`` serves coefficient
solving and decode.  Both index the field's tables directly instead of
calling per-element methods.
"""

from __future__ import annotations

from .errors import DimensionMismatch, NonSquare, Singular
from .field import GF


def det(gf: GF, m) -> int:
    """Determinant by Gaussian elimination; exact over the field."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NonSquare(f"determinant needs a square matrix, got a {n}x{len(row)} row")
    a = [list(row) for row in m]
    exp, log = gf.exp, gf.log
    q1 = gf.order - 1
    det_log = 0
    for c in range(n):
        p = c
        while p < n and not a[p][c]:
            p += 1
        if p == n:
            return 0
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
                for j in range(c + 1, n):
                    v = prow[j]
                    if v:
                        row[j] ^= exp[fl + log[v]]
    return exp[det_log % q1]


def solve(gf: GF, m, b) -> list[int]:
    """Solve M x = b for square invertible M."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NonSquare(f"solve needs a square matrix, got a {n}x{len(row)} row")
    if len(b) != n:
        raise DimensionMismatch(f"matrix is {n}x{n}, rhs has length {len(b)}")
    a = [list(row) + [bv] for row, bv in zip(m, b)]
    exp, log = gf.exp, gf.log
    q1 = gf.order - 1
    for c in range(n):
        p = c
        while p < n and not a[p][c]:
            p += 1
        if p == n:
            raise Singular("matrix is singular")
        if p != c:
            a[c], a[p] = a[p], a[c]
        prow = a[c]
        neg = q1 - log[prow[c]]
        for r in range(c + 1, n):
            f = a[r][c]
            if f:
                row = a[r]
                fl = log[f] + neg
                if fl >= q1:
                    fl -= q1
                for j in range(c + 1, n + 1):
                    v = prow[j]
                    if v:
                        row[j] ^= exp[fl + log[v]]
                row[c] = 0
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
