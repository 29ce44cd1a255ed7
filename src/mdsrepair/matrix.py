"""Exact dense linear algebra over GF(2^m): ``det`` and ``solve``.

Matrices are lists of rows, rows are lists (or tuples) of ints from one
field.  Inputs are never changed: elimination runs on copies.  Pivoting
picks the topmost nonzero entry in the leftmost unfinished column; exact
field arithmetic needs nothing fancier, and the fixed rule keeps runs
reproducible.  Row swaps never flip a determinant sign because -1 = 1 in
characteristic 2.

The determinant is the hot path of the whole package (it runs once per
column subset in the exhaustive MDS scans, mostly on 3x3 or smaller,
which have closed forms); ``solve`` serves coefficient solving and
decode, and records the last matrix it solved, with its inverse from the
second solve in a row (see ``solve``).  Both run one forward
elimination, ``_eliminate``, which indexes the field's tables directly
instead of calling per-element methods; the subset scan also calls it
and ``_back_substitute`` to rebase a block's columns.
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
    """Determinant; exact over the field.

    Sizes 0..3 have closed forms: 1, the entry, ad + bc, and Sarrus' six
    terms, grouped by the first row (characteristic 2 has no signs).
    Larger matrices go through Gaussian elimination.
    """
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NonSquare(f"determinant needs a square matrix, got a {n}x{len(row)} row")
    if n > 3:
        det_log = _eliminate(gf, [list(row) for row in m], n)
        return 0 if det_log is None else gf.exp[det_log % (gf.order - 1)]
    if n < 2:
        return m[0][0] if n else 1
    exp, log = gf.exp, gf.log
    if n == 2:
        (a, b), (c, d) = m
        return (exp[log[a] + log[d]] if a and d else 0) ^ (exp[log[b] + log[c]] if b and c else 0)
    (a, b, c), (d, e, f), (g, h, i) = m
    m1 = (exp[log[e] + log[i]] if e and i else 0) ^ (exp[log[f] + log[h]] if f and h else 0)
    m2 = (exp[log[d] + log[i]] if d and i else 0) ^ (exp[log[f] + log[g]] if f and g else 0)
    m3 = (exp[log[d] + log[h]] if d and h else 0) ^ (exp[log[e] + log[g]] if e and g else 0)
    return ((exp[log[a] + log[m1]] if a and m1 else 0) ^ (exp[log[b] + log[m2]] if b and m2 else 0)
            ^ (exp[log[c] + log[m3]] if c and m3 else 0))


def _back_substitute(gf: GF, a, n: int, c: int) -> list[int]:
    """x with U x = column c of the rows ``a``, U their n x n block after ``_eliminate``."""
    exp, log = gf.exp, gf.log
    q1 = gf.order - 1
    x = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = row[c]
        for j in range(r + 1, n):
            v = row[j]
            w = x[j]
            if v and w:
                acc ^= exp[log[v] + log[w]]
        if acc:
            x[r] = exp[log[acc] + q1 - log[row[r]]]
    return x


_last = (0, None, None, None)  # (field width, rows, inverse by column, its (exp, log))


def solve(gf: GF, m, b) -> list[int]:
    """Solve M x = b for square invertible M, given as a list or tuple of rows.

    A matrix equal to the last one solved (same field width, equal rows) is
    inverted on its second solve in a row; each later solve returns M^-1 b,
    indexing ``GF.data_tables`` once built.  Any other matrix is eliminated
    over [M | b] and becomes the record, so a one-off costs what it did.
    Answers never change.  The record is one tuple, read once and replaced
    whole: threads sharing it at worst solve afresh.
    """
    global _last
    if type(m) is not list:
        m = list(m)  # so the record, a list, matches a tuple of rows too
    n = len(m)
    last = _last
    same = last[1] == m and last[0] == gf.m
    if not same or last[2] is None:
        for row in m:
            if len(row) != n:
                raise NonSquare(f"solve needs a square matrix, got a {n}x{len(row)} row")
    if len(b) != n:
        raise DimensionMismatch(f"matrix is {n}x{n}, rhs has length {len(b)}")
    if not same:
        a = [[*row, bv] for row, bv in zip(m, b)]
        if _eliminate(gf, a, n) is None:
            raise Singular("matrix is singular")
        _last = (gf.m, m, None, None)  # not copied: it is read again before an inverse is built
        return _back_substitute(gf, a, n, n)
    inverse = last[2]
    if inverse is None:
        rows = [row[:] for row in m]  # copied, so the inverse cannot go stale
        a = [[*row, *(int(i == r) for i in range(n))] for r, row in enumerate(rows)]
        if _eliminate(gf, a, n) is None:  # [M | I]: column j of M^-1 solves M x = e_j
            raise Singular("matrix is singular")
        cols = [_back_substitute(gf, a, n, n + j) for j in range(n)]
        inverse = [[(r, gf.log[v]) for r, v in enumerate(col) if v] for col in cols]
        last = _last = (gf.m, rows, inverse, gf.data_tables(build=False))
    exp, log = last[3]
    x = [0] * n
    for terms, v in zip(inverse, b):  # column j of M^-1, times b_j
        if v:
            lv = log[v]
            for r, lc in terms:
                x[r] ^= exp[lc + lv]
    return x
