"""Independent reference implementations the tests check the library against.

Nothing here may call into the code paths it verifies: multiplication is
bitwise carry-less multiply plus explicit reduction, inverses come from
exhaustive search over that multiply, and determinants come from Laplace
cofactor expansion on top of it, as do matrix products.
"""

from __future__ import annotations


def clmul_reduce(a: int, b: int, m: int, poly: int) -> int:
    """Carry-less polynomial product of a and b, reduced mod poly."""
    acc = 0
    for i in range(m):
        if (b >> i) & 1:
            acc ^= a << i
    for bit in range(2 * m - 2, m - 1, -1):
        if (acc >> bit) & 1:
            acc ^= poly << (bit - m)
    return acc


def brute_inverse(a: int, m: int, poly: int) -> int:
    """Exhaustive search for the multiplicative inverse."""
    if a == 0:
        raise ZeroDivisionError
    for b in range(1, 1 << m):
        if clmul_reduce(a, b, m, poly) == 1:
            return b
    raise AssertionError(f"no inverse for {a:#x}; polynomial not irreducible?")


def cofactor_det(rows, m: int, poly: int) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    acc = 0
    for j in range(n):
        v = rows[0][j]
        if v == 0:
            continue
        minor = [
            [row[c] for c in range(n) if c != j]
            for row in rows[1:]
        ]
        acc ^= clmul_reduce(v, cofactor_det(minor, m, poly), m, poly)
    return acc


def mat_vec(rows, x, m: int, poly: int) -> list[int]:
    """Matrix-vector product, every product by clmul_reduce."""
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, x, strict=True):
            acc ^= clmul_reduce(a, b, m, poly)
        out.append(acc)
    return out


def mat_mul(a, b, m: int, poly: int) -> list[list[int]]:
    """Matrix product, every product by clmul_reduce."""
    cols = list(zip(*b))
    return [mat_vec(cols, row, m, poly) for row in a]
