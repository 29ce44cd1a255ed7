"""Independent reference implementations the tests check the library against.

Nothing here may call into the code paths it verifies: multiplication is
bitwise carry-less multiply plus explicit reduction, inverses come from
exhaustive search over that multiply (or from a^(2^m - 2) by repeated
squaring), and determinants come from Laplace cofactor expansion on top
of it, as do matrix products and the Gauss-Jordan solve behind the
constructive repair witnesses.  The one exception is ``plain_first_singular``,
the subset scan without the unit-column strike: it calls the library's
``matrix.det`` (itself checked against ``cofactor_det``) so that tests can
hold the fast scan to the same subsets and the same number of dets.
"""

from __future__ import annotations

from itertools import combinations

from mdsrepair import matrix


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
    if n == 0:
        return 1  # the empty product
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


def plain_first_singular(gf, cols, size: int, extra=()) -> tuple[int, ...] | None:
    """First ``size``-subset S of ``cols`` with det([S | extra]) == 0, or None.

    Lexicographic order, one full 2k x 2k ``matrix.det`` per subset (looked
    up on the module at each call, so a test can count it), the columns fed
    as rows.
    """
    extra = list(extra)
    for subset in combinations(range(len(cols)), size):
        if matrix.det(gf, [cols[i] for i in subset] + extra) == 0:
            return subset
    return None


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


def pow_inverse(a: int, m: int, poly: int) -> int:
    """a^(2^m - 2) = a^-1 by square-and-multiply, every product by clmul_reduce."""
    if a == 0:
        raise ZeroDivisionError
    result, base, e = 1, a, (1 << m) - 2
    while e:
        if e & 1:
            result = clmul_reduce(result, base, m, poly)
        base = clmul_reduce(base, base, m, poly)
        e >>= 1
    return result


def gauss_solve(rows, rhs, m: int, poly: int) -> list[int]:
    """x with rows @ x == rhs, by Gauss-Jordan elimination on clmul_reduce."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs, strict=True)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c]), None)
        if p is None:
            raise AssertionError("singular system")
        aug[c], aug[p] = aug[p], aug[c]
        inv = pow_inverse(aug[c][c], m, poly)
        aug[c] = [clmul_reduce(inv, x, m, poly) for x in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [x ^ clmul_reduce(f, y, m, poly) for x, y in zip(aug[r], aug[c])]
    return [row[n] for row in aug]


def pinned_eta(state, failed: int, helpers, fixed, values) -> list[int]:
    """Download coefficients eta = (alpha_1, beta_1, ..., alpha_(k+1), beta_(k+1))
    with the two positions ``fixed`` pinned to ``values``.

    The blends must sum to u_failed, so the other 2k entries are the
    unique solution of the square system on the remaining helper columns.
    """
    m, poly = state.field.m, state.field.poly
    cols = [col for h in helpers for col in state.node_columns(h)]
    rhs = list(state.u_cols[failed - 1])
    for pos, val in zip(fixed, values):
        rhs = [t ^ clmul_reduce(val, a, m, poly) for t, a in zip(rhs, cols[pos])]
    kept = [c for c in range(len(cols)) if c not in fixed]
    rows = [[cols[c][r] for c in kept] for r in range(state.dim)]
    eta = [0] * len(cols)
    for pos, val in zip(fixed, values):
        eta[pos] = val
    for pos, val in zip(kept, gauss_solve(rows, rhs, m, poly)):
        eta[pos] = val
    return eta


def subset_witness(state, failed: int, helpers, subset) -> tuple:
    """A draw (alpha1, beta1, rho) that clears one (2k-1)-subset of retained columns.

    Constructive existence argument: the 2k-1 retained columns in
    ``subset`` cannot cover all 2k+2 helper columns, so some helper has its
    u or v outside the subset.  Prescribing that helper's blend to be
    exactly that column (beta=1,alpha=0 for v; alpha=1,beta=0 for u),
    mapping the prescription back to the free (alpha1, beta1) pair, and
    putting the whole rho weight on that helper makes the replacement
    column equal the outside column, whose determinant against the subset
    is nonzero because the pre-repair code was MDS.  The witness targets
    this subset only; it generally fails the full acceptance scan.
    """
    helpers = tuple(helpers)
    picked = set(subset)
    v_ids = [i + 1 for i in range(state.n) if i + 1 != failed]
    pos_v = {node: state.n + idx for idx, node in enumerate(v_ids)}
    for t, h in enumerate(helpers):
        if pos_v[h] not in picked:
            pinned = (0, 1)  # replacement becomes v_h
        elif h - 1 not in picked:
            pinned = (1, 0)  # replacement becomes u_h
        else:
            continue
        eta = pinned_eta(state, failed, helpers, (2 * t, 2 * t + 1), pinned)
        rho = tuple(1 if i == t else 0 for i in range(state.k + 1))
        return eta[0], eta[1], rho
    raise AssertionError("no helper column outside the subset; counting argument violated")
