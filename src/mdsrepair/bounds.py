"""Repair-bandwidth lower bounds and the field-size threshold.

All arithmetic here is exact (ints and fractions.Fraction): the claim that
the repair scheme *achieves* the minimum is an exact-equality claim, so
nothing in this module may round.  An amount of symbols is an int (not a
bool) or a Fraction, and a count of nodes is an int; anything else raises
BadShape.  ``fractions`` is imported where it is used, not at module
level, so a command that never computes a bound does not load it.

Units are symbols (field elements).  Multiply by the field width m to get
bits.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import BadShape


def is_amount(x) -> bool:
    """Whether ``x`` is an exact amount of symbols: an int, not a bool, or a Fraction."""
    if type(x) is int:
        return True
    from fractions import Fraction

    return isinstance(x, Fraction)


def check_ints(**values) -> None:
    """Raise BadShape unless every value is an int, not a bool."""
    for value in values.values():
        if type(value) is not int:
            got = ", ".join(f"{name}={v!r}" for name, v in values.items())
            noun = "ints" if len(values) > 1 else "an int"
            raise BadShape(f"{' and '.join(values)} must be {noun}, got {got}")


def cut_bound(file_size: int | Fraction, k: int, d: int) -> Fraction:
    """Minimum total symbols any repair from d helpers must move.

    For a file of ``file_size`` symbols stored across an (n, k)-MDS layout
    with per-node storage file_size/k, a replacement node reading from d
    survivors must download at least file_size*d / (k*(d-k+1)) symbols,
    whatever the code.  Exact rational, never floating point.
    """
    from fractions import Fraction

    check_ints(k=k, d=d)
    if not is_amount(file_size):
        raise BadShape(f"file_size must be an int or a Fraction, got {file_size!r}")
    if k < 1:
        raise BadShape(f"k must be >= 1, got {k}")
    if d < k:
        raise BadShape(f"need at least k={k} helpers, got d={d}")
    if file_size <= 0:
        raise BadShape("file_size must be positive")
    return Fraction(file_size * d, k * (d - k + 1))


def find_cut_violation(file_size, node_storage, downloads, k: int) -> tuple[int, ...] | None:
    """First (k-1)-subset of helpers whose cut inequality fails, else None.

    One repair's traffic, in amounts (see ``is_amount``): a file of
    file_size > 0 symbols, node_storage per node (file_size / k for an MDS
    layout), and the downloads from each of d helpers, none negative.
    Each (k-1)-subset P of the helpers induces the constraint

        (k - 1) * node_storage + sum of downloads outside P >= file_size

    (a data collector reading the replacement node plus the k-1 nodes in P
    must still see a full file's worth of information).  Subsets are
    enumerated in lexicographic order; helper indices are 0-based.
    """
    try:
        downloads = tuple(downloads)
    except TypeError:
        raise BadShape(f"downloads must be amounts, one per helper, got {downloads!r}") from None
    if not all(map(is_amount, (file_size, node_storage, *downloads))):
        raise BadShape(
            f"amounts must be ints or Fractions, got file_size={file_size!r}, "
            f"node_storage={node_storage!r}, downloads={downloads!r}"
        )
    if file_size <= 0:
        raise BadShape("file_size must be positive")
    if node_storage < 0 or any(b < 0 for b in downloads):
        raise BadShape("storage and download amounts must be nonnegative")
    check_ints(k=k)
    if k < 1:
        raise BadShape(f"k must be >= 1, got {k}")
    d = len(downloads)
    if d < k:
        raise BadShape(f"plan has d={d} helpers, need at least k={k}")
    total = sum(downloads)
    base = (k - 1) * node_storage  # exact: amounts are ints or Fractions
    for subset in combinations(range(d), k - 1):
        inside = sum(downloads[i] for i in subset)
        if base + (total - inside) < file_size:
            return subset
    return None


def check_shape(n: int, k: int) -> None:
    """Raise BadShape unless n and k are ints (not bools) with 1 <= k and 2k <= n."""
    check_ints(n=n, k=k)
    if k < 1:
        raise BadShape(f"k must be >= 1, got {k}")
    if 2 * k > n:
        raise BadShape(f"shape requires 2k <= n, got n={n}, k={k}")


def degree_bound(n: int, k: int) -> int:
    """Threshold d0 = 2 * C(2n-1, 2k-1); the field must satisfy |F| > d0.

    This bounds the total degree of the polynomial whose nonvanishing
    certifies one repair draw, hence (Schwartz-Zippel) the per-draw
    rejection probability is at most d0 / |F|.
    """
    check_shape(n, k)
    return 2 * math.comb(2 * n - 1, 2 * k - 1)


def degree_bound_reaches(n: int, k: int, limit: int) -> bool:
    """Whether degree_bound(n, k) >= limit, for a shape it accepts.

    C(2n-2k+i, i) never decreases over i = 1..2k-1 and ends at C(2n-1, 2k-1),
    so the walk stops as soon as twice it reaches ``limit``: d0 is never built.
    """
    c = 1
    for i in range(1, 2 * k):
        c = c * (2 * n - 2 * k + i) // i
        if 2 * c >= limit:
            return True
    return False
