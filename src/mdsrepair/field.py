"""Arithmetic in GF(2^m) via log/antilog tables.

Field elements are plain ints in [0, 2^m).  Addition is XOR (characteristic
2, every element is its own additive inverse).  Multiplication goes through
precomputed exponent/logarithm tables for the generator x, so each product
costs two lookups and one add.

Only m = 8 and m = 16 are supported, each with one reduction polynomial
(DEFAULT_POLY); they are the symbol widths the codes here are built over.
"""

from __future__ import annotations

import random
from array import array

from .errors import BadPolynomial, NotASymbol, ZeroInverse

# Widely deployed primitive polynomials (x^m bit included).
DEFAULT_POLY = {
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}


class GF:
    """GF(2^m) reduced by DEFAULT_POLY[m], with tables built once.

    Both constants are primitive, so the powers of x run through all
    2^m - 1 nonzero elements; construction trusts this, and the test
    suite proves it over the whole tables.

    The table attributes are immutable after construction and safe to
    share across threads.  ``exp`` is doubled in length so callers may
    index ``exp[log[a] + log[b]]`` without a modulo.  They are tuples: the
    collector stops tracking a tuple of ints after its first pass, so
    later full collections skip their 3 * 2^m entries (for m = 16, about
    5 MiB with the int objects they point at).
    """

    __slots__ = ("m", "order", "poly", "exp", "log", "_data_tables")

    def __init__(self, m: int):
        if m not in DEFAULT_POLY:
            raise BadPolynomial(f"unsupported field width m={m}; expected 8 or 16")
        poly = DEFAULT_POLY[m]
        order = 1 << m
        exp = []
        log = [-1] * order
        x = 1
        for i in range(order - 1):
            exp.append(x)
            log[x] = i
            x <<= 1
            if x & order:
                x ^= poly

        self.m = m
        self.order = order
        self.poly = poly
        # rebinding drops each list before the next table is built, which
        # keeps the peak RSS where the lists left it
        log = tuple(log)
        exp = tuple(exp)
        self.exp = exp + exp  # doubled: exp[i] == exp[i + order - 1]
        self.log = log
        self._data_tables = (self.exp, log) if m == 8 else None

    def data_tables(self, build: bool = True) -> tuple:
        """(exp, log) for kernels that index them at data symbols.

        Such lookups land at random.  For m = 16 the tuples and their int
        objects span about 5 MiB and miss cache, so these kernels get
        typed-array copies (0.5 MiB), built on first use; with ``build``
        false the tuples serve until a kernel has built them.  For m = 8
        the tuples, small and quicker to index, are the data tables.
        """
        if self._data_tables is None and build:
            self._data_tables = (array("H", self.exp), array("i", self.log))
        return self._data_tables or (self.exp, self.log)

    def is_symbol(self, x) -> bool:
        """Whether ``x`` is a field symbol: an int, not a bool, in 0..|F|-1."""
        return type(x) is int and 0 <= x < self.order

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if not self.is_symbol(a):
            raise NotASymbol(f"{a!r} is not a symbol of GF(2^{self.m})")
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self.exp[self.order - 1 - self.log[a]]

    def random_element(self, rng: random.Random) -> int:
        """Uniform draw over all 2^m elements (zero included)."""
        return rng.randrange(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self) -> str:
        return f"GF(2^{self.m}, poly=0x{self.poly:x})"
