#!/usr/bin/env python3
"""Tour of the GF(2^m) arithmetic layer.

Shows the table-driven operations, the axioms they satisfy, and that a
field width other than 8 or 16 is rejected at construction time.
"""

import random

from mdsrepair import GF
from mdsrepair.errors import BadPolynomial


def main():
    gf = GF(8)
    print(f"field: {gf}  (order {gf.order})")
    print()

    a, b = 0x53, 0xCA
    print(f"0x{a:02x} + 0x{b:02x}  = 0x{a ^ b:02x}   (addition is XOR: carryless)")
    print(f"mul(0x03, 0x07)  = 0x{gf.mul(0x03, 0x07):02x}   (product below degree 8)")
    print(f"mul(0x80, 0x02)  = 0x{gf.mul(0x80, 0x02):02x}   (one reduction by 0x11d)")
    print(f"inv(0x02)        = 0x{gf.inv(0x02):02x}   check: mul(0x02, inv) = "
          f"{gf.mul(2, gf.inv(2))}")
    print()

    rng = random.Random(1)
    x, y, z = (gf.random_element(rng) for _ in range(3))
    print(f"random elements from seed 1: {x:#04x} {y:#04x} {z:#04x}")
    print(f"  (x+y)+z == x+(y+z): {(x ^ y) ^ z == x ^ (y ^ z)}")
    print(f"  (xy)z == x(yz):     {gf.mul(gf.mul(x, y), z) == gf.mul(x, gf.mul(y, z))}")
    print(f"  x(y+z) == xy+xz:    "
          f"{gf.mul(x, y ^ z) == gf.mul(x, y) ^ gf.mul(x, z)}")
    print(f"  x + x == 0:         {x ^ x == 0}  (characteristic 2)")
    print()

    print("each width has one primitive polynomial; any other width fails fast:")
    try:
        GF(12)
    except BadPolynomial as e:
        print(f"  GF(12) -> BadPolynomial: {e}")

    big = GF(16)
    print(f"\nthe default working field is {big}: large enough that random")
    print("repair draws are almost never rejected (see demo 03).")


if __name__ == "__main__":
    main()
