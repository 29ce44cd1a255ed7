#!/usr/bin/env python3
"""The repair-bandwidth floor, and how this scheme sits exactly on it.

cut_bound(B, k, d) is the information-theoretic minimum traffic to repair
one node from d helpers when B symbols are stored MDS across n nodes at
B/k per node.  At d = k+1 with B = 2k per stripe, the floor is k+1
symbols, and that is literally what the repair engine downloads.
"""

from fractions import Fraction

from mdsrepair import cut_bound, degree_bound, find_cut_violation


def main():
    print("traffic floor for a B=12 symbol object, k=3:")
    print(f"  {'d':>3}  {'bound':>7}   note")
    for d in range(3, 9):
        bound = cut_bound(12, 3, d)
        note = ""
        if d == 3:
            note = "d=k: as bad as refetching the whole object"
        if d == 4:
            note = "d=k+1: the operating point of this scheme"
        print(f"  {d:>3}  {str(bound):>7}   {note}")
    print()

    for k in (2, 3):
        bound = cut_bound(2 * k, k, k + 1)
        print(f"k={k}: per-stripe floor from k+1 helpers = {bound} symbols; "
              f"scheme downloads {k + 1}; naive downloads {2 * k}; "
              f"ratio {Fraction(k + 1, 2 * k)}")
    print()

    print("per-subset cut inequalities for the realized plan (k=2):")
    violation = find_cut_violation(4, 2, (1, 1, 1), 2)
    print(f"  downloads (1,1,1), storage 2, stripe 4 symbols -> "
          f"{'all hold' if violation is None else f'violated at {violation}'}")
    print("  (each inequality holds with equality: the plan has zero slack)")
    print()

    print("field-size thresholds d0 (the field must be strictly larger):")
    for n, k in ((2, 1), (4, 2), (6, 3), (8, 4)):
        d0 = degree_bound(n, k)
        ok256 = "yes" if 256 > d0 else "no"
        ok65536 = "yes" if 65536 > d0 else "no"
        print(f"  (n={n}, k={k}): d0={d0:>6}   gf256 ok: {ok256:>3}   "
              f"gf65536 ok: {ok65536}")


if __name__ == "__main__":
    main()
