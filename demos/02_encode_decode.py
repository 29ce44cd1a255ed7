#!/usr/bin/env python3
"""Encode a stripe across nodes and recover it from every k-subset.

A (4,2) code: 4 nodes, any 2 of them reconstruct the data.  Each node
stores two symbols per stripe (dot products with its u and v columns).
Nodes 1..4 are systematic: their u symbols ARE the information symbols.
"""

from itertools import combinations

from mdsrepair import (
    GF,
    decode,
    encode,
    find_mds_violation,
    init_systematic,
    read_systematic,
)


def main():
    gf = GF(8)
    state = init_systematic(4, 2, gf)
    print(f"code: n={state.n} k={state.k} over {gf}")
    print(f"mds check over all 70 column subsets: {find_mds_violation(state) is None}")
    print()

    print("u columns (frozen forever):")
    for i, col in enumerate(state.u_cols, start=1):
        print(f"  u{i} = {[f'{v:02x}' for v in col]}")
    print("v columns (evolve under repair):")
    for i, col in enumerate(state.v_cols, start=1):
        print(f"  v{i} = {[f'{v:02x}' for v in col]}")
    print()

    stripe = (0xDE, 0xAD, 0xBE, 0xEF)
    contents = encode(state, stripe)
    print(f"stripe  = {[f'{v:02x}' for v in stripe]}")
    for c in contents:
        print(f"  node {c.node} stores (sym_u=0x{c.sym_u:02x}, sym_v=0x{c.sym_v:02x})")
    print()

    print("decode from every pair of nodes:")
    for subset in combinations(range(4), 2):
        got = decode(state, [contents[i] for i in subset])
        names = " and ".join(str(i + 1) for i in subset)
        print(f"  nodes {names}: {[f'{v:02x}' for v in got]}  "
              f"{'ok' if got == stripe else 'MISMATCH'}")
    print()

    direct = read_systematic(state, contents)
    print(f"systematic read (no arithmetic at all): "
          f"{[f'{v:02x}' for v in direct]}  {'ok' if direct == stripe else 'MISMATCH'}")


if __name__ == "__main__":
    main()
