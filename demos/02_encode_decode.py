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
    symbols = encode(state, stripe)  # (x.u1, x.v1, ..., x.u4, x.v4)
    print(f"stripe  = {[f'{v:02x}' for v in stripe]}")
    for node in range(1, 5):
        sym_u, sym_v = symbols[2 * node - 2 : 2 * node]
        print(f"  node {node} stores (sym_u=0x{sym_u:02x}, sym_v=0x{sym_v:02x})")
    print()

    print("decode from every pair of nodes:")
    for nodes in combinations(range(1, 5), 2):
        picked = [s for node in nodes for s in symbols[2 * node - 2 : 2 * node]]
        got = decode(state, nodes, picked)
        names = " and ".join(map(str, nodes))
        print(f"  nodes {names}: {[f'{v:02x}' for v in got]}  "
              f"{'ok' if got == stripe else 'MISMATCH'}")
    print()

    direct = read_systematic(state, symbols[0::2])  # u symbols of nodes 1..4
    print(f"systematic read (no arithmetic at all): "
          f"{[f'{v:02x}' for v in direct]}  {'ok' if direct == stripe else 'MISMATCH'}")

if __name__ == "__main__":
    main()
