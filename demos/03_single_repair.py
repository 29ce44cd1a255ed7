#!/usr/bin/env python3
"""One repair, end to end: draw coefficients, rebuild, verify.

Node 4 fails.  The replacement contacts helpers 1..3 and downloads ONE
blended symbol from each (3 symbols total per stripe, versus 4 for naive
decode-and-reencode).  The u symbol is rebuilt exactly; the v column is
allowed to land anywhere that keeps all 70 column subsets full rank.
"""

import random

from mdsrepair import (
    GF,
    dot,
    encode,
    find_mds_violation,
    init_systematic,
    rebuild_symbols,
    repair,
)


def main():
    gf = GF(16)
    state = init_systematic(4, 2, gf)
    rng = random.Random(2024)

    failed, helpers = 4, (1, 2, 3)
    new_state, t = repair(state, failed, helpers, rng)

    print(f"failed node {t.failed}, helpers {t.helpers}, "
          f"rejected draws: {t.retries}")
    print(f"drawn free coefficients: alpha1=0x{t.alpha[0]:04x} "
          f"beta1=0x{t.beta[0]:04x} rho={[f'{r:04x}' for r in t.rho]}")
    print("solved per-helper blend coefficients:")
    for h, a, b in zip(t.helpers, t.alpha, t.beta):
        print(f"  helper {h}: alpha=0x{a:04x} beta=0x{b:04x}")
    print()

    print(f"old v4 = {[f'{v:04x}' for v in state.v_cols[3]]}")
    print(f"new v4 = {[f'{v:04x}' for v in new_state.v_cols[3]]}  (functional repair)")
    print(f"u columns unchanged: {new_state.u_cols == state.u_cols}")
    print(f"post-repair mds check (70 subsets): {find_mds_violation(new_state) is None}")
    print()

    stripe = tuple(gf.random_element(rng) for _ in range(4))
    symbols = encode(state, stripe)  # (x.u1, x.v1, ..., x.u4, x.v4)
    helper_symbols = [s for h in helpers for s in symbols[2 * h - 2 : 2 * h]]
    sym_u, sym_v = rebuild_symbols(new_state, helper_symbols, t)
    print(f"stripe-level replay with x = {[f'{v:04x}' for v in stripe]}:")
    print(f"  rebuilt sym_u = 0x{sym_u:04x}, "
          f"expected x.u4 = 0x{dot(gf, new_state.u_cols[3], stripe):04x}")
    print(f"  rebuilt sym_v = 0x{sym_v:04x}, "
          f"expected x.v4' = 0x{dot(gf, new_state.v_cols[3], stripe):04x}")
    print(f"  downloaded 3 symbols for this stripe; naive repair needs 4")


if __name__ == "__main__":
    main()
