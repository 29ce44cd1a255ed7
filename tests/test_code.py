import copy
import math
import pickle
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mdsrepair import matrix
from mdsrepair.code import (
    CodeState,
    all_columns,
    column_label,
    decode,
    dot,
    encode,
    find_mds_violation,
    first_singular,
    init_systematic,
    read_systematic,
)
from mdsrepair.errors import BadShape, DimensionMismatch, FieldTooSmall, ReadOnly
from mdsrepair.field import GF
from mdsrepair.repair import default_helpers, repair

from oracles import cofactor_det, plain_first_singular

GF256 = GF(8)
GF65536 = GF(16)
STATE_4_2 = init_systematic(4, 2, GF256)

stripes_4 = st.lists(st.integers(0, 255), min_size=4, max_size=4).map(tuple)


def test_init_shape_and_systematic_columns():
    st4 = STATE_4_2
    assert st4.n == 4 and st4.k == 2 and st4.epoch == 0
    assert st4.u_cols[0] == (1, 0, 0, 0)
    assert st4.u_cols[1] == (0, 1, 0, 0)
    assert st4.u_cols[2] == (0, 0, 1, 0)
    assert st4.u_cols[3] == (0, 0, 0, 1)
    assert len(st4.v_cols) == 4
    assert all(len(c) == 4 for c in st4.v_cols)


def test_init_is_mds_against_independent_rank_oracle():
    cols = all_columns(STATE_4_2)
    assert len(cols) == 8
    checked = 0
    for subset in combinations(range(8), 4):
        rows = [cols[i] for i in subset]  # det(A^T) == det(A)
        assert cofactor_det(rows, 8, 0x11D) != 0, subset
        checked += 1
    assert checked == 70
    assert find_mds_violation(STATE_4_2) is None


def test_init_6_3_is_mds(gf65536):
    state = init_systematic(6, 3, gf65536)
    assert find_mds_violation(state) is None


def test_init_rejects_bad_shapes():
    with pytest.raises(BadShape):
        init_systematic(3, 2, GF256)
    with pytest.raises(BadShape):
        init_systematic(4, 0, GF256)


@pytest.mark.parametrize("n, k", [(4, 2.0), (4.0, 2), ("4", 2), (True, 1)])
def test_init_rejects_non_int_shapes(n, k):
    with pytest.raises(BadShape, match="must be ints"):
        init_systematic(n, k, GF256)


def test_init_rejects_small_field(gf65536):
    # d0(6,3) = 924 needs |F| > 924
    with pytest.raises(FieldTooSmall, match=r"d0 = 2\*C\(2n-1, 2k-1\) = 924 "):
        init_systematic(6, 3, GF256)
    state = init_systematic(6, 3, gf65536)
    assert state.n == 6


def test_init_deterministic_and_seed_independent():
    # the construction draws nothing, so it takes no seed at all
    assert init_systematic(4, 2, GF(8)) == STATE_4_2
    with pytest.raises(TypeError):
        init_systematic(4, 2, GF256, seed=99)


def test_duplicated_column_breaks_mds():
    v_cols = list(STATE_4_2.v_cols)
    v_cols[0] = STATE_4_2.u_cols[0]
    broken = CodeState(4, 2, GF256, STATE_4_2.u_cols, tuple(v_cols))
    violation = find_mds_violation(broken)
    assert violation is not None
    # both copies of the duplicated column sit in the reported subset
    assert 0 in violation and 4 in violation
    labels = [column_label(broken, p) for p in violation]
    assert "u1" in labels and "v1" in labels


def test_column_labels():
    assert column_label(STATE_4_2, 0) == "u1"
    assert column_label(STATE_4_2, 3) == "u4"
    assert column_label(STATE_4_2, 4) == "v1"
    assert column_label(STATE_4_2, 7) == "v4"


def u_symbols(symbols):
    """The u symbols of nodes 1..n from an encode output."""
    return symbols[0::2]


def node_symbols(symbols, nodes):
    """Each node's (u, v) symbols, flattened in the order of ``nodes``."""
    return [symbols[2 * (node - 1) + j] for node in nodes for j in (0, 1)]


def test_encode_unit_and_zero_stripes():
    for j in range(4):
        stripe = tuple(1 if i == j else 0 for i in range(4))
        symbols = encode(STATE_4_2, stripe)
        assert len(symbols) == 8
        assert u_symbols(symbols)[j] == 1  # systematic column j+1 exposes x_j
    assert encode(STATE_4_2, (0, 0, 0, 0)) == [0] * 8


def test_encode_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        encode(STATE_4_2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        encode(STATE_4_2, (1, 2, 3, 4, 5))


@given(stripes_4)
def test_encode_matches_dot_oracle(stripe):
    symbols = encode(STATE_4_2, stripe)
    for i in range(4):
        want_u = 0
        want_v = 0
        for r in range(4):
            want_u ^= GF256.mul(STATE_4_2.u_cols[i][r], stripe[r])
            want_v ^= GF256.mul(STATE_4_2.v_cols[i][r], stripe[r])
        assert (symbols[2 * i], symbols[2 * i + 1]) == (want_u, want_v)


def test_encode_terms_leave_equality_alone():
    state = init_systematic(4, 2, GF256)
    assert len(state.encode_terms) == 8
    assert state.encode_terms[0] == ((0, 0),)  # u_1 = e_1, log 1 = 0
    assert state == STATE_4_2 and hash(state) == hash(STATE_4_2)
    repaired = state.repaired(1, STATE_4_2.v_cols[1])
    assert repaired.encode_terms[1] == state.encode_terms[3]  # v_1 := v_2



def test_code_state_is_an_immutable_value():
    state = init_systematic(4, 2, GF256)
    for assign in (lambda: setattr(state, "epoch", 1), lambda: delattr(state, "v_cols")):
        with pytest.raises(ReadOnly):
            assign()
        with pytest.raises(AttributeError):
            assign()
    assert state.epoch == 0
    assert repr(state) == (
        f"CodeState(n=4, k=2, field=GF(2^8, poly=0x11d), u_cols={state.u_cols!r}, "
        f"v_cols={state.v_cols!r}, epoch=0)"
    )
    assert state != state.repaired(1, state.v_cols[0])  # same columns, next epoch
    assert state != (4, 2, GF256, state.u_cols, state.v_cols, 0)
    state.encode_terms  # the cache is not a field: copies and equality ignore it
    for twin in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert twin == state and hash(twin) == hash(state)
        assert twin.encode_terms == state.encode_terms

@given(stripes_4)
def test_decode_every_k_subset(stripe):
    symbols = encode(STATE_4_2, stripe)
    for nodes in combinations(range(1, 5), 2):
        assert decode(STATE_4_2, nodes, node_symbols(symbols, nodes)) == stripe


def test_decode_from_systematic_pair_by_hand():
    stripe = (7, 11, 13, 17)
    symbols = [
        stripe[0], dot(GF256, STATE_4_2.v_cols[0], stripe),
        stripe[1], dot(GF256, STATE_4_2.v_cols[1], stripe),
    ]
    assert decode(STATE_4_2, (1, 2), symbols) == stripe


def test_decode_validates_inputs():
    symbols = encode(STATE_4_2, (1, 2, 3, 4))
    with pytest.raises(DimensionMismatch):
        decode(STATE_4_2, (1,), node_symbols(symbols, (1,)))
    with pytest.raises(DimensionMismatch):
        decode(STATE_4_2, (1, 1), node_symbols(symbols, (1, 1)))
    with pytest.raises(DimensionMismatch):
        decode(STATE_4_2, (1, 2), node_symbols(symbols, (1, 2))[:3])


@given(stripes_4)
def test_read_systematic_is_identity(stripe):
    symbols = encode(STATE_4_2, stripe)
    assert read_systematic(STATE_4_2, u_symbols(symbols)) == stripe


def test_read_systematic_agrees_with_decode():
    rng = random.Random(8)
    for _ in range(25):
        stripe = tuple(rng.randrange(256) for _ in range(4))
        symbols = encode(STATE_4_2, stripe)
        assert read_systematic(STATE_4_2, u_symbols(symbols)) == decode(
            STATE_4_2, (1, 2), node_symbols(symbols, (1, 2))
        )


def test_read_systematic_missing_node():
    symbols = encode(STATE_4_2, (1, 2, 3, 4))
    with pytest.raises(DimensionMismatch):
        read_systematic(STATE_4_2, u_symbols(symbols)[:3])  # node 4 absent, dim=4 needed


def test_read_systematic_zero():
    symbols = encode(STATE_4_2, (0, 0, 0, 0))
    assert read_systematic(STATE_4_2, u_symbols(symbols)) == (0, 0, 0, 0)


def test_n2_k1_initializes_but_is_tiny():
    # 2k <= n holds and d0(2,1) = 6 < 256; encode/decode work
    state = init_systematic(2, 1, GF256)
    stripe = (3, 9)
    symbols = encode(state, stripe)
    assert decode(state, (2,), node_symbols(symbols, (2,))) == stripe


@pytest.mark.parametrize("n, k, message", [
    (10**5, 5 * 10**4, "need 2n=200000 distinct field points"),
    (32768, 16384, "<= d0 = 2*C(2n-1, 2k-1) for (n=32768, k=16384)"),
])
def test_init_rejects_absurd_shapes_fast(monkeypatch, gf65536, n, k, message):
    # 2n > |F| is checked first and d0 >= |F| is decided without building
    # the binomial; a d0 past 2^64 is named by its formula, never formatted
    comb = math.comb

    def small_comb(*args):
        if max(args) > 10_000:
            raise AssertionError(f"math.comb{args} builds a huge binomial")
        return comb(*args)

    monkeypatch.setattr(math, "comb", small_comb)
    start = time.perf_counter()
    with pytest.raises(FieldTooSmall) as exc:
        init_systematic(n, k, gf65536)
    assert time.perf_counter() - start < 1.0
    assert message in str(exc.value)


def counted_dets(scan, *args):
    """(scan(*args), the matrix sizes of the dets it ran, in call order)."""
    sizes = []
    det = matrix.det

    def counting(gf, m):
        sizes.append(len(m))
        return det(gf, m)

    matrix.det = counting
    try:
        return scan(*args), sizes
    finally:
        matrix.det = det


def test_scan_strikes_unit_columns():
    # u_1..u_4 are the unit columns: each one in a subset takes a row and
    # a column off that subset's det, and the det count stays C(8, 4)
    cols = all_columns(STATE_4_2)
    assert counted_dets(first_singular, GF256, cols, 4) == (
        None,
        [4 - sum(i < 4 for i in subset) for subset in combinations(range(8), 4)],
    )


def test_scan_two_unit_columns_on_one_row():
    # 3*e_1 beside u_1: the first subset holding both is singular.  u_1..u_3
    # take rows 1..3, and 3*e_1 stays in as the 1 x 1 zero matrix on row 4
    cols = all_columns(STATE_4_2)[:7] + ((3, 0, 0, 0),)
    got, sizes = counted_dets(first_singular, GF256, cols, 4)
    assert got == (0, 1, 2, 7)
    assert sizes[-1] == 1 and len(sizes) == list(combinations(range(8), 4)).index(got) + 1


def plant(rng, cols, kind, gf):
    """Overwrite one or two columns of ``cols`` (a list) with a planted case."""
    dim = len(cols[0])
    p, q = rng.sample(range(len(cols)), 2)
    scale = rng.randrange(2, gf.order)

    def unit(row):
        return tuple(scale if r == row else 0 for r in range(dim))

    if kind == "duplicate":
        cols[p] = cols[q]
    elif kind == "scaled":
        cols[p] = tuple(gf.mul(scale, e) for e in cols[q])
    elif kind == "zero":
        cols[p] = (0,) * dim
    elif kind == "scaled unit":
        cols[p] = unit(rng.randrange(dim))
    elif kind == "unit pair":
        row = rng.randrange(dim)
        cols[p], cols[q] = unit(row), tuple(gf.mul(scale, e) for e in unit(row))


def plant_in_block(rng, cols, size, gf):
    """Rebuild a column from all but one of P's columns in a rebased block.

    u_1..u_2k lead ``cols``.  The block that strikes u_1..u_a starts with
    the subset taking the next size - a columns, P's columns; P is larger
    than 3x3 when a < 2k - 3, and the block has later subsets when a column
    follows P's.  Such a later column, rebuilt from all of P's columns but
    one, makes the block's subset holding it and them singular, while each
    subset before the block strikes more rows and holds too few columns to
    contain them.  Returns that subset.
    """
    dim = len(cols[0])
    a = rng.randrange(dim + size + 1 - len(cols), dim - 3)
    pivots = range(dim, dim + size - a)
    kept = sorted(rng.sample(pivots, len(pivots) - 1))
    later = rng.randrange(pivots[-1] + 1, len(cols))
    col = (0,) * dim
    for i in kept:
        scale = rng.randrange(1, gf.order)
        col = tuple(x ^ gf.mul(scale, e) for x, e in zip(col, cols[i]))
    cols[later] = col
    return (*range(a), *kept, later)


SCAN_STATES = {(4, 2): STATE_4_2, (6, 3): init_systematic(6, 3, GF65536)}


def scan_against_oracle(state, kind, seed, with_extra):
    """Repair ``state`` up to twice, plant ``kind``, and hold the strike to the
    oracle's subset and det count.  Returns (subset, det sizes, planted subset)."""
    rng = random.Random(seed)
    for _ in range(rng.randrange(3)):
        failed = rng.randrange(state.n) + 1
        state = repair(state, failed, default_helpers(state, failed), rng)[0]
    gf, size = state.field, state.dim
    cols = list(all_columns(state))
    planted, extra = None, ()
    if kind == "rebased block":
        if with_extra:  # a v column's acceptance scan: the candidate goes last
            size -= 1
            extra = (rng.choice([
                cols.pop(rng.randrange(state.dim, len(cols))),
                tuple(rng.randrange(gf.order) for _ in range(state.dim)),
            ]),)
        planted = plant_in_block(rng, cols, size, gf)
    else:
        plant(rng, cols, kind, gf)
    if with_extra and not extra:
        size -= 1
        dropped = cols.pop(rng.randrange(len(cols)))
        extra = (rng.choice([
            dropped,
            tuple(rng.randrange(gf.order) for _ in range(state.dim)),
            tuple(rng.randrange(1, gf.order) if r == 0 else 0 for r in range(state.dim)),
        ]),)
    got, sizes = counted_dets(first_singular, gf, cols, size, extra)
    want, full_sizes = counted_dets(plain_first_singular, gf, cols, size, extra)
    assert got == want
    assert len(sizes) == len(full_sizes)
    assert all(s <= state.dim for s in sizes) and set(full_sizes) <= {state.dim}
    if kind not in ("none", "scaled unit", "rebased block") and not with_extra:
        assert got is not None
    if planted:  # the planted subset or, rarely, an earlier one
        assert got is not None and got <= planted
        if got == planted:  # its det: Q's row of the missing P column at the rebuilt column
            assert sizes[-1] == 1
    return got, sizes, planted


@pytest.mark.parametrize(
    "kind", ["none", "duplicate", "scaled", "zero", "scaled unit", "unit pair", "rebased block"]
)
@settings(max_examples=12)
@given(
    shape=st.sampled_from(sorted(SCAN_STATES)),
    seed=st.integers(0, 2**32 - 1),
    with_extra=st.booleans(),
)
def test_scan_matches_full_det_oracle(kind, shape, seed, with_extra):
    """The strike returns the oracle's subset after the oracle's det count,
    on drawn repaired states with planted columns, with and without extra.
    A rebased block needs P larger than 3x3 and a later subset: (6, 3) on."""
    if kind == "rebased block" and shape == (4, 2):
        shape = (6, 3)
    scan_against_oracle(SCAN_STATES[shape], kind, seed, with_extra)


@pytest.mark.parametrize("seed, with_extra", [(84, False), (48, True)])
def test_scan_matches_full_det_oracle_in_an_8_4_rebased_block(seed, with_extra):
    state = init_systematic(8, 4, GF65536)
    got, sizes, planted = scan_against_oracle(state, "rebased block", seed, with_extra)
    assert got == planted and sizes[-1] == 1


@pytest.mark.parametrize("accept", [False, True], ids=["full scan", "acceptance scan"])
def test_scan_dets_after_each_block_start_are_at_most_3x3(accept):
    # (6, 3): a block striking a of u_1..u_6 starts with a (6-a)x(6-a) det.
    # For a <= 2 each later subset takes the det of Q's rows of the P
    # columns it lacks at its columns outside P; else the (6-a)x(6-a) det
    rng = random.Random(63)
    state = SCAN_STATES[(6, 3)]
    for failed in (1, 6, 2):
        state = repair(state, failed, default_helpers(state, failed), rng)[0]
    cols, size, extra = all_columns(state), 6, ()
    if accept:  # v_6 checked as the candidate for node 6
        cols, size, extra = cols[:-1], 5, cols[-1:]
    got, sizes = counted_dets(first_singular, state.field, cols, size, extra)
    assert got is None
    starts, base, want = set(), {}, []
    for rank, subset in enumerate(combinations(range(len(cols)), size)):
        units = tuple(i for i in subset if i < 6)
        rest = {i for i in subset if i >= 6}
        if units not in base:
            base[units] = rest
            starts.add(rank)
        want.append(len(rest - base[units]) if len(units) <= 2 and rank not in starts
                    else 6 - len(units))
    assert sizes == want
    assert max(s for rank, s in enumerate(sizes) if rank not in starts) <= 3


def test_scan_second_unit_column_in_a_rebased_block():
    # u_1, five parity columns, then 3*e_1: the block striking row 1 starts
    # with u_1 and the parity columns (P is 5x5), and its second subset takes
    # 3*e_1 for the last of them, a zero column of Q: a 1 x 1 zero det
    u, v = SCAN_STATES[(6, 3)].u_cols, SCAN_STATES[(6, 3)].v_cols
    cols = [u[0], *v[:5], (3, 0, 0, 0, 0, 0), *u[1:], v[5]]
    got, sizes = counted_dets(first_singular, GF65536, cols, 6)
    assert (got, sizes) == ((0, 1, 2, 3, 4, 6), [5, 1])
    assert plain_first_singular(GF65536, cols, 6) == got
