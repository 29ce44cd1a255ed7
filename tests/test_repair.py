import copy
import pickle
import random
from itertools import combinations

import pytest

from mdsrepair.bounds import degree_bound
from mdsrepair.code import CodeState, dot, encode, find_mds_violation, init_systematic
from mdsrepair.errors import (
    BadHelpers,
    DimensionMismatch,
    InvariantViolation,
    MdsRepairError,
    NotASymbol,
    ReadOnly,
    RetriesExhausted,
    UnsupportedShape,
)
from mdsrepair.field import GF
from mdsrepair.matrix import det
from mdsrepair.repair import (
    combine_replacement,
    default_helpers,
    find_replacement_conflict,
    rebuild_symbols,
    repair,
    repair_step,
    retained_columns,
    solve_coefficients,
    validate_helpers,
)

from oracles import pinned_eta, subset_witness

GF256 = GF(8)
STATE = init_systematic(4, 2, GF256)
HELPERS = (1, 2, 3)
FAILED = 4


class RejectingRng:
    """Draws only zeros: rho = 0 everywhere, so every attempt is rejected."""

    def randrange(self, n):
        return 0


def full_eta(alpha, beta):
    out = []
    for a, b in zip(alpha, beta):
        out += [a, b]
    return out


def blend_sum(state, helpers, alpha, beta):
    acc = [0] * state.dim
    for h, a, b in zip(helpers, alpha, beta):
        u, v = state.node_columns(h)
        for r in range(state.dim):
            acc[r] ^= state.field.mul(a, u[r]) ^ state.field.mul(b, v[r])
    return tuple(acc)


def test_solve_coefficients_satisfies_download_identity():
    rng = random.Random(3)
    for _ in range(40):
        a1, b1 = rng.randrange(256), rng.randrange(256)
        alpha, beta = solve_coefficients(STATE, FAILED, HELPERS, a1, b1)
        assert alpha[0] == a1 and beta[0] == b1
        assert blend_sum(STATE, HELPERS, alpha, beta) == STATE.u_cols[FAILED - 1]


def test_solve_coefficients_injective_in_free_pair():
    seen = {}
    rng = random.Random(4)
    for _ in range(50):
        a1, b1 = rng.randrange(256), rng.randrange(256)
        eta = tuple(full_eta(*solve_coefficients(STATE, FAILED, HELPERS, a1, b1)))
        if (a1, b1) in seen:
            assert seen[(a1, b1)] == eta
        for key, other in seen.items():
            if key != (a1, b1):
                assert other != eta
        seen[(a1, b1)] = eta


def test_combine_replacement_zero_rho_gives_zero():
    alpha, beta = solve_coefficients(STATE, FAILED, HELPERS, 5, 9)
    v = combine_replacement(STATE, HELPERS, alpha, beta, (0, 0, 0))
    assert v == (0, 0, 0, 0)


def test_combine_replacement_single_rho_copies_column():
    # prescribe each helper's blend in turn to be exactly its v column
    helpers = HELPERS
    for t in range(3):
        eta = pinned_eta(STATE, FAILED, helpers, (2 * t, 2 * t + 1), (0, 1))
        alpha, beta = tuple(eta[0::2]), tuple(eta[1::2])
        rho = tuple(1 if i == t else 0 for i in range(3))
        v = combine_replacement(STATE, helpers, alpha, beta, rho)
        assert v == STATE.v_cols[helpers[t] - 1]


def test_combine_replacement_matches_direct_sum_oracle():
    rng = random.Random(9)
    for _ in range(30):
        alpha = tuple(rng.randrange(256) for _ in range(3))
        beta = tuple(rng.randrange(256) for _ in range(3))
        rho = tuple(rng.randrange(256) for _ in range(3))
        got = combine_replacement(STATE, HELPERS, alpha, beta, rho)
        want = [0, 0, 0, 0]
        for h, a, b, r in zip(HELPERS, alpha, beta, rho):
            u, v = STATE.node_columns(h)
            for idx in range(4):
                want[idx] ^= GF256.mul(r, GF256.mul(a, u[idx]) ^ GF256.mul(b, v[idx]))
        assert got == tuple(want)


def test_combine_replacement_length_mismatch():
    with pytest.raises(DimensionMismatch):
        combine_replacement(STATE, HELPERS, (1, 2), (3, 4, 5), (6, 7, 8))


def test_replacement_check_rejects_duplicates_and_zero():
    conflict = find_replacement_conflict(STATE, FAILED, STATE.u_cols[0])
    assert conflict is not None and 0 in conflict
    assert find_replacement_conflict(STATE, FAILED, STATE.v_cols[1]) is not None
    assert find_replacement_conflict(STATE, FAILED, (0, 0, 0, 0)) is not None


def test_replacement_check_accepts_the_old_column():
    # the failed node's own old v column is outside the retained set, and
    # putting it back reproduces the original MDS state
    kept = retained_columns(STATE, FAILED)
    assert STATE.v_cols[FAILED - 1] not in kept
    assert find_replacement_conflict(STATE, FAILED, STATE.v_cols[FAILED - 1]) is None


def test_retained_columns_order_and_labels():
    kept = retained_columns(STATE, 2)
    assert len(kept) == 7
    assert kept[:4] == list(STATE.u_cols)
    assert kept[4] == STATE.v_cols[0]
    assert kept[5] == STATE.v_cols[2]
    assert kept[6] == STATE.v_cols[3]


def test_repair_preserves_mds_and_changes_one_column():
    rng = random.Random(77)
    state2, t = repair(STATE, FAILED, HELPERS, rng)
    assert t.epoch_before == 0 and t.epoch_after == 1
    assert state2.epoch == 1
    assert find_mds_violation(state2) is None
    assert state2.u_cols == STATE.u_cols
    changed = [i for i in range(4) if state2.v_cols[i] != STATE.v_cols[i]]
    assert changed == [FAILED - 1]
    assert state2.v_cols[FAILED - 1] == t.v_new
    assert len(t.rho) == STATE.k + 1  # k+3 drawn coefficients in total



def test_transcript_is_an_immutable_value():
    _, t = repair(STATE, FAILED, HELPERS, random.Random(77))
    with pytest.raises(ReadOnly):
        t.retries = 0
    assert repr(t).startswith(f"RepairTranscript(failed={FAILED}, helpers={HELPERS!r}, alpha=")
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t and hash(twin) == hash(t)

def test_repair_same_node_twice_keeps_u_column():
    rng = random.Random(13)
    s1, t1 = repair(STATE, 2, (1, 3, 4), rng)
    s2, t2 = repair(s1, 2, (1, 3, 4), rng)
    assert s1.u_cols[1] == s2.u_cols[1] == STATE.u_cols[1]
    assert find_mds_violation(s2) is None


def test_repair_any_failed_node_any_helpers():
    rng = random.Random(5)
    for failed in range(1, 5):
        for helpers in combinations([h for h in range(1, 5) if h != failed], 3):
            state2, t = repair(STATE, failed, helpers, rng)
            assert find_mds_violation(state2) is None, (failed, helpers)


def test_repair_helper_validation():
    rng = random.Random(0)
    with pytest.raises(BadHelpers):
        repair(STATE, FAILED, (1, 2), rng)  # too few
    with pytest.raises(BadHelpers):
        repair(STATE, FAILED, (1, 2, 2), rng)  # duplicate
    with pytest.raises(BadHelpers):
        repair(STATE, FAILED, (1, 2, FAILED), rng)  # includes failed
    with pytest.raises(BadHelpers):
        repair(STATE, FAILED, (1, 2, 9), rng)  # out of range
    with pytest.raises(BadHelpers):
        repair(STATE, 99, (1, 2, 3), rng)  # failed out of range


def test_duplicate_helpers_named_before_bad_ids():
    # duplicates are found by equality, so unhashable ids cannot hide them
    for helpers in ((1, 1, 9), ([2], [2], 3)):
        with pytest.raises(BadHelpers, match="duplicate helpers"):
            repair(STATE, FAILED, helpers, random.Random(0))


@pytest.mark.parametrize("failed", [0, 5, 9, -1, 2.0, "x", [1]])
def test_failed_id_that_is_not_a_node_is_rejected(failed):
    with pytest.raises(BadHelpers, match=r"outside 1\.\.4"):
        retained_columns(STATE, failed)
    with pytest.raises(BadHelpers, match=r"outside 1\.\.4"):
        find_replacement_conflict(STATE, failed, STATE.v_cols[3])


@pytest.mark.parametrize("call", [
    lambda: find_replacement_conflict(STATE, 1, (-1, 1, 1, 1)),
    lambda: find_replacement_conflict(STATE, 1, (999, 1, 1, 1)),
    lambda: find_replacement_conflict(STATE, 1, (1.5, 1, 1, 1)),
    lambda: solve_coefficients(STATE, 1, (2, 3, 4), 999, 1),
    lambda: solve_coefficients(STATE, 1, (2, 3, 4), 1, -1),
    lambda: combine_replacement(STATE, (2, 3, 4), (1, 1, 1), (1, 1, 1), (-1, 1, 1)),
    lambda: combine_replacement(STATE, (2, 3, 4), (1, 1, 1), (1, 1, 1), (999, 1, 1)),
    lambda: combine_replacement(STATE, (2, 3, 4), (1, 300, 1), (1, 1, 1), (1, 1, 1)),
    lambda: repair_step(STATE, 1, (2, 3, 4), (1, 1, (-1, 1, 1)), 0),
    lambda: repair_step(STATE, 1, (2, 3, 4), (1, 1, (999, 1, 1)), 0),
    lambda: find_replacement_conflict(STATE, 1, (256, 1, 1, 1)),
    lambda: find_replacement_conflict(STATE, 1, (True, 1, 1, 1)),
    lambda: solve_coefficients(STATE, 1, (2, 3, 4), 256, 1),
    lambda: solve_coefficients(STATE, 1, (2, 3, 4), 1, 1.5),
    lambda: solve_coefficients(STATE, 1, (2, 3, 4), True, 1),
    lambda: combine_replacement(STATE, (2, 3, 4), (1, 1, 1), (1, 1, 1), (256, 1, 1)),
    lambda: combine_replacement(STATE, (2, 3, 4), (1, 1, 1), (1, 1.5, 1), (1, 1, 1)),
    lambda: combine_replacement(STATE, (2, 3, 4), (1, 1, 1), (1, 1, 1), (1, True, 1)),
], ids=["v_new -1", "v_new 999", "v_new 1.5", "alpha1 999", "beta1 -1",
        "combine rho -1", "combine rho 999", "combine alpha 300",
        "step rho -1", "step rho 999", "v_new 256", "v_new True",
        "alpha1 256", "beta1 1.5", "alpha1 True", "combine rho 256", "combine beta 1.5",
        "combine rho True"])
def test_out_of_field_symbols_raise_typed(call):
    # unchecked, -1 would index the log table from its end and pass the scan
    with pytest.raises(NotASymbol, match=r"not in F\^4|outside 0\.\.255"):
        call()
    assert issubclass(NotASymbol, MdsRepairError) and issubclass(NotASymbol, ValueError)


@pytest.mark.parametrize("call", [
    lambda: validate_helpers(STATE, 1, 5),
    lambda: repair(STATE, 1, 5, random.Random(0)),
])
def test_helpers_that_are_not_iterable_raise_bad_helpers(call):
    with pytest.raises(BadHelpers, match="must be node ids"):
        call()


def test_repair_unsupported_tiny_shape():
    tiny = init_systematic(2, 1, GF256)
    with pytest.raises(UnsupportedShape):
        repair(tiny, 1, (2,), random.Random(0))


def test_repair_retries_exhausted_on_degenerate_draws():
    # every draw fails its first determinant, so the full bound runs fast
    with pytest.raises(RetriesExhausted, match="^65 rejected draws for failed=4;"):
        repair(STATE, FAILED, HELPERS, RejectingRng())


def test_default_helpers_lowest_survivors():
    assert default_helpers(STATE, 4) == (1, 2, 3)
    assert default_helpers(STATE, 1) == (2, 3, 4)
    assert default_helpers(STATE, 2) == (1, 3, 4)


def test_mean_retries_small_in_big_field(gf65536):
    state = init_systematic(4, 2, gf65536)
    rng = random.Random(2024)
    repairs = 1000
    retries = 0
    cur = state
    for _ in range(repairs):
        failed = rng.randrange(4) + 1
        helpers = default_helpers(cur, failed)
        cur, t = repair(cur, failed, helpers, rng)
        retries += t.retries
    mean = retries / repairs
    assert mean <= 0.05, mean
    # per-draw rejection rate within 3 sigma of the degree-bound ceiling
    draws = repairs + retries
    p = degree_bound(4, 2) / gf65536.order
    sigma = (p * (1 - p) / draws) ** 0.5
    assert retries / draws <= p + 3 * sigma


def test_subset_witness_every_subset_4_2():
    kept = retained_columns(STATE, FAILED)
    count = 0
    for subset in combinations(range(7), 3):
        a1, b1, rho = subset_witness(STATE, FAILED, HELPERS, subset)
        alpha, beta = solve_coefficients(STATE, FAILED, HELPERS, a1, b1)
        v_new = combine_replacement(STATE, HELPERS, alpha, beta, rho)
        block = [kept[i] for i in subset] + [v_new]
        assert det(GF256, block) != 0, subset
        count += 1
    assert count == 35


def test_subset_witness_prescription_round_trip():
    subset = (0, 1, 2)  # u1,u2,u3: helper 1's v is free
    a1, b1, rho = subset_witness(STATE, FAILED, HELPERS, subset)
    alpha, beta = solve_coefficients(STATE, FAILED, HELPERS, a1, b1)
    picks = [t for t, r in enumerate(rho) if r]
    assert len(picks) == 1 and rho[picks[0]] == 1
    t = picks[0]
    assert (alpha[t], beta[t]) in {(0, 1), (1, 0)}
    v_new = combine_replacement(STATE, HELPERS, alpha, beta, rho)
    h = HELPERS[t]
    if (alpha[t], beta[t]) == (0, 1):
        assert v_new == STATE.v_cols[h - 1]
    else:
        assert v_new == STATE.u_cols[h - 1]


def test_subset_witness_skips_fully_covered_helper():
    # u1 is position 0, v1 is position 4 in the retained ordering
    subset = (0, 1, 4)
    _, _, rho = subset_witness(STATE, FAILED, HELPERS, subset)
    assert rho[0] == 0  # helper 1 fully inside the subset: not chosen
    assert sum(1 for r in rho if r) == 1


def helper_symbols(state, stripe, helpers):
    """Each helper's (u, v) symbols for one stripe, flattened, from encode."""
    symbols = encode(state, stripe)
    return [symbols[2 * (h - 1) + j] for h in helpers for j in (0, 1)]


def test_rebuild_symbols_matches_vector_level():
    rng = random.Random(21)
    state2, t = repair(STATE, FAILED, HELPERS, rng)
    for _ in range(100):
        stripe = tuple(rng.randrange(256) for _ in range(4))
        sym_u, sym_v = rebuild_symbols(state2, helper_symbols(STATE, stripe, HELPERS), t)
        assert sym_u == dot(GF256, state2.u_cols[FAILED - 1], stripe)
        assert sym_v == dot(GF256, state2.v_cols[FAILED - 1], stripe)
    zero = helper_symbols(STATE, (0, 0, 0, 0), HELPERS)
    assert rebuild_symbols(state2, zero, t) == (0, 0)


def test_rebuild_symbols_validates_transcript_binding():
    rng = random.Random(22)
    state2, t = repair(STATE, FAILED, HELPERS, rng)
    symbols = helper_symbols(STATE, (1, 2, 3, 4), HELPERS)
    with pytest.raises(InvariantViolation):
        rebuild_symbols(STATE, symbols, t)  # pre-repair state, wrong epoch
    with pytest.raises(DimensionMismatch):
        rebuild_symbols(state2, symbols[:4], t)  # two helpers' pairs, not three
    with pytest.raises(DimensionMismatch):
        rebuild_symbols(state2, symbols[:-1], t)  # a pair cut in half


def test_repair_on_6_3(gf65536):
    state = init_systematic(6, 3, gf65536)
    rng = random.Random(31)
    state2, t = repair(state, 6, (1, 2, 3, 4), rng)
    assert find_mds_violation(state2) is None
    assert len(t.alpha) == len(t.beta) == len(t.rho) == 4


def test_transcripts_satisfy_their_defining_identities():
    # every emitted transcript must blend to u_failed and recombine to the
    # column that actually got installed
    rng = random.Random(55)
    state = STATE
    for _ in range(20):
        failed = rng.randrange(4) + 1
        helpers = default_helpers(state, failed)
        before = state
        state, t = repair(state, failed, helpers, rng)
        assert blend_sum(state, t.helpers, t.alpha, t.beta) == state.u_cols[failed - 1]
        recombined = combine_replacement(state, t.helpers, t.alpha, t.beta, t.rho)
        assert recombined == t.v_new == state.v_cols[failed - 1]
        # alpha[0], beta[0] and rho are the draw: it alone rebuilds the repair
        draw = (t.alpha[0], t.beta[0], t.rho)
        assert repair_step(before, failed, helpers, draw, t.retries) == (state, t)


def test_acceptance_scan_equivalent_to_full_mds_scan():
    # the cheap (2k-1)-subset scan against the candidate column must agree
    # exactly with substituting the column and re-running the full scan
    rng = random.Random(99)
    agree_accept = agree_reject = 0
    for trial in range(60):
        a1, b1 = rng.randrange(256), rng.randrange(256)
        rho = tuple(rng.randrange(256) for _ in range(3))
        alpha, beta = solve_coefficients(STATE, FAILED, HELPERS, a1, b1)
        v_new = combine_replacement(STATE, HELPERS, alpha, beta, rho)
        accepted = find_replacement_conflict(STATE, FAILED, v_new) is None
        v_cols = list(STATE.v_cols)
        v_cols[FAILED - 1] = v_new
        candidate = CodeState(STATE.n, STATE.k, STATE.field, STATE.u_cols, tuple(v_cols))
        full = find_mds_violation(candidate) is None
        assert accepted == full, trial
        if accepted:
            agree_accept += 1
        else:
            agree_reject += 1
    assert agree_accept > 0 and agree_reject > 0  # both branches exercised


def test_solution_family_chart_consistency():
    # any solution of the download identity, however parametrized, is
    # reproduced exactly by the (alpha1, beta1) chart
    rng = random.Random(14)
    for t in range(3):
        vals = (rng.randrange(256), rng.randrange(256))
        eta = pinned_eta(STATE, FAILED, HELPERS, (2 * t, 2 * t + 1), vals)
        alpha, beta = solve_coefficients(STATE, FAILED, HELPERS, eta[0], eta[1])
        assert full_eta(alpha, beta) == eta


def test_subset_witness_every_subset_6_3(gf65536):
    state = init_systematic(6, 3, gf65536)
    failed, helpers = 5, (1, 2, 3, 6)
    kept = retained_columns(state, failed)
    assert len(kept) == 11
    count = 0
    for subset in combinations(range(11), 5):
        a1, b1, rho = subset_witness(state, failed, helpers, subset)
        alpha, beta = solve_coefficients(state, failed, helpers, a1, b1)
        v_new = combine_replacement(state, helpers, alpha, beta, rho)
        block = [kept[i] for i in subset] + [v_new]
        assert det(gf65536, block) != 0, subset
        count += 1
    assert count == 462
