import copy
import importlib
import math
import random
import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from mdsrepair import matrix, sim
from mdsrepair.cli import dump_state_text, load_state_text
from mdsrepair.code import CodeState, decode, dot, find_mds_violation, init_systematic
from mdsrepair.errors import (
    BadHelpers,
    BadShape,
    DimensionMismatch,
    InvariantViolation,
    MdsRepairError,
    NotASymbol,
    NotBytes,
    TooFewNodes,
    UnsupportedShape,
)
from mdsrepair.field import GF
from mdsrepair.repair import default_helpers, repair, solve_coefficients
from mdsrepair.sim import (
    Cluster,
    RepairRecord,
    campaign,
    check_conservation,
    extract,
    fail_and_repair,
    ingest,
)

GF256 = GF(8)
GF65536 = GF(16)


def test_ingest_shape_four_symbols():
    cluster = ingest(b"\x01\x02\x03\x04", 4, 2, GF256)
    assert len(cluster.stripes) == 1
    assert cluster.stripes[0] == (1, 2, 3, 4)
    for node in range(1, 5):
        u_plane, v_plane = cluster.node_store[node]
        assert (u_plane.typecode, len(u_plane), len(v_plane)) == ("B", 1, 1)
    assert cluster.node_store[2][0][0] == 2  # node 2's u symbol is x_2
    check_conservation(cluster)


def test_ingest_empty_input():
    cluster = ingest(b"", 4, 2, GF256)
    assert cluster.stripes == []
    assert extract(cluster, (1, 2)) == b""
    assert extract(cluster, "systematic") == b""


def test_ingest_pads_partial_stripes():
    cluster = ingest(b"\xff" * 5, 4, 2, GF256)
    assert len(cluster.stripes) == 2
    assert cluster.stripes[1] == (0xFF, 0, 0, 0)
    assert extract(cluster, (2, 3)) == b"\xff" * 5


def test_ingest_copies_its_input():
    payload = bytes(range(13))
    buf = bytearray(payload)
    cluster = ingest(buf, 4, 2, GF256)
    buf[0] ^= 0xFF
    buf += b"later"
    assert extract(cluster, (1, 3)) == payload
    assert extract(cluster, "systematic") == payload
    check_conservation(cluster)
    # stripes are derived from the kept bytes: a fresh, zero-padded list per access
    assert "stripes" not in Cluster._fields and "stripes" not in Cluster.__slots__
    assert cluster.stripes == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 0, 0, 0)]
    cluster.stripes.clear()
    assert len(cluster.stripes) == 4
    assert ingest(bytearray(), 4, 2, GF256).stripes == []


@pytest.mark.parametrize("wrap", [memoryview, lambda b: array("B", b)], ids=["memoryview", "array"])
@pytest.mark.parametrize("field", [GF256, GF65536], ids=["gf256", "gf65536"])
def test_ingest_takes_any_bytes_like_input(wrap, field):
    data = b"abcdef"
    cluster = ingest(wrap(data), 4, 2, field)
    assert type(cluster.data) is bytes and cluster.data == data
    assert extract(cluster, (2, 3)) == data
    assert extract(cluster, "systematic") == data
    check_conservation(cluster)


def test_ingest_round_trip_gf65536(gf65536):
    data = random.Random(1).randbytes(101)  # odd length: forces padding
    cluster = ingest(data, 4, 2, gf65536)
    assert extract(cluster, (1, 4)) == data
    assert extract(cluster, "systematic") == data


def test_extract_every_k_subset_and_validation():
    data = random.Random(2).randbytes(32)
    cluster = ingest(data, 4, 2, GF256)
    for subset in combinations(range(1, 5), 2):
        assert extract(cluster, subset) == data
    with pytest.raises(TooFewNodes):
        extract(cluster, (1,))
    with pytest.raises(DimensionMismatch):
        extract(cluster, (1, 2, 3))


@pytest.mark.parametrize("via", [(1, 9), (0, 1), ("a", "b"), (1, 2.0)])
def test_extract_rejects_bad_node_ids(via):
    cluster = ingest(b"0123456789", 4, 2, GF256)
    with pytest.raises(BadShape) as exc:
        extract(cluster, via)
    assert isinstance(exc.value, MdsRepairError)


BAD_NODE_SETS = {
    "too few": ((1,), TooFewNodes),
    "too many": ((1, 2, 3), DimensionMismatch),
    "duplicate": ((1, 1), DimensionMismatch),
    "out of range": ((1, 9), BadShape),
    "non-int": ((1, 2.0), BadShape),
    "bool": ((True, 2), BadShape),
    "not iterable": (5, DimensionMismatch),
}


@pytest.mark.parametrize("data", [b"", b"0123456789"], ids=["no stripes", "3 stripes"])
@pytest.mark.parametrize("nodes, error", BAD_NODE_SETS.values(), ids=BAD_NODE_SETS.keys())
def test_decode_and_extract_raise_the_same_class_for_a_bad_node_set(nodes, error, data):
    cluster = ingest(data, 4, 2, GF256)
    for call in (lambda: decode(cluster.state, nodes, (0,) * 4), lambda: extract(cluster, nodes)):
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error


def test_decode_and_extract_read_nodes_from_any_iterable():
    data = random.Random(3).randbytes(20)
    cluster = ingest(data, 4, 2, GF256)
    assert extract(cluster, (n for n in (2, 4))) == data
    symbols = [p[1] for node in (2, 4) for p in cluster.node_store[node]]
    assert decode(cluster.state, iter([2, 4]), symbols) == cluster.stripes[1]


@pytest.mark.parametrize("data", [b"", b"\x01\x02"])
def test_extract_rejects_repeated_node_ids(data):
    cluster = ingest(data, 4, 2, GF256)
    with pytest.raises(DimensionMismatch):
        extract(cluster, (1, 1))


def test_systematic_extract_touches_no_field_arithmetic(monkeypatch):
    data = bytes(range(64))
    field = GF(8)
    cluster = ingest(data, 4, 2, field)
    calls = 0
    orig = GF.mul

    def counting_mul(self, a, b):
        nonlocal calls
        calls += 1
        return orig(self, a, b)

    monkeypatch.setattr(GF, "mul", counting_mul)
    # poison the tables too: any exp/log lookup would crash immediately
    monkeypatch.setattr(cluster.state.field, "exp", None)
    monkeypatch.setattr(cluster.state.field, "log", None)
    assert extract(cluster, "systematic") == data
    assert calls == 0


def test_fail_and_repair_ledger_and_symbols():
    data = random.Random(3).randbytes(24)
    cluster = ingest(data, 4, 2, GF256)
    before = copy.deepcopy(cluster.node_store)
    rng = random.Random(9)
    fail_and_repair(cluster, 3, rng)
    record = cluster.ledger.records[-1]
    stripes = len(cluster.stripes)
    assert cluster.history[-1].failed == 3
    assert record == RepairRecord(stripes, 3 * stripes)  # k+1 symbols per stripe
    # u symbols are rebuilt exactly; v symbols follow the functional model
    assert cluster.node_store[3][0] == before[3][0]
    for node in (1, 2, 4):
        assert cluster.node_store[node] == before[node]
    check_conservation(cluster)
    for subset in combinations(range(1, 5), 2):
        assert extract(cluster, subset) == data


def test_fail_and_repair_explicit_helpers():
    data = b"0123456789abcdef"
    cluster = ingest(data, 5, 2, GF256)
    rng = random.Random(4)
    fail_and_repair(cluster, 1, rng, helpers=(3, 4, 5))
    assert cluster.history[-1].helpers == (3, 4, 5)
    assert extract(cluster, (1, 2)) == data
    check_conservation(cluster)


def test_fail_and_repair_zero_stripes():
    cluster = ingest(b"", 4, 2, GF256)
    fail_and_repair(cluster, 2, random.Random(5))
    assert cluster.ledger.records[-1].symbols_downloaded == 0
    assert cluster.state.epoch == 1


def test_fail_and_repair_leaves_cluster_unchanged_when_replay_fails(monkeypatch):
    cluster = ingest(random.Random(8).randbytes(48), 4, 2, GF256)
    fail_and_repair(cluster, 1, random.Random(1))
    store = copy.deepcopy(cluster.node_store)
    state = cluster.state
    history = list(cluster.history)
    records = list(cluster.ledger.records)

    real = sim.rebuild_symbols
    calls = 0

    def fails_on_stripe_2(*args):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise RuntimeError("injected fault on stripe 2")
        return real(*args)

    monkeypatch.setattr(sim, "rebuild_symbols", fails_on_stripe_2)
    with pytest.raises(RuntimeError, match="stripe 2"):
        fail_and_repair(cluster, 3, random.Random(2))
    assert cluster.node_store == store
    assert cluster.state is state
    assert cluster.history == history
    assert cluster.ledger.records == records


def test_8_4_gf65536_repairs_keep_mds_and_decode(gf65536):
    data = random.Random(84).randbytes(100)
    cluster = ingest(data, 8, 4, gf65536)
    assert find_mds_violation(cluster.state) is None
    rng = random.Random(4)
    for failed in (8, 1, 5):
        fail_and_repair(cluster, failed, rng)
        assert find_mds_violation(cluster.state) is None
    assert cluster.state.epoch == 3
    check_conservation(cluster)
    assert extract(cluster, (1, 5, 7, 8)) == data
    assert extract(cluster, "systematic") == data


def test_fail_and_repair_too_few_survivors():
    cluster = ingest(b"\x01\x02", 2, 1, GF256)
    with pytest.raises(UnsupportedShape):
        fail_and_repair(cluster, 1, random.Random(0))
    assert cluster.state.epoch == 0 and not cluster.ledger.records


def test_campaign_totals_and_invariants():
    data = random.Random(6).randbytes(16)
    cluster = ingest(data, 4, 2, GF256)
    stripes = len(cluster.stripes)
    report = campaign(cluster, 100, random.Random(7))
    assert report.rounds == 100
    assert report.epoch == 100
    assert "invariants: mds=100/100 systematic=100/100 decode=100/100\n" in report.to_text()
    assert report.downloaded_symbols == 100 * 3 * stripes
    assert report.bound_symbols == 100 * 3 * stripes
    assert report.naive_symbols == 100 * 4 * stripes
    assert report.ratio == Fraction(3, 4)
    assert sum(report.retry_histogram.values()) == 100
    check_conservation(cluster)
    for subset in combinations(range(1, 5), 2):
        assert extract(cluster, subset) == data
    assert extract(cluster, "systematic") == data


def test_campaign_zero_rounds():
    cluster = ingest(b"hi", 4, 2, GF256)
    report = campaign(cluster, 0, random.Random(1))
    assert report.rounds == 0
    assert report.downloaded_symbols == 0
    assert report.retries == 0
    assert report.mean_retries == 0
    assert report.ratio == Fraction(3, 4)
    assert "downloaded_symbols: 0" in report.to_text()


def test_campaign_rejects_negative_rounds():
    cluster = ingest(b"hi", 4, 2, GF256)
    with pytest.raises(BadShape):
        campaign(cluster, -3, random.Random(1))
    assert cluster.state.epoch == 0


@pytest.mark.parametrize("call, error", [
    (lambda c, rng: fail_and_repair(c, 1, rng, helpers=5), BadHelpers),
    (lambda c, rng: extract(c, 5), DimensionMismatch),
    (lambda c, rng: extract(c, None), DimensionMismatch),
    (lambda c, rng: campaign(c, 1.5, rng), BadShape),
    (lambda c, rng: campaign(c, "2", rng), BadShape),
    (lambda c, rng: campaign(c, True, rng), BadShape),
    (lambda c, rng: solve_coefficients(c.state, 4, (1, 2, 3), True, 0), NotASymbol),
    (lambda c, rng: ingest(5, 4, 2, GF256), NotBytes),
    (lambda c, rng: ingest("0123", 4, 2, GF256), NotBytes),
    (lambda c, rng: ingest([48, 49], 4, 2, GF256), NotBytes),
], ids=["helpers=5", "extract 5", "extract None", "rounds 1.5", "rounds '2'", "rounds True",
        "alpha1 True", "ingest 5", "ingest str", "ingest list"])
def test_wrong_type_arguments_raise_typed_errors(call, error):
    """Each fails typed before it changes anything."""
    cluster = ingest(b"0123456789", 4, 2, GF256)
    before = copy.deepcopy(cluster)
    with pytest.raises(error):
        call(cluster, random.Random(2))
    assert cluster == before


def test_campaign_8_4_audits_every_round(gf65536):
    # the exhaustive 12,870-subset audit runs after each of these rounds
    data = random.Random(84).randbytes(40)
    cluster = ingest(data, 8, 4, gf65536)
    report = campaign(cluster, 3, random.Random(8))
    assert report.epoch == 3
    assert "invariants: mds=3/3 systematic=3/3 decode=3/3\n" in report.to_text()
    assert report.downloaded_symbols == 3 * 5 * len(cluster.stripes)
    assert report.ratio == Fraction(5, 8)
    check_conservation(cluster)
    assert extract(cluster, range(5, 9)) == data
    assert extract(cluster, "systematic") == data


def test_campaign_ratio_for_k3(gf65536):
    cluster = ingest(b"abcdef" * 4, 6, 3, gf65536)
    report = campaign(cluster, 3, random.Random(2))
    assert report.ratio == Fraction(2, 3)
    assert report.downloaded_symbols == 3 * 4 * len(cluster.stripes)


def test_campaign_retry_rate_large_field(gf65536):
    cluster = ingest(b"x" * 8, 4, 2, gf65536)
    report = campaign(cluster, 1000, random.Random(11))
    draws = report.rounds + report.retries
    assert report.retries / draws <= 0.01


def test_campaign_report_text_deterministic(gf65536):
    def run():
        cluster = ingest(b"deterministic?", 4, 2, gf65536)
        return campaign(cluster, 25, random.Random(42)).to_text()

    first, second = run(), run()
    assert first == second
    for token in (
        "epoch:",
        "retries:",
        "downloaded_symbols:",
        "bound_symbols:",
        "naive_symbols:",
        "ratio:",
    ):
        assert token in first


def test_campaign_detects_a_flipped_systematic_symbol():
    cluster = ingest(bytes(range(40)), 4, 2, GF256)
    seed = 5
    failed = random.Random(seed).randrange(4) + 1  # the round's first draw
    node = failed % 4 + 1  # a node of 1..2k that the round does not rebuild
    cluster.node_store[node][0][3] ^= 0x10
    with pytest.raises(InvariantViolation, match="epoch 1: systematic read of stripe 3 changed"):
        campaign(cluster, 1, random.Random(seed))


def test_campaign_detects_a_corrupted_v_plane():
    cluster = ingest(bytes(range(40)), 5, 2, GF256)
    v_plane = cluster.node_store[5][1]  # node 5 is not read by the systematic check
    for s in range(len(v_plane)):
        v_plane[s] ^= 1
    # seed 4 fails node 2 (helpers 1, 3, 4) and then spot-decodes via nodes 1 and 5
    with pytest.raises(InvariantViolation, match=r"epoch 1: decode via \[1, 5\] of stripe 0 wrong"):
        campaign(cluster, 1, random.Random(4))
    assert cluster.history[-1].failed == 2


@pytest.mark.parametrize("n, k, field, size", [(4, 2, GF256, 45), (6, 3, GF65536, 90)])
def test_per_stripe_call_counts(monkeypatch, n, k, field, size):
    """Exactly one encode, rebuild_symbols, decode (with one matrix.solve)
    and read_systematic call per stripe, made through ``sim``'s own names.

    These are the counts that ``check_counts`` in perfbench/spans.py
    requires of every traced benchmark run; a data path that changes them
    must restate those closed forms there first.
    """
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    for name in ("encode", "rebuild_symbols", "decode", "read_systematic"):
        monkeypatch.setattr(sim, name, counting(name, getattr(sim, name)))
    monkeypatch.setattr(matrix, "solve", counting("solve", matrix.solve))
    data = random.Random(size).randbytes(size)
    cluster = ingest(data, n, k, field)
    stripes = len(cluster.stripes)
    assert stripes > 1
    assert counts == {"encode": stripes}
    counts.clear()
    fail_and_repair(cluster, n, random.Random(3))
    draws = cluster.history[-1].retries + 1  # one coefficient solve per draw
    assert counts == {"rebuild_symbols": stripes, "solve": draws}
    counts.clear()
    assert extract(cluster, range(n - k + 1, n + 1)) == data
    assert counts == {"decode": stripes, "solve": stripes}
    counts.clear()
    assert extract(cluster, "systematic") == data
    assert counts == {"read_systematic": stripes}


@pytest.mark.parametrize(
    "n, k, field, seed, rejected",
    [(4, 2, GF256, 9, 2), (6, 3, GF65536, 2, 0), (8, 4, GF65536, 4, 0)],
)
def test_control_plane_call_counts(monkeypatch, n, k, field, seed, rejected):
    """Dets per scan and one solve, combine and acceptance scan per draw,
    counted the way the traced benchmark counts them: each function is
    rebound in every mdsrepair module that binds it, so only a call made
    through a module-level name is seen.

    These are the rules that ``check_counts`` in perfbench/spans.py
    requires of every traced run: a full MDS scan makes C(2n, 2k) dets and
    one that stops at subset S makes rank(S)+1; a repair solves, combines
    and scans once per draw, and its accepted scan makes C(2n-1, 2k-1)
    dets; the state-file loader replays each history entry with one solve
    and one combine, then scans in full once.
    """
    repair_mod = importlib.import_module("mdsrepair.repair")
    counts = Counter()
    scans = []  # (first conflict or None, dets) per acceptance scan

    def counting(name, fn):
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    def rank(subset, size):
        return list(combinations(range(size), len(subset))).index(tuple(subset))

    def rebind(fn, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.partition(".")[0] == "mdsrepair":
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, wrapper)

    rebind(matrix.det, counting("det", matrix.det))
    for name in ("solve_coefficients", "combine_replacement"):
        fn = getattr(repair_mod, name)
        rebind(fn, counting(name, fn))
    conflict = repair_mod.find_replacement_conflict

    def scanning(*args):
        before = counts["det"]
        result = conflict(*args)
        scans.append((result, counts["det"] - before))
        return result

    rebind(conflict, scanning)

    state = init_systematic(n, k, field)
    assert find_mds_violation(state) is None
    assert counts == {"det": math.comb(2 * n, 2 * k)}
    counts.clear()
    planted = CodeState(n, k, field, state.u_cols, state.v_cols[:-1] + (state.u_cols[0],))
    subset = find_mds_violation(planted)
    assert subset[0] == 0 and subset[-1] == 2 * n - 1
    assert counts == {"det": rank(subset, 2 * n) + 1}

    rng = random.Random(seed)
    history = []
    for failed in (1, n, 2, n):
        counts.clear()
        scans.clear()
        helpers = default_helpers(state, failed)
        state, transcript = repair(state, failed, helpers, rng)
        history.append(transcript)
        draws = transcript.retries + 1
        assert counts["solve_coefficients"] == counts["combine_replacement"] == draws
        assert len(scans) == draws
        assert scans[-1] == (None, math.comb(2 * n - 1, 2 * k - 1))
        for rejecting, dets in scans[:-1]:
            assert dets == rank(rejecting, 2 * n - 1) + 1
        assert counts["det"] == sum(dets for _, dets in scans)

    assert sum(t.retries for t in history) == rejected  # rejected scans were checked

    text = dump_state_text(state, history)
    counts.clear()
    assert load_state_text(text) == (state, history)
    assert counts == {
        "solve_coefficients": len(history),
        "combine_replacement": len(history),
        "det": math.comb(2 * n, 2 * k),
    }


@pytest.mark.parametrize("call, error", [
    (lambda c, rng: decode(c.state, ("a", "b"), (0,) * 4), BadShape),
    (lambda c, rng: decode(c.state, (1.5, 2), (0,) * 4), BadShape),
    (lambda c, rng: repair(c.state, 1, ("a", 2, 3), rng), BadHelpers),
    (lambda c, rng: repair(c.state, 1.0, (2, 3, 4), rng), BadHelpers),
    (lambda c, rng: solve_coefficients(c.state, 4, (1, 2, 3.0), 1, 2), BadHelpers),
    (lambda c, rng: default_helpers(c.state, "x"), BadHelpers),
    (lambda c, rng: fail_and_repair(c, "x", rng), BadHelpers),
    (lambda c, rng: fail_and_repair(c, 2.0, rng), BadHelpers),
    (lambda c, rng: decode(c.state, ([1], 2), (0,) * 4), BadShape),
    (lambda c, rng: repair(c.state, 1, ([2], 3, 4), rng), BadHelpers),
    (lambda c, rng: fail_and_repair(c, 1, rng, helpers=([2], 3, 4)), BadHelpers),
    (lambda c, rng: repair(c.state, True, (2, 3, 4), rng), BadHelpers),
    (lambda c, rng: repair(c.state, 1, (True, 3, 4), rng), BadHelpers),
    (lambda c, rng: fail_and_repair(c, True, rng), BadHelpers),
])
def test_bad_node_ids_raise_typed_errors(call, error):
    """A node id that is not an int in 1..n fails typed, changing nothing."""
    cluster = ingest(b"0123456789", 4, 2, GF256)
    fail_and_repair(cluster, 1, random.Random(1))
    before = copy.deepcopy(cluster)
    with pytest.raises(error):
        call(cluster, random.Random(2))
    assert cluster == before


def assert_planes_match_oracle(cluster):
    """Every plane entry equals ``dot`` of its column with the stripe."""
    state = cluster.state
    for node in range(1, state.n + 1):
        for col, plane in zip(state.node_columns(node), cluster.node_store[node]):
            want = [dot(state.field, col, stripe) for stripe in cluster.stripes]
            assert plane.tolist() == want, node


shapes = st.sampled_from(
    [(4, 2, GF256), (5, 2, GF256), (4, 2, GF65536), (5, 2, GF65536), (6, 3, GF65536)]
)
payloads = st.one_of(
    st.binary(max_size=80),
    st.lists(st.sampled_from([0, 0, 0, 1, 0xFF]), max_size=80).map(bytes),
)


@given(shape=shapes, payload=payloads, choose=st.data())
@example(shape=(6, 3, GF65536), payload=b"", choose=None)
@example(shape=(4, 2, GF256), payload=bytes(13), choose=None)
def test_planes_match_scalar_oracle(shape, payload, choose):
    n, k, field = shape
    width = field.m // 8
    stride = 2 * k * width
    cluster = ingest(payload, n, k, field)
    padded = payload + bytes(-len(payload) % stride)
    assert cluster.stripes == [
        tuple(int.from_bytes(padded[i : i + width], "big") for i in range(off, off + stride, width))
        for off in range(0, len(padded), stride)
    ]
    assert_planes_match_oracle(cluster)
    repairs = [] if choose is None else range(choose.draw(st.integers(1, 2)))
    for _ in repairs:
        failed = choose.draw(st.integers(1, n))
        survivors = [h for h in range(1, n + 1) if h != failed]
        helpers = choose.draw(st.permutations(survivors))[: k + 1]
        before = copy.deepcopy(cluster.node_store)
        fail_and_repair(cluster, failed, random.Random(choose.draw(st.integers(0, 999))),
                        helpers=helpers)
        assert cluster.history[-1].helpers == tuple(helpers)
        assert_planes_match_oracle(cluster)
        assert cluster.node_store[failed][0] == before[failed][0]  # u rebuilt exactly
        for node in survivors:
            assert cluster.node_store[node] == before[node]
    for nodes in combinations(range(1, n + 1), k):
        assert extract(cluster, nodes) == payload
    assert extract(cluster, "systematic") == payload


@pytest.mark.parametrize("plane", [0, 1], ids=["u", "v"])
def test_check_conservation_names_the_node_of_a_flipped_symbol(plane):
    cluster = ingest(bytes(range(40)), 4, 2, GF256)
    cluster.node_store[3][plane][2] ^= 0x10
    with pytest.raises(InvariantViolation, match="node 3 stripe 2"):
        check_conservation(cluster)


def test_check_conservation_rejects_a_truncated_plane():
    cluster = ingest(bytes(range(40)), 4, 2, GF256)
    cluster.node_store[2][1].pop()
    with pytest.raises(InvariantViolation, match="node 2 v plane holds 9 symbols, expected 10"):
        check_conservation(cluster)
