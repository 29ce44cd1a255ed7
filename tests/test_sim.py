import random
from fractions import Fraction
from itertools import combinations

import pytest

from mdsrepair import sim
from mdsrepair.code import find_mds_violation
from mdsrepair.errors import (
    BadShape,
    DimensionMismatch,
    MdsRepairError,
    TooFewNodes,
    UnsupportedShape,
)
from mdsrepair.field import GF
from mdsrepair.sim import (
    campaign,
    check_conservation,
    extract,
    fail_and_repair,
    ingest,
)

GF256 = GF(8)


def test_ingest_shape_four_symbols():
    cluster = ingest(b"\x01\x02\x03\x04", 4, 2, GF256)
    assert len(cluster.stripes) == 1
    assert cluster.stripes[0] == (1, 2, 3, 4)
    for node in range(1, 5):
        assert len(cluster.node_store[node]) == 1
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
    before = {
        node: list(cluster.node_store[node]) for node in range(1, 5)
    }
    rng = random.Random(9)
    fail_and_repair(cluster, 3, rng)
    record = cluster.ledger.records[-1]
    stripes = len(cluster.stripes)
    assert record.failed == 3
    assert record.symbols_downloaded == 3 * stripes  # k+1 per stripe
    assert record.bound_symbols == Fraction(3) * stripes
    assert record.naive_symbols == 4 * stripes
    # u symbols are rebuilt exactly; v symbols follow the functional model
    for s in range(stripes):
        assert cluster.node_store[3][s].sym_u == before[3][s].sym_u
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
    store = {node: list(symbols) for node, symbols in cluster.node_store.items()}
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
    assert report.mds_checks == 100
    assert report.systematic_checks == 100
    assert report.decode_checks == 100
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
