"""Acceptance suite: one test per release criterion, full scale, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from mdsrepair.bounds import cut_bound, degree_bound, find_cut_violation
from mdsrepair.code import init_systematic, read_systematic
from mdsrepair.field import GF
from mdsrepair.matrix import det
from mdsrepair.repair import (
    combine_replacement,
    default_helpers,
    repair,
    retained_columns,
    solve_coefficients,
)
from mdsrepair.sim import campaign, extract, ingest

from oracles import clmul_reduce, subset_witness


def _passline(text):
    print(f"\nPASS  {text}")


@pytest.fixture(scope="module")
def campaign_4_2(gf256):
    """500 seeded repairs at (4,2) over GF(2^8), exhaustively checked."""
    data = random.Random(101).randbytes(16)
    cluster = ingest(data, 4, 2, gf256)
    u_epoch0 = cluster.state.u_cols
    report = campaign(cluster, 500, random.Random(202))
    return cluster, report, data, u_epoch0


@pytest.fixture(scope="module")
def campaign_6_3(gf65536):
    """500 seeded repairs at (6,3) over GF(2^16), exhaustively checked."""
    data = random.Random(303).randbytes(48)
    cluster = ingest(data, 6, 3, gf65536)
    u_epoch0 = cluster.state.u_cols
    report = campaign(cluster, 500, random.Random(404))
    return cluster, report, data, u_epoch0


def test_criterion_1_bandwidth_optimality(gf65536):
    """Every simulated (4,2) repair downloads exactly cut_bound(4,2,3)=3
    symbols per stripe; a 1000-round campaign finishes inside a minute."""
    data = random.Random(1).randbytes(64)
    cluster = ingest(data, 4, 2, gf65536)
    stripes = len(cluster.stripes)
    bound = cut_bound(4, 2, 3)
    assert bound == 3  # exact integer equality, zero tolerance

    start = time.monotonic()
    report = campaign(cluster, 1000, random.Random(2))
    elapsed = time.monotonic() - start

    assert report.rounds == 1000
    for record in cluster.ledger.records:
        assert record.symbols_downloaded == 3 * record.stripes
        assert record.symbols_downloaded == bound * record.stripes
    assert report.downloaded_symbols == 1000 * 3 * stripes
    assert report.bound_symbols == 1000 * bound * stripes
    assert elapsed < 60.0, f"campaign took {elapsed:.1f}s"
    _passline(
        f"criterion 1: 1000 repairs each moved exactly 3 symbols/stripe "
        f"(= cut bound) in {elapsed:.1f}s"
    )


def test_criterion_2_mds_preserved_4_2(campaign_4_2):
    """(4,2)/GF(2^8): all 70 column subsets stay full rank after each of
    500 repairs (the campaign aborts on the first violation)."""
    cluster, report, _, _ = campaign_4_2
    assert report.rounds == 500
    assert "invariants: mds=500/500 systematic=500/500 decode=500/500\n" in report.to_text()
    assert cluster.state.epoch == 500
    _passline("criterion 2a: (4,2) gf256, 500 repairs x 70 subsets full rank")


def test_criterion_2_mds_preserved_6_3(campaign_6_3):
    """(6,3)/GF(2^16): all 924 column subsets stay full rank after each of
    500 repairs."""
    cluster, report, _, _ = campaign_6_3
    assert report.rounds == 500
    assert "invariants: mds=500/500 systematic=500/500 decode=500/500\n" in report.to_text()
    assert cluster.state.epoch == 500
    _passline("criterion 2b: (6,3) gf65536, 500 repairs x 924 subsets full rank")


def test_criterion_3_systematic_persistence(campaign_4_2, campaign_6_3):
    """After every repair the stripe reads back bit-exactly from the
    systematic nodes and the u columns are identical to epoch 0."""
    for cluster, report, _, u_epoch0 in (campaign_4_2, campaign_6_3):
        # checked every round
        assert f"systematic={report.rounds}/{report.rounds} " in report.to_text()
        assert cluster.state.u_cols == u_epoch0
        dim = cluster.state.dim
        for s, stripe in enumerate(cluster.stripes):
            symbols = [cluster.node_store[node][0][s] for node in range(1, dim + 1)]
            assert read_systematic(cluster.state, symbols) == stripe
    _passline("criterion 3: systematic read-back exact, u columns frozen, both shapes")


@pytest.mark.parametrize("shape", [(4, 2, 8), (6, 3, 16)])
def test_criterion_4_decodable_from_every_subset(shape):
    """After a 100-repair history, every one of the C(n,k) node subsets
    reproduces the ingested bytes exactly."""
    n, k, m = shape
    field = GF(m)
    data = random.Random(50 + n).randbytes(37)  # odd length: padding in play
    cluster = ingest(data, n, k, field)
    campaign(cluster, 100, random.Random(60 + n))
    subsets = list(combinations(range(1, n + 1), k))
    for subset in subsets:
        assert extract(cluster, subset) == data, subset
    assert extract(cluster, "systematic") == data
    _passline(
        f"criterion 4: (n={n},k={k}) after 100 repairs, all {len(subsets)} "
        f"k-subsets return the exact bytes"
    )


def test_criterion_5_retry_probability(gf65536):
    """Per-draw rejection rate over >= 10^3 repairs at (4,2)/GF(2^16) is
    at most 0.011 (10x the 70/65536 ceiling, Monte-Carlo slack)."""
    state = init_systematic(4, 2, gf65536)
    rng = random.Random(777)
    repairs = 1200
    rejected = 0
    for _ in range(repairs):
        failed = rng.randrange(4) + 1
        state, transcript = repair(state, failed, default_helpers(state, failed), rng)
        rejected += transcript.retries
    draws = repairs + rejected
    rate = rejected / draws
    ceiling = degree_bound(4, 2) / gf65536.order  # 70/65536
    assert rate <= 0.011, f"rejection rate {rate:.5f}"
    assert rate <= 10 * ceiling
    _passline(
        f"criterion 5: {repairs} repairs, rejection rate {rate:.5f} <= 0.011; "
        f"mean retries {rejected}/{repairs} = {rejected / repairs:.4f}"
    )


def test_criterion_6_witness_suite(gf256):
    """For (4,2), each of the C(7,3)=35 subsets gets a constructive draw
    whose replacement column clears that subset's determinant."""
    state = init_systematic(4, 2, gf256)
    failed = 4
    helpers = (1, 2, 3)
    kept = retained_columns(state, failed)
    checked = 0
    for subset in combinations(range(7), 3):
        a1, b1, rho = subset_witness(state, failed, helpers, subset)
        alpha, beta = solve_coefficients(state, failed, helpers, a1, b1)
        v_new = combine_replacement(state, helpers, alpha, beta, rho)
        block = [kept[i] for i in subset] + [v_new]
        assert det(gf256, block) != 0, subset
        checked += 1
    assert checked == 35
    _passline("criterion 6: 35/35 subset witnesses give a nonzero determinant")


def test_criterion_7_cut_inequalities_tight(campaign_4_2, campaign_6_3):
    """Every realized repair plan (1 symbol from each of k+1 helpers,
    per-node storage 2, stripe size 2k) meets all C(k+1, k-1) cut
    inequalities with equality."""
    plans = 0
    for cluster, _, _, _ in (campaign_4_2, campaign_6_3):
        k = cluster.state.k
        for record in cluster.ledger.records:
            assert record.symbols_downloaded == (k + 1) * record.stripes
            assert find_cut_violation(2 * k, 2, (1,) * (k + 1), k) is None
            for subset in combinations(range(k + 1), k - 1):
                outside = (k + 1) - len(subset)
                assert (k - 1) * 2 + outside == 2 * k  # tight, no slack
            plans += 1
    assert plans == 1000
    _passline(f"criterion 7: {plans} realized plans, every cut inequality tight")


def test_criterion_8_savings_ratio(campaign_4_2, campaign_6_3):
    """Reported savings versus naive whole-stripe repair is exactly
    (k+1)/(2k): 3/4 at k=2 and 2/3 at k=3."""
    (_, report42, _, _), (_, report63, _, _) = campaign_4_2, campaign_6_3
    assert report42.ratio == Fraction(3, 4)
    assert report63.ratio == Fraction(2, 3)
    assert Fraction(report42.downloaded_symbols, report42.naive_symbols) == Fraction(3, 4)
    assert Fraction(report63.downloaded_symbols, report63.naive_symbols) == Fraction(2, 3)
    _passline("criterion 8: savings ratios exactly 3/4 (k=2) and 2/3 (k=3)")


def test_criterion_9_field_oracle_equivalence(gf256, gf65536):
    """Table multiplication agrees with the carry-less-reduce oracle on all
    65536 GF(2^8) pairs and on 10^6 random GF(2^16) pairs; zero mismatches."""
    mismatches = 0
    for a in range(256):
        for b in range(256):
            if gf256.mul(a, b) != clmul_reduce(a, b, 8, 0x11D):
                mismatches += 1
    assert mismatches == 0

    rng = random.Random(0xC0DE)
    for _ in range(1_000_000):
        a = rng.getrandbits(16)
        b = rng.getrandbits(16)
        if gf65536.mul(a, b) != clmul_reduce(a, b, 16, 0x1100B):
            mismatches += 1
    assert mismatches == 0
    _passline(
        "criterion 9: 65536 exhaustive gf256 pairs + 1,000,000 random "
        "gf65536 pairs, zero mismatches"
    )
