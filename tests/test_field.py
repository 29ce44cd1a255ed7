import gc
import math
import random

import pytest

from mdsrepair.errors import BadPolynomial, ZeroInverse
from mdsrepair.field import GF

from oracles import brute_inverse, clmul_reduce


def test_mul_identity_and_frozen_products(gf256):
    # 0x03 * 0x07 stays below degree 8: no reduction kicks in.
    assert gf256.mul(0x03, 0x07) == 0x09
    # 0x80 * 0x02 = 0x100, one reduction by 0x11d.
    assert gf256.mul(0x80, 0x02) == 0x1D
    for a in range(256):
        assert gf256.mul(a, 1) == a
        assert gf256.mul(a, 0) == 0


def test_inverse_frozen_and_exhaustive(gf256):
    assert gf256.inv(1) == 1
    assert brute_inverse(0x02, 8, 0x11D) == 0x8E
    assert gf256.inv(0x02) == 0x8E
    for a in range(1, 256):
        assert gf256.mul(a, gf256.inv(a)) == 1


def test_inverse_of_zero_raises(gf256, gf65536):
    with pytest.raises(ZeroInverse):
        gf256.inv(0)
    with pytest.raises(ZeroDivisionError):  # keeps the stdlib contract too
        gf65536.inv(0)


def test_mul_matches_carryless_oracle_all_pairs_m8(gf256):
    for a in range(256):
        for b in range(256):
            assert gf256.mul(a, b) == clmul_reduce(a, b, 8, 0x11D)


def test_mul_matches_carryless_oracle_sampled_m16(gf65536):
    rng = random.Random(20240901)
    for _ in range(10_000):
        a = rng.randrange(65536)
        b = rng.randrange(65536)
        assert gf65536.mul(a, b) == clmul_reduce(a, b, 16, 0x1100B)


def test_field_axioms_exhaustive_pairs_m8(gf256):
    for a in range(256):
        for b in range(256):
            assert a ^ b == b ^ a
            assert gf256.mul(a, b) == gf256.mul(b, a)


@pytest.mark.parametrize("m", [8, 16])
def test_field_axioms_sampled_triples(m, gf256, gf65536):
    gf = gf256 if m == 8 else gf65536
    rng = random.Random(m)
    for _ in range(10_000):
        a = rng.randrange(gf.order)
        b = rng.randrange(gf.order)
        c = rng.randrange(gf.order)
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)


def test_random_element_deterministic_per_seed(gf65536):
    rng1, rng2 = random.Random(123), random.Random(123)
    s1 = [gf65536.random_element(rng1) for _ in range(32)]
    s2 = [gf65536.random_element(rng2) for _ in range(32)]
    assert s1 == s2
    rng3 = random.Random(124)
    s3 = [gf65536.random_element(rng3) for _ in range(32)]
    assert s1 != s3


def test_random_element_uniform_m8(gf256):
    draws = 256 * 1000
    rng = random.Random(7)
    counts = [0] * 256
    for _ in range(draws):
        counts[gf256.random_element(rng)] += 1
    expected = draws / 256
    sigma = math.sqrt(draws * (1 / 256) * (255 / 256))
    for value, count in enumerate(counts):
        assert abs(count - expected) <= 5 * sigma, (value, count)


@pytest.mark.parametrize("m", [8, 16])
def test_tables_prove_the_constant_primitive(m, gf256, gf65536):
    """The whole tables, once per width: x generates every nonzero element.

    GF builds its tables without checking its constant, so this is the
    proof that each DEFAULT_POLY is primitive: a constant such as 0x11b,
    irreducible but with x of order 51, fails the first assertion.
    """
    gf = gf256 if m == 8 else gf65536
    q1 = gf.order - 1
    exp, log = gf.exp, gf.log
    assert sorted(exp[:q1]) == list(range(1, gf.order))  # each nonzero element once
    assert exp[0] == 1
    for i in range(1, q1):
        assert exp[i] == clmul_reduce(exp[i - 1], 2, m, gf.poly)
    assert clmul_reduce(exp[q1 - 1], 2, m, gf.poly) == 1  # x^(q-1) = 1 closes the cycle
    assert len(exp) == 2 * q1 and exp[q1:] == exp[:q1]
    assert len(log) == gf.order and log[0] == -1
    assert all(log[exp[i]] == i for i in range(q1))


def test_bad_polynomials_rejected():
    # Each width has one polynomial; foreign ones are rejected by the
    # state-file loader (test_cli::test_loader_rejects_bad_reduction_poly).
    with pytest.raises(BadPolynomial):
        GF(12)  # unsupported width


def test_field_equality_and_repr():
    assert GF(8) == GF(8) and hash(GF(8)) == hash(GF(8))
    assert GF(8).poly == 0x11D and GF(16).poly == 0x1100B
    assert GF(8) != GF(16)
    assert "0x11d" in repr(GF(8))


def test_data_tables_equal_the_tables(gf256, gf65536):
    for gf in (gf256, gf65536):
        exp, log = gf.data_tables()
        assert tuple(exp) == gf.exp and tuple(log) == gf.log
        assert log[0] == -1  # encode's zero-symbol marker
        assert gf.data_tables() is gf.data_tables()  # built once
    assert gf256.data_tables()[0] is gf256.exp  # small enough to index as is


def test_tables_leave_the_collector(gf65536):
    gc.collect()
    assert not gc.is_tracked(gf65536.exp) and not gc.is_tracked(gf65536.log)
