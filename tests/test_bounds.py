from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from mdsrepair.bounds import (
    cut_bound,
    degree_bound,
    degree_bound_reaches,
    find_cut_violation,
)
from mdsrepair.errors import BadShape


def test_cut_bound_frozen_values():
    # repairing from k+1 helpers with a 2k-symbol file costs k+1 symbols
    for k in (1, 2, 3, 5):
        assert cut_bound(2 * k, k, k + 1) == k + 1
    # repairing from exactly k helpers is as bad as refetching everything
    assert cut_bound(10, 2, 2) == 10
    assert cut_bound(4, 2, 3) == 3


def test_cut_bound_is_exact_rational():
    b = cut_bound(5, 2, 3)
    assert isinstance(b, Fraction)
    assert b == Fraction(15, 4)


def test_cut_bound_monotone_decreasing_in_d():
    for k in (2, 3):
        values = [cut_bound(12, k, d) for d in range(k, k + 6)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]


def test_cut_bound_rejects_bad_shapes():
    with pytest.raises(BadShape):
        cut_bound(4, 3, 2)
    with pytest.raises(BadShape):
        cut_bound(0, 2, 3)
    with pytest.raises(BadShape):
        cut_bound(4, 0, 3)


@pytest.mark.parametrize("call", [
    lambda: cut_bound("4", 2, 3),
    lambda: cut_bound(4, "2", 3),
    lambda: cut_bound(4, 2, 3.5),
    lambda: cut_bound(4, True, 2),
    lambda: cut_bound(4.0, 2, 3),
    lambda: find_cut_violation(4, 2, (1, 1, 1), True),
    lambda: find_cut_violation(4, 2, (1, 1, 1), "2"),
    lambda: find_cut_violation((4, 2, (1, 1, 1)), 2, (1, 1, 1), 2),
    lambda: find_cut_violation("4", 2, (1, 1, 1), 2),
    lambda: find_cut_violation(4, 2, (1, 1.5, 1), 2),
    lambda: find_cut_violation(4, 2, 5, 2),
], ids=["B '4'", "k '2'", "d 3.5", "k True", "B 4.0", "plan k True", "plan k '2'",
        "plan tuple", "plan B '4'", "plan download 1.5", "plan downloads 5"])
def test_bounds_reject_counts_that_are_not_ints_and_amounts_that_are_not_exact(call):
    with pytest.raises(BadShape):
        call()


def test_degree_bound_values():
    assert degree_bound(4, 2) == 2 * comb(7, 3) == 70
    assert degree_bound(6, 3) == 2 * comb(11, 5) == 924
    assert degree_bound(2, 1) == 2 * comb(3, 1) == 6
    with pytest.raises(BadShape):
        degree_bound(3, 2)


@pytest.mark.parametrize("n, k", [("4", 2), (4.0, 2), (4, True)])
def test_degree_bound_rejects_non_int_shapes(n, k):
    with pytest.raises(BadShape, match="must be ints"):
        degree_bound(n, k)


@given(k=st.integers(1, 12), extra=st.integers(0, 12), shift=st.integers(-2, 2))
def test_degree_bound_reaches_matches_exact_comparison(k, extra, shift):
    n = 2 * k + extra
    limit = degree_bound(n, k) + shift
    assert degree_bound_reaches(n, k, limit) == (degree_bound(n, k) >= limit)


def test_uniform_plan_meets_every_inequality_with_equality():
    for k, d in [(2, 3), (3, 4), (2, 5), (4, 7)]:
        file_size = Fraction(60)
        beta = Fraction(file_size, k * (d - k + 1))
        node_storage = Fraction(file_size, k)
        assert find_cut_violation(file_size, node_storage, (beta,) * d, k) is None
        # at d = k+1 every inequality is tight
        if d == k + 1:
            for subset in combinations(range(d), k - 1):
                outside = sum(beta for i in range(d) if i not in subset)
                assert (k - 1) * node_storage + outside == file_size


def test_zero_downloads_violate():
    violation = find_cut_violation(8, 3, (0, 0, 0), 2)
    assert violation == (0,)  # first lexicographic (k-1)-subset


def test_simulator_shaped_plan_tight():
    # beta = 1 symbol from each of k+1 helpers, alpha = 2, B = 2k
    for k in (2, 3, 4):
        assert find_cut_violation(2 * k, 2, (1,) * (k + 1), k) is None
        for subset in combinations(range(k + 1), k - 1):
            outside = sum(1 for i in range(k + 1) if i not in subset)
            assert (k - 1) * 2 + outside == 2 * k  # equality, not slack


def test_plan_validation():
    with pytest.raises(BadShape):
        find_cut_violation(0, 1, (1,), 1)
    with pytest.raises(BadShape):
        find_cut_violation(4, -1, (1, 1), 2)
    with pytest.raises(BadShape):
        find_cut_violation(4, 2, (1,), 2)


@given(
    st.integers(2, 4),
    st.integers(0, 3),
    st.lists(st.integers(0, 6), min_size=2, max_size=8),
    st.integers(1, 40),
)
def test_any_feasible_plan_downloads_at_least_the_bound(k, extra_d, slack, file_size):
    # start from the symmetric optimum and add arbitrary nonnegative slack:
    # the plan stays feasible and its total must dominate the closed form
    d = k + 1 + extra_d
    base = Fraction(file_size, k * (d - k + 1))
    downloads = tuple(
        base + Fraction(slack[i % len(slack)], 7) for i in range(d)
    )
    assert find_cut_violation(file_size, Fraction(file_size, k), downloads, k) is None
    assert sum(downloads) >= cut_bound(file_size, k, d)


@given(
    st.integers(2, 4),
    st.integers(0, 2),
    st.lists(st.fractions(0, 10), min_size=3, max_size=9),
    st.integers(1, 30),
)
def test_passing_random_plans_respect_the_bound(k, extra_d, downloads, file_size):
    # completely arbitrary download vectors: whenever every cut inequality
    # holds, the summed total must clear the bound (MDS storage alpha = B/k)
    d = k + 1 + extra_d
    if len(downloads) < d:
        downloads = list(downloads) * d
    downloads = tuple(downloads[:d])
    if find_cut_violation(file_size, Fraction(file_size, k), downloads, k) is None:
        assert sum(downloads) >= cut_bound(file_size, k, d)
