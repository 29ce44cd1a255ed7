import random

import pytest
from hypothesis import given, strategies as st

from mdsrepair import matrix
from mdsrepair.errors import DimensionMismatch, NonSquare, Singular
from mdsrepair.field import GF

from oracles import cofactor_det, mat_mul, mat_vec

GF256 = GF(8)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rand_matrix(rng, rows, cols, order=256):
    return [[rng.randrange(order) for _ in range(cols)] for _ in range(rows)]


def rand_invertible(rng, n, order=256):
    while True:
        m = rand_matrix(rng, n, n, order)
        if matrix.det(GF256, m) != 0:
            return m


square_gf256 = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 255), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def test_det_identity_any_size():
    for n in range(1, 7):
        assert matrix.det(GF256, identity(n)) == 1


def test_det_repeated_column_is_zero():
    rng = random.Random(5)
    for _ in range(20):
        m = rand_matrix(rng, 4, 4)
        for row in m:
            row[3] = row[1]
        assert matrix.det(GF256, m) == 0


def test_det_2x2_cofactor_example():
    # 1*4 xor 2*3 = 4 xor 6
    assert matrix.det(GF256, [[1, 2], [3, 4]]) == 2


def test_det_requires_square():
    with pytest.raises(NonSquare):
        matrix.det(GF256, [[1, 2, 3], [4, 5, 6]])


@given(square_gf256)
def test_det_matches_cofactor_oracle(m):
    assert matrix.det(GF256, m) == cofactor_det(m, 8, 0x11D)


@given(square_gf256, st.randoms(use_true_random=False))
def test_det_multiplicative(m, pyrand):
    n = len(m)
    other = [[pyrand.randrange(256) for _ in range(n)] for _ in range(n)]
    lhs = matrix.det(GF256, mat_mul(m, other, 8, 0x11D))
    rhs = GF256.mul(matrix.det(GF256, m), matrix.det(GF256, other))
    assert lhs == rhs


@given(square_gf256)
def test_det_unchanged_by_column_swap(m):
    # -1 == 1 in characteristic 2, so a swap cannot flip anything.
    n = len(m)
    if n < 2:
        return
    swapped = [[row[1], row[0]] + list(row[2:]) for row in m]
    assert matrix.det(GF256, m) == matrix.det(GF256, swapped)


@given(square_gf256)
def test_rank_full_iff_det_nonzero(m):
    # full rank is exactly when M x = b has a unique solution
    try:
        matrix.solve(GF256, m, [1] * len(m))
        full = True
    except Singular:
        full = False
    assert full == (matrix.det(GF256, m) != 0)


def test_solve_singular_raises():
    with pytest.raises(Singular):
        matrix.solve(GF256, [[1, 1], [1, 1]], [1, 2])


def test_solve_rejects_bad_shapes():
    with pytest.raises(NonSquare):
        matrix.solve(GF256, [[1, 2, 3], [4, 5, 6]], [1, 2])
    with pytest.raises(DimensionMismatch):
        matrix.solve(GF256, identity(3), [1, 2])


@given(st.integers(1, 5), st.randoms(use_true_random=False))
def test_solve_round_trip(n, pyrand):
    rng = random.Random(pyrand.randrange(2**30))
    m = rand_invertible(rng, n)
    x = [rng.randrange(256) for _ in range(n)]
    b = mat_vec(m, x, 8, 0x11D)
    assert matrix.solve(GF256, m, b) == x


def test_solve_gf65536(gf65536):
    rng = random.Random(3)
    n = 6
    while True:
        m = rand_matrix(rng, n, n, gf65536.order)
        if matrix.det(gf65536, m) != 0:
            break
    x = [rng.randrange(gf65536.order) for _ in range(n)]
    assert matrix.solve(gf65536, m, mat_vec(m, x, 16, 0x1100B)) == x
