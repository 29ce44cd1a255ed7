import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from mdsrepair import matrix
from mdsrepair.errors import DimensionMismatch, NonSquare, Singular
from mdsrepair.field import DEFAULT_POLY, GF

from oracles import cofactor_det, gauss_solve, mat_mul, mat_vec

GF256 = GF(8)
FIELDS = {8: GF256, 16: GF(16)}


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


def small_square(m):
    """An n x n matrix over GF(2^m) for n = 0..3, about a third of its entries zero."""
    entry = st.one_of(st.just(0), st.integers(1, 2**m - 1))
    return st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@given(st.sampled_from([8, 16]).flatmap(lambda m: st.tuples(st.just(m), small_square(m))))
def test_closed_form_dets_match_cofactor_oracle(case):
    m, rows = case
    assert matrix.det(FIELDS[m], rows) == cofactor_det(rows, m, DEFAULT_POLY[m])


@pytest.mark.parametrize("rows", [
    [[]], [[1, 2]], [[1], [2, 3]], [[1, 2], [3]], [[1, 2, 3], [4, 5], [6, 7, 8]],
    [[1, 2], [3, 4], [5, 6]],
], ids=["1x0", "1x2", "2 ragged first", "2 ragged last", "3 ragged", "3x2"])
def test_small_ragged_matrices_are_not_square(rows):
    with pytest.raises(NonSquare):
        matrix.det(GF256, rows)


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


# --- the record of the last matrix solved --------------------------------


def oracle_solve(rows, b, m):
    """gauss_solve's answer, or None for a singular matrix."""
    try:
        return gauss_solve(rows, b, m, DEFAULT_POLY[m])
    except AssertionError:  # gauss_solve's "singular system"
        return None


def check_solve(m, rows, b):
    """matrix.solve over GF(2^m) gives the oracle's answer, or Singular."""
    want = oracle_solve(rows, b, m)
    if want is None:
        with pytest.raises(Singular):
            matrix.solve(FIELDS[m], rows, b)
    else:
        assert matrix.solve(FIELDS[m], rows, b) == want


def planted(rng, kind, n, order):
    m = [[rng.randrange(order) for _ in range(n)] for _ in range(n)]
    if kind == "swaps":  # a zero diagonal: every pivot may need a row swap
        for i in range(n):
            m[i][i] = 0
    elif kind == "singular":
        m[-1] = [0] * n if n == 1 else list(m[0])
    return m


@given(
    m=st.sampled_from([8, 16]),
    n=st.integers(1, 8),
    kinds=st.lists(st.sampled_from(["random", "swaps", "singular"]), min_size=1, max_size=3),
    order=st.lists(st.integers(0, 2), min_size=1, max_size=10),
    rows_as=st.sampled_from([tuple, list]),
    same_object=st.booleans(),
    pyrand=st.randoms(use_true_random=False),
)
def test_solve_sequences_match_the_oracle(m, n, kinds, order, rows_as, same_object, pyrand):
    # repeats of one matrix with new right-hand sides, interleaved matrices,
    # row swaps and singular matrices, each solve held to the oracle
    gf = FIELDS[m]
    pool = [planted(pyrand, kind, n, gf.order) for kind in kinds]
    built = [[rows_as(row) for row in rows] for rows in pool]
    for i in order:
        i %= len(pool)
        rows = built[i] if same_object else [rows_as(row) for row in pool[i]]
        check_solve(m, rows, [pyrand.randrange(gf.order) for _ in range(n)])


def test_a_repeated_matrix_is_eliminated_twice(monkeypatch):
    # once for its first answer, once for its inverse; then only lookups
    rng = random.Random(11)
    rows, other = ([tuple(row) for row in rand_invertible(rng, 4)] for _ in range(2))
    monkeypatch.setattr(matrix, "_last", (0, None, None))
    calls = []
    eliminate = matrix._eliminate
    monkeypatch.setattr(matrix, "_eliminate", lambda *a: calls.append(1) or eliminate(*a))
    for _ in range(10):
        check_solve(8, rows, [rng.randrange(256) for _ in range(4)])
    assert len(calls) == 2
    with pytest.raises(DimensionMismatch):
        matrix.solve(GF256, rows, [1, 2, 3])
    for i in range(10):  # two matrices in turn: every solve is a first one
        check_solve(8, (other, rows)[i % 2], [rng.randrange(256) for _ in range(4)])
    assert len(calls) == 12
    for _ in range(3):  # the same rows over the other field are another matrix
        check_solve(16, rows, [rng.randrange(2**16) for _ in range(4)])
    assert len(calls) == 14


def test_a_repeated_tuple_of_rows_reaches_the_inverse(monkeypatch):
    # the record holds a list of rows; a tuple of the same rows still hits it
    rng = random.Random(12)
    rows = tuple(tuple(row) for row in rand_invertible(rng, 4))
    monkeypatch.setattr(matrix, "_last", (0, None, None, None))
    calls = []
    eliminate = matrix._eliminate
    monkeypatch.setattr(matrix, "_eliminate", lambda *a: calls.append(1) or eliminate(*a))
    for _ in range(10):
        check_solve(8, rows, [rng.randrange(256) for _ in range(4)])
    assert len(calls) == 2 and matrix._last[2] is not None
    check_solve(8, list(rows), [rng.randrange(256) for _ in range(4)])  # a list of them too
    assert len(calls) == 2


def change_entry(rows):
    rows[2][0] ^= 5


def replace_row(rows):
    rows[1] = [7, 1, 3]


def repeat_row(rows):
    rows[2][:] = rows[1]


def lengthen_row(rows):
    rows[2].append(1)


@pytest.mark.parametrize("change, error", [
    (change_entry, None), (replace_row, None), (repeat_row, Singular), (lengthen_row, NonSquare),
], ids=["entry", "row replaced", "singular", "not square"])
@pytest.mark.parametrize("solves_before", [1, 2, 3])
@pytest.mark.parametrize("m", [8, 16])
def test_a_matrix_changed_after_a_solve_is_solved_for_its_new_content(
    m, solves_before, change, error
):
    gf, rng = FIELDS[m], random.Random(solves_before)
    # upper triangular with a nonzero diagonal, so invertible
    rows = [[1, 0, 0], [0, rng.randrange(1, gf.order), 2], [0, 0, rng.randrange(1, gf.order)]]
    b = [rng.randrange(gf.order) for _ in range(3)]
    check_solve(m, [[1]], [1])  # another matrix first, so the next solve of rows is a first one
    for _ in range(solves_before):
        check_solve(m, rows, b)
    change(rows)  # in place: the caller's list and its row lists
    if error is None:
        for _ in range(3):
            check_solve(m, rows, [rng.randrange(gf.order) for _ in range(3)])
    else:
        with pytest.raises(error):
            matrix.solve(gf, rows, b)


@pytest.mark.parametrize("solves_before", [1, 2, 3])
@pytest.mark.parametrize("m", [8, 16])
def test_a_singular_solve_leaves_the_recorded_matrix_right(m, solves_before):
    gf, rng = FIELDS[m], random.Random(m + solves_before)
    n = 4 if m == 8 else 6
    while True:
        rows = [tuple(rng.randrange(gf.order) for _ in range(n)) for _ in range(n)]
        if matrix.det(gf, rows):
            break
    singular = [rows[0], *rows[:-1]]
    for _ in range(solves_before):
        check_solve(m, rows, [rng.randrange(gf.order) for _ in range(n)])
    with pytest.raises(Singular):
        matrix.solve(gf, singular, [1] * n)
    for _ in range(3):
        check_solve(m, rows, [rng.randrange(gf.order) for _ in range(n)])


@pytest.mark.parametrize("m", [8, 16])
def test_two_threads_sharing_the_record_get_right_answers(m):
    gf, rng = FIELDS[m], random.Random(m)
    n = 4 if m == 8 else 6
    pair = []
    while len(pair) < 2:
        rows = [tuple(rng.randrange(gf.order) for _ in range(n)) for _ in range(n)]
        if matrix.det(gf, rows):
            pair.append(rows)
    steps = 240
    # each thread runs each matrix three times in a row, starting on a different one
    jobs = [
        [(pair[(step // 3 + t) % 2], [rng.randrange(gf.order) for _ in range(n)])
         for step in range(steps)]
        for t in range(2)
    ]
    wants = [[oracle_solve(rows, b, m) for rows, b in job] for job in jobs]
    wrong = []

    def run(job, want):
        for (rows, b), x in zip(job, want):
            if matrix.solve(gf, rows, b) != x:
                wrong.append((rows, b))

    threads = [threading.Thread(target=run, args=pair_) for pair_ in zip(jobs, wants)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_the_reused_inverse_answers_alike_with_and_without_the_compact_tables(monkeypatch):
    # an inverse indexes the tuples until a data kernel builds the typed-array copies
    gf, rng = GF(16), random.Random("compact tables")
    monkeypatch.setattr(matrix, "_last", (0, None, None, None))
    for built in (False, True):
        while True:
            rows = [tuple(rng.randrange(gf.order) for _ in range(6)) for _ in range(6)]
            if matrix.det(gf, rows):
                break
        for _ in range(4):
            b = [rng.randrange(gf.order) for _ in range(6)]
            assert matrix.solve(gf, rows, b) == oracle_solve(rows, b, 16)
        assert (matrix._last[3][0] is gf.exp) is not built
        gf.data_tables()
