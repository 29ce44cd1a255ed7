"""Code state: 2n vectors {u_i, v_i} in F^(2k) across n storage nodes.

Node i stores two symbols per stripe x: x.u_i and x.v_i (dot products over
the field).  The per-stripe calls take and return plain symbols: ``encode``
gives (x.u_1, x.v_1, ..., x.u_n, x.v_n), ``decode`` takes each chosen
node's u symbol then its v symbol, and ``read_systematic`` takes the u
symbols of nodes 1..2k.  They trust the symbols: a ``GF.is_symbol`` test
per stripe would cost the data path.

The u columns are pinned forever; the v columns evolve as
repairs happen.  The maintained invariant is that the 2n columns of
[U | V] form a (2n, 2k)-MDS code -- every 2k-subset has full rank 2k --
which implies the n nodes form an (n, k)-MDS code, and additionally
u_1..u_2k stay equal to the standard basis so the first 2k nodes expose
the stripe verbatim.

Columns are 0-indexed internally; node ids in the public API are 1-based
(they name physical machines, and the serialized files use the same ids).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from . import matrix
from .bounds import check_shape, degree_bound, degree_bound_reaches
from .errors import BadShape, DimensionMismatch, FieldTooSmall, TooFewNodes
from .field import GF
from .record import Frozen

Column = tuple[int, ...]


class CodeState(Frozen):
    """Immutable snapshot of the code at one epoch.

    u_cols[i] / v_cols[i] are the length-2k column vectors of node i+1.
    A repair produces a new CodeState with one v column replaced and
    epoch incremented; u columns never change.  Two states are equal when
    their fields are, and equal states hash alike; assigning a field
    raises ``ReadOnly``.  The fields are plain instance attributes, read
    once per stripe by the data path.
    """

    _fields = ("n", "k", "field", "u_cols", "v_cols", "epoch")

    def __init__(self, n: int, k: int, field: GF, u_cols, v_cols, epoch: int = 0):
        self._set(n, k, field, u_cols, v_cols, epoch)

    @property
    def dim(self) -> int:
        return 2 * self.k

    def is_node(self, node) -> bool:
        """Whether ``node`` is a node id: an int, not a bool, in 1..n."""
        return type(node) is int and 1 <= node <= self.n

    def decode_nodes(self, nodes) -> tuple[int, ...]:
        """``nodes`` as a tuple of k distinct node ids; the rule decode and extract share."""
        try:
            nodes = tuple(nodes)
        except TypeError:
            raise DimensionMismatch(f"nodes {nodes!r} are not node ids") from None
        if len(nodes) < self.k:
            raise TooFewNodes(f"need k={self.k} nodes, got {len(nodes)}")
        if len(nodes) > self.k:
            raise DimensionMismatch(f"decode takes k={self.k} nodes, got {len(nodes)}")
        for node in nodes:
            if not self.is_node(node):
                raise BadShape(f"node id {node!r} outside 1..{self.n}")
        if len(set(nodes)) != len(nodes):  # set() needs the ids checked above
            raise DimensionMismatch(f"duplicate node ids in {nodes}")
        return nodes

    def node_columns(self, node: int) -> tuple[Column, Column]:
        """(u, v) columns of a 1-based node id."""
        if not self.is_node(node):
            raise BadShape(f"node {node!r} outside 1..{self.n}")
        return self.u_cols[node - 1], self.v_cols[node - 1]

    def repaired(self, node: int, v_new: Column) -> CodeState:
        """The next epoch's state, with node ``node``'s v column replaced."""
        v_cols = list(self.v_cols)
        v_cols[node - 1] = v_new
        n, k, field, epoch = self.n, self.k, self.field, self.epoch
        return CodeState(n, k, field, self.u_cols, tuple(v_cols), epoch + 1)

    @cached_property
    def encode_terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each column's nonzero entries as (row, log entry) pairs.

        Columns come in the order u_1, v_1, ..., u_n, v_n, the order of
        ``encode``'s output.  Computed once per state.
        """
        log = self.field.log
        return tuple(
            tuple((r, log[e]) for r, e in enumerate(col) if e)
            for pair in zip(self.u_cols, self.v_cols)
            for col in pair
        )


def dot(gf: GF, a, b) -> int:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of lengths {len(a)} and {len(b)}")
    exp, log = gf.exp, gf.log
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc ^= exp[log[x] + log[y]]
    return acc


def init_systematic(n: int, k: int, field: GF) -> CodeState:
    """Fresh systematic code state for n nodes and k data pieces.

    The 2n columns are those of the systematic generator [I | C] where C
    is a 2k x (2n-2k) Cauchy matrix on the distinct points 0..2k-1 (rows)
    and 2k..2n-1 (columns): C[r][j] = 1 / (r + (2k+j)) in the field.
    Every square submatrix of a Cauchy matrix is nonsingular, so every
    2k-subset of columns of [I | C] has full rank and the MDS invariant
    holds by construction (tests re-verify it exhaustively).

    Identity columns become u_1..u_2k.  The 2n-2k Cauchy columns fill
    u_(2k+1)..u_n and then v_1..v_n, in that order.
    """
    check_shape(n, k)
    if 2 * n > field.order:
        raise FieldTooSmall(
            f"need 2n={2 * n} distinct field points, field has {field.order}"
        )
    if degree_bound_reaches(n, k, field.order):
        value = "" if degree_bound_reaches(n, k, 2**64) else f" = {degree_bound(n, k)}"
        raise FieldTooSmall(
            f"|F|={field.order} <= d0 = 2*C(2n-1, 2k-1){value} for (n={n}, k={k}); "
            f"use a larger field"
        )

    dim = 2 * k
    basis = [tuple(1 if r == c else 0 for r in range(dim)) for c in range(dim)]
    parity = [
        tuple(field.inv(r ^ (dim + j)) for r in range(dim))
        for j in range(2 * n - dim)
    ]
    u_cols = tuple(basis) + tuple(parity[: n - dim])
    v_cols = tuple(parity[n - dim :])
    return CodeState(n=n, k=k, field=field, u_cols=u_cols, v_cols=v_cols, epoch=0)


def all_columns(state: CodeState) -> tuple[Column, ...]:
    """The 2n stored columns in the fixed order u_1..u_n, v_1..v_n."""
    return state.u_cols + state.v_cols


def column_label(state: CodeState, pos: int) -> str:
    """Human-readable name for a position in all_columns ('u3', 'v1', ...)."""
    if pos < state.n:
        return f"u{pos + 1}"
    return f"v{pos - state.n + 1}"


def first_singular(gf: GF, cols, size: int, extra=()) -> tuple[int, ...] | None:
    """First ``size``-subset S of ``cols`` with det([S | extra]) == 0, or None.

    The one subset scan behind both MDS checks.  Subsets are positions
    into ``cols`` in lexicographic order, each costs one det, and the
    scan stops at the first zero.  A unit column of S (one nonzero entry
    c, in row r) is struck out together with row r: Laplace expansion
    along it multiplies the det by c (no sign in characteristic 2), so
    zero stays zero and det runs on the kept rows R of the other columns
    and ``extra`` alone.  A second unit column on a struck row stays in,
    as an all-zero column of the reduced matrix, so its det is 0 as S's is.

    Subsets that strike the same rows form a block, a run of the order
    when the unit columns come first.  The block's first subset gets its
    det on P, its other columns and ``extra`` over R.  When a second
    subset of the block follows (so det(P) was not zero) and P is larger
    than 3x3, one elimination rebases the columns a later subset can hold
    outside P to Q = P^-1 G[R, :], with no ``matrix.solve``.  In Q, P's
    own columns are unit columns; striking them, each later subset of the
    block takes its det on Q's rows of the P columns it lacks and its own
    columns outside P.  det(S) is det(P) times that det, zero exactly when
    it is.  Only the current block is kept.
    """
    extra = list(extra)
    supports = [sum(1 << r for r, e in enumerate(col) if e) for col in cols]
    unit = [s if s & (s - 1) == 0 else 0 for s in supports]  # a unit column's row bit
    block, base, q = -1, (), None  # the block's struck rows, P's columns, and Q by column
    for subset in combinations(range(len(cols)), size):
        struck, rest = 0, []
        for i in subset:
            bit = unit[i]
            if bit and not struck & bit:
                struck |= bit
            else:
                rest.append(i)
        if struck != block:
            block, base, q = struck, rest, None
        elif q is None and len(first) > 3:  # a second subset: rebase on P, the first matrix
            p = len(first)
            kept = [r for r in range(p + struck.bit_count()) if not struck >> r & 1]
            # outside P: columns that are not unit columns, or unit on a struck row
            later = [i for i, b in enumerate(unit) if (b & struck or not b) and i not in base]
            a = [[*row, *(cols[i][r] for i in later)] for row, r in zip(first, kept)]
            matrix._eliminate(gf, a, p)
            q = {i: matrix._back_substitute(gf, a, p, p + c) for c, i in enumerate(later)}
        if q is None:
            rows = zip(*[cols[i] for i in rest], *extra)
            m = first = [row for r, row in enumerate(rows) if not struck >> r & 1]
        else:
            left = [j for j, i in enumerate(base) if i not in rest]
            m = [[col[j] for j in left] for i in rest if (col := q.get(i))]  # none for P's columns
        if matrix.det(gf, m) == 0:
            return subset
    return None


def find_mds_violation(state: CodeState) -> tuple[int, ...] | None:
    """First rank-deficient 2k-subset of the 2n columns, or None.

    Exhaustive over all C(2n, 2k) subsets; positions index into
    all_columns.
    """
    return first_singular(state.field, all_columns(state), state.dim)


def encode(state: CodeState, stripe) -> list[int]:
    """The 2n symbols (x.u_1, x.v_1, ..., x.u_n, x.v_n) of one stripe x."""
    if len(stripe) != state.dim:
        raise DimensionMismatch(
            f"stripe must have 2k={state.dim} symbols, got {len(stripe)}"
        )
    exp, log = state.field.data_tables()
    lx = [log[x] for x in stripe]  # -1 marks a zero symbol
    out = []
    for terms in state.encode_terms:
        acc = 0
        for r, lc in terms:
            lr = lx[r]
            if lr >= 0:
                acc ^= exp[lc + lr]
        out.append(acc)
    return out


def decode(state: CodeState, nodes, symbols) -> Column:
    """Recover a stripe from any k distinct nodes' symbols.

    ``nodes`` must pass ``CodeState.decode_nodes``.  ``symbols`` holds each
    node's u symbol then its v symbol, in the order of ``nodes``; a wrong
    count raises ``matrix.solve``'s DimensionMismatch.  The 2k equations
    form a system that is invertible whenever the MDS invariant holds; a
    Singular error here means the invariant itself is broken.  Its one
    ``matrix.solve`` reuses the inverse while the node set stays the same,
    so a 256 KiB (4,2) GF(2^8) ``extract`` takes about 124 ms, not 302.
    """
    nodes = state.decode_nodes(nodes)
    u, v = state.u_cols, state.v_cols
    rows = [col for node in nodes for col in (u[node - 1], v[node - 1])]
    return tuple(matrix.solve(state.field, rows, symbols))


def read_systematic(state: CodeState, symbols) -> Column:
    """Read the stripe straight off the u symbols of nodes 1..2k.

    u_i = e_i for i <= 2k at every epoch, so node i's u symbol *is* the
    i-th information symbol: no field arithmetic.
    """
    if len(symbols) != state.dim:
        raise DimensionMismatch(
            f"systematic read needs 2k={state.dim} symbols, got {len(symbols)}"
        )
    return tuple(symbols)
