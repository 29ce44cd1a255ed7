"""Single-node repair with minimum download: draw, solve, check, retry.

A failed node is rebuilt from k+1 helpers.  The replacement downloads ONE
symbol from each helper i, the blend alpha_i*x.u_i + beta_i*x.v_i, so a
repair moves k+1 symbols per stripe instead of the naive 2k.

The coefficients must satisfy two constraints:

  * the downloaded blends must sum to x.u_failed exactly, so the u symbol
    is reconstructed verbatim (the code stays systematic);
  * the new v column, a rho-weighted recombination of the same blends,
    must keep all 2n columns (2n, 2k)-MDS.

Writing the per-helper coefficients as one vector eta = (alpha_1, beta_1,
..., alpha_(k+1), beta_(k+1)) and stacking the helpers' columns into
A = [u_h1, v_h1, ..., u_h(k+1), v_h(k+1)], the first constraint is
A @ eta = u_failed.  A is 2k x (2k+2) and any 2k of its columns are
independent (they are distinct columns of an MDS code), so the solution
set is a 2-parameter affine family: fixing any two entries of eta pins
the rest uniquely.  We expose (alpha_1, beta_1) as the free pair, draw it
uniformly together with rho_1..rho_(k+1) -- k+3 random symbols per
attempt, which the transcript keeps as alpha[0], beta[0] and rho -- and
accept iff the resulting replacement column clears every
(2k-1)-subset determinant.  Rejection probability per draw is at most
degree_bound(n, k) / |F|, tiny for the supported fields, so the retry
loop terminates almost immediately in practice.
"""

from __future__ import annotations

import random

from . import matrix
from .code import CodeState, Column, first_singular
from .errors import (
    BadHelpers,
    DimensionMismatch,
    InvariantViolation,
    NotASymbol,
    RetriesExhausted,
    UnsupportedShape,
)
from .record import Frozen

MAX_RETRIES = 64  # rejected draws before a repair gives up


class RepairTranscript(Frozen):
    """Everything one repair did, enough to audit or replay it.  Immutable.

    alpha[0], beta[0] and rho are the k+3 drawn values: the free blend
    pair at the first helper and the k+1 recombination weights, aligned
    with helpers.  The other 2k blend coefficients follow from them.
    The fields are slots, which ``rebuild_symbols`` reads once per stripe.
    """

    __slots__ = _fields = (
        "failed", "helpers", "alpha", "beta", "rho", "v_new", "retries",
        "epoch_before", "epoch_after",
    )

    def __init__(self, failed, helpers, alpha, beta, rho, v_new, retries,
                 epoch_before, epoch_after):
        self._set(failed, helpers, alpha, beta, rho, v_new, retries,
                  epoch_before, epoch_after)


def validate_helpers(state: CodeState, failed: int, helpers) -> tuple[int, ...]:
    if not state.is_node(failed):
        raise BadHelpers(f"failed node {failed!r} outside 1..{state.n}")
    if state.n < state.k + 2:
        raise UnsupportedShape(
            f"repair needs k+1={state.k + 1} surviving helpers; "
            f"n={state.n} < k+2={state.k + 2}"
        )
    try:
        helpers = tuple(helpers)
    except TypeError:
        raise BadHelpers(f"helpers must be node ids, got {helpers!r}") from None
    if len(helpers) != state.k + 1:
        raise BadHelpers(f"need exactly k+1={state.k + 1} helpers, got {len(helpers)}")
    if any(h in helpers[:i] for i, h in enumerate(helpers)):  # ids may be unhashable
        raise BadHelpers(f"duplicate helpers in {helpers}")
    for h in helpers:
        if not state.is_node(h):
            raise BadHelpers(f"helper {h!r} outside 1..{state.n}")
        if h == failed:
            raise BadHelpers(f"failed node {failed} cannot be its own helper")
    return helpers


def default_helpers(state: CodeState, failed: int) -> tuple[int, ...]:
    """The k+1 lowest-numbered survivors."""
    picks = [h for h in range(1, state.n + 1) if h != failed][: state.k + 1]
    return validate_helpers(state, failed, picks)


def solve_coefficients(
    state: CodeState, failed: int, helpers, alpha1: int, beta1: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-helper download coefficients with (alpha1, beta1) free.

    Returns (alpha, beta), each of length k+1 aligned with helpers; the
    blends they define sum to the failed node's u column exactly.  The
    other 2k coefficients are the unique solution of the square system on
    the columns of helpers 2..k+1, which is invertible whenever the MDS
    invariant holds -- Singular here signals a corrupted state, not bad
    input.
    """
    helpers = validate_helpers(state, failed, helpers)
    gf = state.field
    if not (gf.is_symbol(alpha1) and gf.is_symbol(beta1)):
        raise NotASymbol(f"alpha1={alpha1!r} or beta1={beta1!r} outside 0..{gf.order - 1}")
    (u1, v1), *others = [state.node_columns(h) for h in helpers]
    rhs = [
        t ^ gf.mul(alpha1, a) ^ gf.mul(beta1, b)
        for t, a, b in zip(state.u_cols[failed - 1], u1, v1)
    ]
    cols = [col for pair in others for col in pair]
    rest = matrix.solve(gf, list(zip(*cols)), rhs)
    return (alpha1, *rest[0::2]), (beta1, *rest[1::2])


def combine_replacement(state: CodeState, helpers, alpha, beta, rho) -> Column:
    """New v column: sum of rho_i * (alpha_i u_i + beta_i v_i) over helpers."""
    if not len(helpers) == len(alpha) == len(beta) == len(rho):
        raise DimensionMismatch(
            f"helpers/alpha/beta/rho lengths differ: "
            f"{len(helpers)}/{len(alpha)}/{len(beta)}/{len(rho)}"
        )
    gf = state.field
    if not all(map(gf.is_symbol, (*alpha, *beta, *rho))):
        raise NotASymbol(f"alpha/beta/rho {alpha}/{beta}/{rho} outside 0..{gf.order - 1}")
    acc = [0] * state.dim
    for h, a, b, r in zip(helpers, alpha, beta, rho):
        if r == 0:
            continue
        u, v = state.node_columns(h)
        for idx in range(state.dim):
            blend = gf.mul(a, u[idx]) ^ gf.mul(b, v[idx])
            acc[idx] ^= gf.mul(r, blend)
    return tuple(acc)


def retained_columns(state: CodeState, failed: int) -> list[Column]:
    """The 2n-1 columns that survive a failure of node ``failed``.

    Order: u_1..u_n, then every v except the failed node's, ascending.
    """
    if not state.is_node(failed):
        raise BadHelpers(f"failed node {failed!r} outside 1..{state.n}")
    return list(state.u_cols) + [
        v for i, v in enumerate(state.v_cols) if i != failed - 1
    ]


def find_replacement_conflict(
    state: CodeState, failed: int, v_new
) -> tuple[int, ...] | None:
    """First (2k-1)-subset the candidate column fails against, or None.

    The candidate keeps the code MDS iff for every (2k-1)-subset S of the
    retained columns, det([S | v_new]) != 0: subsets avoiding v_new were
    full-rank before the repair and stay untouched.  Subsets are scanned
    in lexicographic order and the scan stops at the first zero
    determinant -- rejection is cheap, acceptance pays the full product.
    """
    if len(v_new) != state.dim:
        raise DimensionMismatch(
            f"replacement column must have 2k={state.dim} entries, got {len(v_new)}"
        )
    if not all(map(state.field.is_symbol, v_new)):
        raise NotASymbol(f"replacement column {tuple(v_new)} is not in F^{state.dim}")
    return first_singular(
        state.field, retained_columns(state, failed), state.dim - 1, extra=(tuple(v_new),)
    )


def _draw(state: CodeState, rng: random.Random) -> tuple:
    """(alpha1, beta1, rho): k+3 uniform symbols, drawn in that order."""
    values = [state.field.random_element(rng) for _ in range(state.k + 3)]
    return values[0], values[1], tuple(values[2:])


def repair_step(
    state: CodeState, failed: int, helpers, draw, retries: int
) -> tuple[CodeState, RepairTranscript]:
    """The next state and transcript that a draw (alpha1, beta1, rho) defines.

    Solves the other blend coefficients, combines the replacement v column
    and installs it, without checking it; ``repair`` accepts the result
    only when ``find_replacement_conflict`` passes, and the state-file
    loader replays each history entry through this same step.
    """
    alpha1, beta1, rho = draw
    alpha, beta = solve_coefficients(state, failed, helpers, alpha1, beta1)
    v_new = combine_replacement(state, helpers, alpha, beta, rho)
    after = state.repaired(failed, v_new)
    return after, RepairTranscript(
        failed, tuple(helpers), alpha, beta, rho, v_new, retries, state.epoch, after.epoch
    )


def repair(
    state: CodeState, failed: int, helpers, rng: random.Random
) -> tuple[CodeState, RepairTranscript]:
    """Repair one failed node; returns the new state and a transcript.

    Draws the k+3 free coefficients uniformly, takes the ``repair_step``
    they define and accepts it iff the exhaustive subset check passes;
    otherwise redraws.  MAX_RETRIES bounds *rejected* draws -- with a
    properly sized field the expected number of retries is well below one,
    so exhausting them signals a broken configuration.
    """
    helpers = validate_helpers(state, failed, helpers)
    for retries in range(MAX_RETRIES + 1):
        after, transcript = repair_step(state, failed, helpers, _draw(state, rng), retries)
        if find_replacement_conflict(state, failed, transcript.v_new) is None:
            return after, transcript
    raise RetriesExhausted(
        f"{MAX_RETRIES + 1} rejected draws for failed={failed}; expected "
        f"rejection rate is under d0/|F|, so the field or shape "
        f"is misconfigured"
    )


def rebuild_symbols(state, symbols, transcript: RepairTranscript) -> tuple[int, int]:
    """Replay one stripe's downloads and rebuild the failed node's symbols.

    ``symbols`` holds each helper's (u, v) symbol pair for the stripe,
    flattened, in transcript helper order.  Each helper ships the single
    blended symbol d_i = alpha_i*sym_u + beta_i*sym_v; the replacement node
    stores (sum d_i, sum rho_i d_i), which equal the stripe's dot products
    with the failed node's u column and new v column.
    """
    if len(symbols) != 2 * len(transcript.helpers):
        raise DimensionMismatch(
            f"expected {2 * len(transcript.helpers)} helper symbols, got {len(symbols)}"
        )
    if state.epoch != transcript.epoch_after:
        raise InvariantViolation(
            f"transcript is for epoch {transcript.epoch_after}, state is at "
            f"{state.epoch}"
        )
    if state.v_cols[transcript.failed - 1] != transcript.v_new:
        raise InvariantViolation("transcript v column does not match state")
    exp, log = state.field.exp, state.field.log
    sym_u = 0
    sym_v = 0
    pairs = iter(symbols)
    for su, sv, a, b, r in zip(
        pairs, pairs, transcript.alpha, transcript.beta, transcript.rho
    ):
        d = exp[log[a] + log[su]] if a and su else 0
        if b and sv:
            d ^= exp[log[b] + log[sv]]
        if d:
            sym_u ^= d
            if r:
                sym_v ^= exp[log[r] + log[d]]
    return sym_u, sym_v
