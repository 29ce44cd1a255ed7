"""Desk-scale storage simulator: stripe data over n nodes, fail, repair.

Bytes are packed into m-bit symbols (big-endian, m/8 bytes each), grouped
into stripes of 2k symbols, and every node stores two symbol planes: its
u symbols and its v symbols, one of each per stripe.  The cluster keeps
the ingested bytes once; each per-stripe call (encode, rebuild, decode,
systematic read) streams its stripes from them or from the planes.  A
repair runs once at the vector level (one transcript per failure, kept in
``history``) and is replayed per stripe, using only surviving nodes'
stored symbols -- the ledger counts exactly what moved.  Reports derive
retries, the cut bound and the naive baseline from the transcripts, k
and stripe counts.

A Cluster is owned by one logical task; repairs are strictly sequential.
"""

from __future__ import annotations

import random
import struct
from array import array
from collections import Counter
from itertools import chain, repeat

from .bounds import cut_bound
from .code import (
    CodeState, decode, dot, encode, find_mds_violation, init_systematic, read_systematic,
)
from .errors import BadShape, DimensionMismatch, InvariantViolation, NotBytes
from .field import GF
from .record import Frozen, Record
from .repair import default_helpers, rebuild_symbols, repair


class RepairRecord(Frozen):
    """The traffic one repair moved, counted as it was replayed.  Immutable.

    ``history[i]`` of the cluster is the repair behind ``ledger.records[i]``.
    """

    __slots__ = _fields = ("stripes", "symbols_downloaded")

    def __init__(self, stripes: int, symbols_downloaded: int):
        self._set(stripes, symbols_downloaded)


class BandwidthLedger(Record):
    """One RepairRecord per repair replayed on a cluster, in order."""

    __slots__ = _fields = ("records",)
    __hash__ = None

    def __init__(self, records=None):
        self.records = [] if records is None else records


class Cluster(Record):
    """One simulated deployment: code state, ingested bytes, node planes.

    node_store[node] is 1-based ``node``'s (u plane, v plane), two
    ``array.array`` (typecode "B" for GF(2^8), "H" for GF(2^16)) whose s-th
    entries are x_s.u and x_s.v for stripe s.  ``data`` is the ingested
    bytes, the only ground truth that invariant checks compare against;
    extraction reads only its length.  The fields are slots, and a
    cluster compares equal to another with equal fields.
    """

    __slots__ = _fields = ("state", "data", "node_store", "ledger", "history")
    __hash__ = None

    def __init__(self, state: CodeState, data: bytes, node_store, ledger=None, history=None):
        self.state = state
        self.data = data
        self.node_store = node_store
        self.ledger = BandwidthLedger() if ledger is None else ledger
        self.history = [] if history is None else history

    @property
    def stripes(self) -> list[tuple[int, ...]]:
        """The zero-padded stripes, unpacked from ``data`` on each access."""
        return list(_stripes(_symbols(self.data, self.state.k, self.state.field), self.state.k))


def _typecode(field: GF) -> str:
    return "B" if field.m == 8 else "H"


def _symbols(data: bytes, k: int, field: GF):
    """``data`` zero-padded to whole stripes: the bytes at GF(2^8), a tuple of ints at GF(2^16)."""
    padded = data + bytes(-len(data) % (2 * k * field.m // 8))  # 2k symbols per stripe
    return padded if field.m == 8 else struct.unpack(f">{len(padded) // 2}H", padded)


def _stripes(symbols, k: int):
    """The stripes of 2k symbols each, streamed from ``symbols``."""
    return zip(*[iter(symbols)] * (2 * k))


def _unpack_stripes(stripes, field: GF, length: int) -> bytes:
    syms = chain.from_iterable(stripes)
    if field.m == 8:
        return bytes(syms)[:length]
    syms = list(syms)
    return struct.pack(f">{len(syms)}H", *syms)[:length]


def ingest(data: bytes, n: int, k: int, field: GF) -> Cluster:
    """Encode raw bytes across n fresh nodes.

    ``data`` is any bytes-like object, kept as bytes, so extraction is
    exact whatever the caller later does to it; anything else (an int, a
    str, a list) raises NotBytes.  The final stripe is zero-padded.  Empty
    input yields a valid zero-stripe cluster.
    """
    state = init_systematic(n, k, field)
    if type(data) is not bytes:  # bytes are immutable, so they are kept, not copied
        try:
            view = memoryview(data)  # not bytes(data): bytes(5) is five zeros
        except TypeError:
            raise NotBytes(f"data must be bytes-like, got {type(data).__name__}") from None
        data = bytes(view)
    stripes = _stripes(_symbols(data, k, field), k)
    # one flat array of the encode outputs, then every 2n-th symbol per plane
    flat = array(_typecode(field), chain.from_iterable(map(encode, repeat(state), stripes)))
    planes = [flat[i :: 2 * n] for i in range(2 * n)]
    return Cluster(state, data, dict(enumerate(zip(planes[0::2], planes[1::2]), start=1)))


def fail_and_repair(
    cluster: Cluster,
    failed: int,
    rng: random.Random,
    *,
    helpers=None,
) -> Cluster:
    """Erase one node and rebuild it from k+1 helpers, symbol by symbol.

    The vector-level repair runs once; each stripe then replays the
    transcript's downloads against the helpers' stored symbols.  The
    history gains the transcript and the ledger the symbols counted: one
    per helper per stripe.  The cluster changes only after the whole
    replay has succeeded.
    """
    state = cluster.state
    if helpers is None:
        helpers = default_helpers(state, failed)

    new_state, transcript = repair(state, failed, helpers, rng)

    # fresh planes, from the helpers' downloads only
    typecode = _typecode(state.field)
    u_plane, v_plane = array(typecode), array(typecode)
    downloaded = 0
    helper_planes = [p for h in transcript.helpers for p in cluster.node_store[h]]
    for symbols in zip(*helper_planes):
        downloaded += len(transcript.helpers)
        sym_u, sym_v = rebuild_symbols(new_state, symbols, transcript)
        u_plane.append(sym_u)
        v_plane.append(sym_v)

    cluster.node_store[failed] = (u_plane, v_plane)
    cluster.state = new_state
    cluster.history.append(transcript)
    cluster.ledger.records.append(RepairRecord(len(u_plane), downloaded))
    return cluster


def extract(cluster: Cluster, via) -> bytes:
    """Recover the ingested bytes.

    ``via`` is either the string "systematic" (straight read of nodes
    1..2k's u symbols, zero field arithmetic) or nodes that pass
    ``CodeState.decode_nodes`` (full decode, raising as ``decode`` does).
    """
    state = cluster.state
    if isinstance(via, str):
        if via != "systematic":
            raise DimensionMismatch(f"unknown extract mode {via!r}")
        planes = [cluster.node_store[node][0] for node in range(1, state.dim + 1)]
        stripes = map(read_systematic, repeat(state), zip(*planes))
        return _unpack_stripes(stripes, state.field, len(cluster.data))
    nodes = state.decode_nodes(via)  # once: reads a generator once, rejects with no stripes
    planes = [p for node in nodes for p in cluster.node_store[node]]
    stripes = map(decode, repeat(state), repeat(nodes), zip(*planes))
    return _unpack_stripes(stripes, state.field, len(cluster.data))


def check_conservation(cluster: Cluster) -> None:
    """Stored symbols must equal recomputation from the current state.

    An independent scalar check: ``dot`` of every column with every
    stripe unpacked from the ingested bytes, against the planes, node by
    node.  The bytes are unpacked into symbols once; each plane streams
    the stripes from them afresh, so no list of stripes is built.
    """
    state = cluster.state
    gf = state.field
    symbols = _symbols(cluster.data, state.k, gf)
    count = len(symbols) // state.dim
    for node in range(1, state.n + 1):
        for name, col, plane in zip(
            "uv", state.node_columns(node), cluster.node_store[node]
        ):
            if len(plane) != count:
                raise InvariantViolation(
                    f"node {node} {name} plane holds {len(plane)} symbols, "
                    f"expected {count}"
                )
            for s, (symbol, stripe) in enumerate(zip(plane, _stripes(symbols, state.k))):
                if symbol != dot(gf, col, stripe):
                    raise InvariantViolation(
                        f"node {node} stripe {s} drifted from the code state"
                    )


class CampaignReport(Frozen):
    """Aggregated results of a fail/repair campaign.  Immutable.

    All bandwidth fields are totals over the campaign; ratio is the exact
    per-stripe download ratio of the scheme versus naive whole-stripe
    repair, (k+1)/(2k), independent of stripe count.  Every round runs all
    three checks.  bound_symbols, ratio and mean_retries are Fractions.
    """

    __slots__ = _fields = (
        "rounds", "n", "k", "stripes", "epoch", "retries", "retry_histogram",
        "downloaded_symbols", "bound_symbols", "naive_symbols", "ratio",
    )
    __hash__ = None  # retry_histogram is a dict

    def __init__(self, rounds, n, k, stripes, epoch, retries, retry_histogram,
                 downloaded_symbols, bound_symbols, naive_symbols, ratio):
        self._set(rounds, n, k, stripes, epoch, retries, retry_histogram,
                  downloaded_symbols, bound_symbols, naive_symbols, ratio)

    @property
    def mean_retries(self) -> Fraction:
        from fractions import Fraction

        if self.rounds == 0:
            return Fraction(0)
        return Fraction(self.retries, self.rounds)

    def to_text(self) -> str:
        r = self.rounds  # every round ran each check
        hist = " ".join(
            f"{draws}:{count}" for draws, count in sorted(self.retry_histogram.items())
        )
        lines = [
            f"rounds: {self.rounds}",
            f"shape: n={self.n} k={self.k} stripes={self.stripes}",
            f"epoch: {self.epoch}",
            f"retries: total={self.retries} mean={self.mean_retries}",
            f"retry_histogram: {hist if hist else '-'}",
            f"downloaded_symbols: {self.downloaded_symbols}",
            f"bound_symbols: {self.bound_symbols}",
            f"naive_symbols: {self.naive_symbols}",
            f"ratio: {self.ratio}",
            f"invariants: mds={r}/{r} systematic={r}/{r} decode={r}/{r}",
        ]
        return "\n".join(lines) + "\n"


def campaign(cluster: Cluster, rounds: int, rng: random.Random) -> CampaignReport:
    """Run ``rounds`` single-failure repairs with full checking after each.

    Each round fails a uniformly random node (repaired nodes included,
    so the same position can churn repeatedly); helpers default to the
    lowest-numbered survivors.  After every round the exhaustive MDS scan,
    the systematic read-back, and one spot decode must pass, otherwise
    InvariantViolation is raised.  A ``rounds`` that is not an int >= 0
    (a bool is not) raises BadShape.
    """
    from fractions import Fraction

    if type(rounds) is not int or rounds < 0:
        raise BadShape(f"rounds must be an int >= 0, got {rounds!r}")
    state0_u = cluster.state.u_cols
    k = cluster.state.k
    payload = _symbols(cluster.data, k, cluster.state.field)  # unpacked once for all rounds
    count, first = len(payload) // (2 * k), len(cluster.history)

    for _ in range(rounds):
        failed = rng.randrange(cluster.state.n) + 1
        fail_and_repair(cluster, failed, rng)

        state = cluster.state
        violation = find_mds_violation(state)
        if violation is not None:
            raise InvariantViolation(
                f"epoch {state.epoch}: columns {violation} lost full rank"
            )

        if state.u_cols != state0_u:
            raise InvariantViolation(f"epoch {state.epoch}: u columns changed")
        planes = [cluster.node_store[node][0] for node in range(1, state.dim + 1)]
        for s, (stripe, symbols) in enumerate(zip(_stripes(payload, k), zip(*planes))):
            if read_systematic(state, symbols) != stripe:
                raise InvariantViolation(
                    f"epoch {state.epoch}: systematic read of stripe {s} changed"
                )

        if count:
            nodes = sorted(rng.sample(range(1, state.n + 1), state.k))
            s = rng.randrange(count)
            symbols = [p[s] for node in nodes for p in cluster.node_store[node]]
            got = decode(state, nodes, symbols)
            if got != tuple(payload[2 * k * s : 2 * k * (s + 1)]):
                raise InvariantViolation(
                    f"epoch {state.epoch}: decode via {nodes} of stripe {s} wrong"
                )

    retries = [t.retries for t in cluster.history[first:]]
    records = cluster.ledger.records[first:]
    moved = sum(r.stripes for r in records)  # stripes rebuilt over the campaign
    return CampaignReport(
        rounds=rounds,
        n=cluster.state.n,
        k=k,
        stripes=len(cluster.node_store[1][0]),
        epoch=cluster.state.epoch,
        retries=sum(retries),
        retry_histogram=dict(Counter(retries)),
        downloaded_symbols=sum(r.symbols_downloaded for r in records),
        bound_symbols=cut_bound(2 * k, k, k + 1) * moved,
        naive_symbols=2 * k * moved,
        ratio=Fraction(k + 1, 2 * k),
    )
