"""A cluster driven by random sequences of repairs, reads and state-file round trips.

Rules: a repair with default or drawn helpers, a campaign round, an
extract through a drawn k-set or "systematic", a state-file round trip,
and a state file with one symbol digit flipped, which must be rejected.
After every step: the stored symbols equal recomputation from the code
state, every 2k-subset of the columns has full rank (also by the plain
oracle scan at GF(2^8)), the u columns never change, each repair moved
exactly k+1 symbols per stripe, and the payload reads back.  Shapes are
(4,2) and (5,2) over GF(2^8) and (6,3) over GF(2^16), payloads 0-200 bytes.
"""

import random
import re

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from mdsrepair.cli import dump_state_text, load_state_text
from mdsrepair.code import all_columns, find_mds_violation
from mdsrepair.errors import StateFileError
from mdsrepair.field import GF
from mdsrepair.sim import campaign, check_conservation, extract, fail_and_repair, ingest

from oracles import plain_first_singular

SHAPES = [(4, 2, GF(8)), (5, 2, GF(8)), (6, 3, GF(16))]
SYMBOL = re.compile(r'"([0-9a-f]{2}|[0-9a-f]{4})"')  # a quoted symbol of a state file


class ClusterMachine(RuleBasedStateMachine):
    @initialize(shape=st.sampled_from(SHAPES), payload=st.binary(max_size=200))
    def ingest(self, shape, payload):
        n, k, field = shape
        self.payload = payload
        self.cluster = ingest(payload, n, k, field)
        self.u_cols = self.cluster.state.u_cols

    @rule(data=st.data(), default=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def fail_and_repair(self, data, default, seed):
        n, k = self.cluster.state.n, self.cluster.state.k
        failed = data.draw(st.integers(1, n), label="failed")
        helpers = None
        if not default:
            survivors = [h for h in range(1, n + 1) if h != failed]
            helpers = data.draw(st.permutations(survivors), label="helpers")[: k + 1]
        fail_and_repair(self.cluster, failed, random.Random(seed), helpers=helpers)
        if helpers is not None:
            assert self.cluster.history[-1].helpers == tuple(helpers)

    @rule(data=st.data())
    def extract(self, data):
        n, k = self.cluster.state.n, self.cluster.state.k
        nodes = st.permutations(range(1, n + 1)).map(lambda p: p[:k])
        via = data.draw(st.one_of(st.just("systematic"), nodes), label="via")
        assert extract(self.cluster, via) == self.payload

    @rule()
    def state_file_round_trip(self):
        text = dump_state_text(self.cluster.state, self.cluster.history)
        state, history = load_state_text(text)
        assert state == self.cluster.state and history == self.cluster.history
        assert dump_state_text(state, history) == text

    @rule(data=st.data())
    def state_file_with_one_flipped_digit_is_rejected(self, data):
        text = dump_state_text(self.cluster.state, self.cluster.history)
        symbols = list(SYMBOL.finditer(text))
        match = data.draw(st.sampled_from(symbols), label="symbol")
        pos = data.draw(st.integers(match.start(1), match.end(1) - 1), label="digit")
        digit = data.draw(st.sampled_from("0123456789abcdef".replace(text[pos], "")))
        with pytest.raises(StateFileError):
            load_state_text(text[:pos] + digit + text[pos + 1 :])

    @rule(seed=st.integers(0, 2**32 - 1))
    def campaign_round(self, seed):
        report = campaign(self.cluster, 1, random.Random(seed))
        assert report.epoch == self.cluster.state.epoch

    @invariant()
    def stored_symbols_match_the_state(self):
        check_conservation(self.cluster)

    @invariant()
    def columns_stay_mds(self):
        state = self.cluster.state
        assert find_mds_violation(state) is None
        if state.field.m == 8:
            assert plain_first_singular(state.field, all_columns(state), state.dim) is None

    @invariant()
    def u_columns_never_change(self):
        assert self.cluster.state.u_cols == self.u_cols

    @invariant()
    def each_repair_moved_the_cut_bound(self):
        k = self.cluster.state.k
        records = self.cluster.ledger.records
        assert len(records) == len(self.cluster.history)
        for record in records:
            assert record.symbols_downloaded == (k + 1) * record.stripes

    @invariant()
    def payload_reads_back(self):
        assert extract(self.cluster, "systematic") == self.payload


ClusterMachine.TestCase.settings = settings(max_examples=30, stateful_step_count=10)
TestClusterMachine = ClusterMachine.TestCase
