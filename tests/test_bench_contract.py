"""What the benchmark's traced mode reads of a ``Cluster``, pinned in tier-1.

``perfbench/spans.py`` notes each traced ``sim`` call with the stripe
count it covered, read as ``len(cluster.stripes)``, and ``perfbench/run.py``
reads ``ledger.records[i].stripes`` and ``history[i].retries``.  The module
is imported as it stands, so a change to ``Cluster`` that breaks those
reads fails here rather than only in a benchmark run.
"""

import importlib.util
import random
from pathlib import Path

from mdsrepair.field import GF
from mdsrepair.sim import extract, fail_and_repair, ingest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_notes_give_the_plane_length():
    notes = load_spans().NOTES
    for n, k, field, size in [(4, 2, GF(8), 45), (6, 3, GF(16), 90)]:
        data = random.Random(size).randbytes(size)
        cluster = ingest(data, n, k, field)
        stripes = len(cluster.node_store[1][0])
        assert stripes > 1
        assert notes["sim.ingest"]((data, n, k, field), cluster) == stripes

        args = (cluster, n, random.Random(3))
        assert notes["sim.fail_and_repair"](args, fail_and_repair(*args)) == stripes

        args = (cluster, "systematic")
        assert notes["sim.extract"](args, extract(*args)) == ["systematic", stripes]
        args = (cluster, range(1, k + 1))
        assert notes["sim.extract"](args, extract(*args)) == ["decode", stripes]

        assert cluster.ledger.records[0].stripes == stripes
        assert cluster.history[0].retries >= 0
