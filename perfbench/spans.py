"""In-memory span tracer for the benchmark's traced mode.

A span is (name, start, end, parent), kept in flat arrays until the run
ends.  Timestamps come from ``time.monotonic_ns``, which on Linux reads
CLOCK_MONOTONIC and is therefore shared by the benchmark and the CLI
child processes it starts, so child spans merge into one timeline.

``install`` replaces each traced function of the mdsrepair package with a
wrapper in *every* loaded mdsrepair module that binds it (``sim`` imports
``repair`` by name, ``code`` calls ``matrix.det`` through the module, and
so on).  A binding it missed would show up as a failed ``check_counts``.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from time import monotonic_ns

# (module, attribute) -> span name.  GF methods are patched on the class.
TRACED = {
    ("matrix", "det"): "matrix.det",
    ("matrix", "solve"): "matrix.solve",
    ("code", "encode"): "code.encode",
    ("code", "decode"): "code.decode",
    ("code", "read_systematic"): "code.read_systematic",
    ("code", "find_mds_violation"): "code.find_mds_violation",
    ("repair", "repair"): "repair.repair",
    ("repair", "find_replacement_conflict"): "repair.find_replacement_conflict",
    ("repair", "solve_coefficients"): "repair.solve_coefficients",
    ("repair", "combine_replacement"): "repair.combine_replacement",
    ("repair", "rebuild_symbols"): "repair.rebuild_symbols",
    ("sim", "ingest"): "sim.ingest",
    ("sim", "fail_and_repair"): "sim.fail_and_repair",
    ("sim", "extract"): "sim.extract",
    ("sim", "campaign"): "sim.campaign",
    ("cli", "load_state_text"): "cli.load_state_text",
    ("cli", "dump_state_text"): "cli.dump_state_text",
}


def _subset(result):
    return None if result is None else list(result)


# Extra facts recorded per call, used by the exact-count self-check.
NOTES = {
    "code.find_mds_violation": lambda args, result: _subset(result),
    "repair.find_replacement_conflict": lambda args, result: _subset(result),
    "repair.repair": lambda args, result: result[1].retries + 1,
    "sim.ingest": lambda args, result: len(result.stripes),
    "sim.fail_and_repair": lambda args, result: len(args[0].stripes),
    "sim.extract": lambda args, result: [
        args[1] if isinstance(args[1], str) else "decode",
        len(args[0].stripes),
    ],
}


class Tracer:
    """Spans in parallel arrays plus plain counters, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.notes: dict[int, object] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(monotonic_ns())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = monotonic_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kw):
            sid = self.open(nid)
            try:
                result = fn(*args, **kw)
            finally:
                self.close(sid)
            if note is not None:
                self.notes[sid] = note(args, result)
            return result

        return traced

    def to_json(self) -> dict:
        """The spans and counters as plain lists and dicts, for ``merge``."""
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "notes": {str(k): v for k, v in self.notes.items()},
            "counters": self.counters,
        }

    def merge(self, doc: dict, root: int) -> None:
        """Append a child process's spans (from ``to_json``) under span ``root``."""
        base = len(self.start)
        remap = [self.name_id(n) for n in doc["names"]]
        self.name.extend(remap[i] for i in doc["name"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        self.parent.extend(root if p < 0 else p + base for p in doc["parent"])
        for k, v in doc["notes"].items():
            self.notes[int(k) + base] = v
        for k, v in doc["counters"].items():
            self.counters[k] = self.counters.get(k, 0) + v


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every mdsrepair namespace binding it."""
    importlib.import_module("mdsrepair.cli")  # loads the whole package
    wrappers = {}
    for (mod, attr), name in TRACED.items():
        fn = getattr(sys.modules[f"mdsrepair.{mod}"], attr)
        wrappers[id(fn)] = (fn, tracer.wrap(fn, name))
    mods = [m for n, m in sys.modules.items() if n.partition(".")[0] == "mdsrepair"]
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])

    gf_cls = sys.modules["mdsrepair.field"].GF
    gf_cls.__init__ = tracer.wrap(gf_cls.__init__, "field.gf_build")
    counters = tracer.counters
    counters["field.mul.calls"] = 0
    raw_mul = gf_cls.mul

    def mul(self, a, b):
        counters["field.mul.calls"] += 1
        return raw_mul(self, a, b)

    gf_cls.mul = mul


def subset_rank(subset, size: int) -> int:
    """Position of ``subset`` in ``itertools.combinations(range(size), r)``."""
    r = len(subset)
    rank = 0
    prev = -1
    for i, c in enumerate(subset):
        for skipped in range(prev + 1, c):
            rank += math.comb(size - skipped - 1, r - i - 1)
        prev = c
    return rank


def summarize(tracer: Tracer, lo: int, hi: int) -> dict[str, dict]:
    """Per span name: calls, inclusive ns and self ns, over spans lo..hi-1.  Self time is a span's duration minus the
    durations of its direct children."""
    names, name, start, end, parent = (
        tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent
    )
    child_ns = {}
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            child_ns[p] = child_ns.get(p, 0) + end[i] - start[i]
    out: dict[str, dict] = {}
    for i in range(lo, hi):
        dur = end[i] - start[i]
        row = out.setdefault(names[name[i]], {"calls": 0, "ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["ns"] += dur
        row["self_ns"] += dur - child_ns.get(i, 0)
    return out


def check_counts(tracer: Tracer, lo: int, hi: int, n: int, k: int, totals: dict) -> list[str]:
    """Exact call counts against closed form, over spans lo..hi-1.

    ``totals`` gives the expected number of spans per name, from what the
    caller did; together with the per-span rules below it proves that the
    bindings in ``sim`` and ``cli`` were wrapped, not only the definitions.

    * a full MDS scan evaluates C(2n, 2k) dets, an accepted draw's scan
      C(2n-1, 2k-1); a scan that stops at subset S evaluates rank(S)+1;
    * a repair draws as often as its transcript says, solving once per draw;
    * fail_and_repair rebuilds every stripe once; a decode extract solves
      once per stripe; a systematic extract reads every stripe once;
    * ingest encodes every stripe once.
    """
    names, name, parent, notes = tracer.names, tracer.name, tracer.parent, tracer.notes
    kids: dict[int, dict[str, int]] = {}
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            row = kids.setdefault(p, {})
            nm = names[name[i]]
            row[nm] = row.get(nm, 0) + 1
    full = math.comb(2 * n, 2 * k)
    accept = math.comb(2 * n - 1, 2 * k - 1)
    problems = []
    seen: dict[str, int] = {}
    for i in range(lo, hi):
        nm = names[name[i]]
        seen[nm] = seen.get(nm, 0) + 1
    for nm, want in totals.items():
        if seen.get(nm, 0) != want:
            problems.append(f"{seen.get(nm, 0)} {nm} spans, expected {want}")

    def expect(i, child, want):
        got = kids.get(i, {}).get(child, 0)
        if got != want:
            problems.append(f"{names[name[i]]} span {i}: {got} {child} calls, expected {want}")

    for i in range(lo, hi):
        nm = names[name[i]]
        note = notes.get(i)
        if nm == "code.find_mds_violation":
            expect(i, "matrix.det", full if note is None else subset_rank(note, 2 * n) + 1)
        elif nm == "repair.find_replacement_conflict":
            want = accept if note is None else subset_rank(note, 2 * n - 1) + 1
            expect(i, "matrix.det", want)
        elif nm == "repair.repair":
            expect(i, "repair.find_replacement_conflict", note)
            expect(i, "repair.solve_coefficients", note)
        elif nm == "sim.ingest":
            expect(i, "code.encode", note)
        elif nm == "sim.fail_and_repair":
            expect(i, "repair.repair", 1)
            expect(i, "repair.rebuild_symbols", note)
        elif nm == "sim.extract":
            kind, stripes = note
            if kind == "systematic":
                expect(i, "code.read_systematic", stripes)
            else:
                expect(i, "code.decode", stripes)
        elif nm == "code.decode" and parent[i] >= lo and names[name[parent[i]]] == "sim.extract":
            expect(i, "matrix.solve", 1)
        elif nm == "sim.campaign":
            expect(i, "sim.fail_and_repair", 1)
            expect(i, "code.find_mds_violation", 1)
    return problems
