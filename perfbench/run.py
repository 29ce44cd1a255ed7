"""Benchmark of the mdsrepair checkout: data path, repair churn, CLI state file.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs the same pass, at its own code shape and sizes:

  data   ingest a seeded payload (twice; the second cluster goes on),
         fail_and_repair node 1 and node n, extract via the last k
         nodes, extract("systematic") three times;
  rounds ingest a seeded 48-byte payload, then campaign(cluster, 1, rng)
         rounds on one shared rng (the campaign's own audit stays on);
  cli    mdsrepair gen, then repair --failed f --seed s a few times, then
         verify, one fresh interpreter per command, strictly one at a time.

Passes repeat while the next one, as long as the longest so far, still
ends within --seconds (at least two passes).  Pass p draws
its inputs from (seed, p), so a run is deterministic given its seed; each
pass prints what must repeat run to run (draws, column digests, campaign
report digest, state-file digest).  Every output is checked, and each
failed check or operation counts in ``failed``.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
an untraced pass 1 runs first as the reference, then traced passes (the
first must reproduce the reference exactly) give the per-layer metrics.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import monotonic_ns, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    n: int
    k: int
    m: int
    data_bytes: int  # payload of the data phase
    data_reps: int  # data-phase repetitions per pass
    rounds: int  # campaign rounds per pass
    cli_repairs: int  # CLI repair commands per pass


# Each workload puts most of a pass into one phase; see BENCHMARK.json.
WORKLOADS = {
    "bulk_4_2_gf8": Workload(4, 2, 8, 256 * 1024, 1, 50, 3),
    "churn_6_3_gf16": Workload(6, 3, 16, 4096, 2, 50, 2),
    "statefile_8_4_gf16": Workload(8, 4, 16, 4096, 3, 4, 3),
}
ROUND_PAYLOAD = 48
INGEST_REPS = 2  # ingest is the slowest data-phase step, so it gets more samples
SYSREAD_REPS = 3  # reads leave the cluster as it is, so they repeat cheaply
VERIFY_REPS = 3  # verify is read-only, so one pass times it several times
SETUP_REPS = 2  # per pass, so the samples spread over the run
MIN_PASSES = 2
CHILD_TIMEOUT = 120

CLI_MAIN = "import sys; from mdsrepair.cli import main; sys.exit(main())"
SETUP_CODE = """\
import sys, time
t = time.perf_counter()
import mdsrepair
from mdsrepair.code import init_systematic
from mdsrepair.field import GF
n, k, m = map(int, sys.argv[1:])
init_systematic(n, k, GF(m))
print(time.perf_counter() - t)
"""


class StepFailed(Exception):
    """An operation failed; the rest of its phase is skipped."""


class NoSamples(Exception):
    """A metric's operation failed every time it was tried."""


class Run:
    """Samples, checks and per-pass fingerprints of one benchmark run."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        from mdsrepair import field, sim

        self.w, self.seed, self.workdir, self.sim = w, seed, workdir, sim
        self.gf = field.GF(w.m)
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.per_stripe: set[int] = set()
        self.state_bytes = 0
        self.tracer = None
        self.startups: list[int] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.data = random.Random(f"{seed}:data").randbytes(w.data_bytes)
        self.round_data = random.Random(f"{seed}:rounds").randbytes(ROUND_PAYLOAD)

    # -- bookkeeping ---------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def op(self, key: str, fn, *args, collect: bool = False):
        """Time one call into the program; a raise is a failed operation.

        With ``collect`` a full collection runs first, untimed, so that
        every sample starts from the same collector state: otherwise a
        collection over a large cluster falls into some samples only."""
        self.attempted += 1
        if collect:
            gc.collect()
        t = perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # any failure is counted, the run goes on
            self.fail(f"{key}: {e!r}")
            raise StepFailed from e
        self.samples.setdefault(key, []).append(perf_counter() - t)
        return result

    def check_cluster(self, cluster, where: str) -> None:
        """Untimed: stored symbols match the state; k+1 symbols per stripe moved."""
        sim, k = self.sim, self.w.k
        try:
            sim.check_conservation(cluster)
            ok = True
        except Exception as e:  # a broken invariant is a wrong output
            ok = False
            where = f"{where}: {e!r}"
        self.check(ok, f"{where}: conservation")
        for r in cluster.ledger.records:
            self.check(r.symbols_downloaded == (k + 1) * r.stripes, f"{where}: ledger {r}")
            if r.stripes:
                self.per_stripe.add(r.symbols_downloaded // r.stripes)

    # -- phases ---------------------------------------------------------

    def data_phase(self, p: int):
        sim, w = self.sim, self.w
        prints = []
        for rep in range(w.data_reps):
            for _ in range(INGEST_REPS):
                cluster = None  # free the last cluster before the next is built
                cluster = self.op("ingest", sim.ingest, self.data, w.n, w.k, self.gf,
                                  collect=True)
            rng = random.Random(f"{self.seed}:{p}:data:{rep}")
            for node in (1, w.n):
                self.op("repair", sim.fail_and_repair, cluster, node, rng, collect=True)
            out = self.op("decode", sim.extract, cluster, range(w.n - w.k + 1, w.n + 1),
                          collect=True)
            self.check(out == self.data, "data: decode extract differs from payload")
            for _ in range(SYSREAD_REPS):
                out = self.op("sysread", sim.extract, cluster, "systematic", collect=True)
                self.check(out == self.data, "data: systematic extract differs from payload")
            self.check_cluster(cluster, "data")
            prints.append(fingerprint(cluster))
            del cluster, out
        return prints

    def rounds_phase(self, p: int):
        sim, w = self.sim, self.w
        cluster = sim.ingest(self.round_data, w.n, w.k, self.gf)
        rng = random.Random(f"{self.seed}:{p}:rounds")
        reports = hashlib.sha256()
        for _ in range(w.rounds):
            report = self.op("round", sim.campaign, cluster, 1, rng)
            reports.update(report.to_text().encode())
        self.check(
            sim.extract(cluster, range(1, w.k + 1)) == self.round_data,
            "rounds: decode extract differs from payload",
        )
        self.check(
            sim.extract(cluster, "systematic") == self.round_data,
            "rounds: systematic extract differs from payload",
        )
        self.check_cluster(cluster, "rounds")
        return fingerprint(cluster) + (reports.hexdigest()[:16],)

    def cli_phase(self, p: int):
        w = self.w
        path = str(self.workdir / "state.json")
        field = {8: "gf256", 16: "gf65536"}[w.m]
        self.cli("gen", "gen", "--n", str(w.n), "--k", str(w.k), "--field", field, "--out", path)
        rng = random.Random(f"{self.seed}:{p}:cli")
        for _ in range(w.cli_repairs):
            failed, seed = rng.randrange(w.n) + 1, rng.randrange(1 << 30)
            self.cli("cli_repair", "repair", path, "--failed", str(failed), "--seed", str(seed))
        total = math.comb(2 * w.n, 2 * w.k)
        for _ in range(VERIFY_REPS):
            out = self.cli("cli_verify", "verify", path)
            self.check(
                f"mds: {total}/{total} subsets full rank" in out.splitlines()
                and f" epoch={w.cli_repairs} history={w.cli_repairs}" in out,
                f"cli: verify printed {out!r}",
            )
        text = Path(path).read_bytes()
        self.state_bytes = len(text)
        return (hashlib.sha256(text).hexdigest()[:16], len(text))

    def cli(self, key: str, *args: str) -> str:
        """Run one CLI command in a fresh interpreter; time it from outside."""
        spans_path = self.workdir / "spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_MAIN, *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path)]
            cmd += [str(monotonic_ns()), *args]
        sid = None if self.tracer is None else self.tracer.open(self.tracer.name_id("cli.process"))
        try:
            proc = self.op(key, self.spawn, cmd)
        finally:
            if sid is not None:
                self.tracer.close(sid)
        if self.tracer is not None and spans_path.exists():
            doc = json.loads(spans_path.read_text())
            spans_path.unlink()
            self.startups.append(doc["startup_ns"])
            self.tracer.merge(doc, sid)
        self.check(proc.returncode == 0, f"cli {args[0]} exited {proc.returncode}: {proc.stderr[-300:]}")
        if proc.returncode != 0:
            raise StepFailed
        return proc.stdout

    def spawn(self, cmd):
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT)

    def setup(self) -> None:
        """Time one fresh-interpreter set-up: import, GF build, initial state."""
        w = self.w
        out = self.op("setup_process", self.spawn,
                      [sys.executable, "-c", SETUP_CODE, str(w.n), str(w.k), str(w.m)])
        self.check(out.returncode == 0, f"set-up exited {out.returncode}: {out.stderr[-300:]}")
        if out.returncode == 0:
            self.samples.setdefault("setup", []).append(float(out.stdout))

    def one_pass(self, p: int) -> tuple:
        """Pass ``p``: the three phases on inputs drawn from (seed, p).

        Returns per phase what must repeat for a given seed: total draws
        and the final columns' digest per cluster, the campaign reports'
        digest, the final state file's digest and size."""
        prints = []
        for phase in (self.data_phase, self.rounds_phase, self.cli_phase):
            gc.collect()
            try:
                prints.append(phase(p))
            except StepFailed:
                prints.append(None)
        return tuple(prints)


def fingerprint(cluster) -> tuple:
    """Total draws and a digest of the final CodeState columns."""
    state = cluster.state
    draws = sum(t.retries + 1 for t in cluster.history)
    cols = hashlib.sha256(repr((state.u_cols, state.v_cols, state.epoch)).encode())
    return (draws, cols.hexdigest()[:16])


def peak_rss_mib() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def end_to_end(run: Run) -> dict[str, float]:
    mb = run.w.data_bytes / 1e6

    def med(key):
        if not run.samples.get(key):
            raise NoSamples(key)
        return statistics.median(run.samples[key])

    return {
        "setup_s": med("setup"),
        "peak_rss_MiB": peak_rss_mib(),
        "ingest_MBps": mb / med("ingest"),
        "repair_MBps": mb / med("repair"),
        "decode_MBps": mb / med("decode"),
        "sysread_MBps": mb / med("sysread"),
        "round_ms_p50": med("round") * 1e3,
        "cli_repair_ms_p50": med("cli_repair") * 1e3,
        "cli_verify_ms": med("cli_verify") * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mdsrepair" / "__init__.py").is_file():
        print(f"error: no mdsrepair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mdsrepair

    if Path(mdsrepair.__file__).resolve().parent != SRC / "mdsrepair":
        print(f"error: imported {mdsrepair.__file__}, not the checkout", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env commit={git_commit()} python={sys.version.split()[0]} "
          f"nproc={len(os.sched_getaffinity(0))} src={SRC.relative_to(ROOT)}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(WORKLOADS[args.workload], args.seed, workdir)
        try:
            metrics = traced(run, args.seconds) if args.trace else untraced(run, args.seconds)
        except NoSamples as e:
            run.fail(f"no sample of {e}")
            metrics = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(run, metrics, args.trace)


def repeat(deadline: float, one) -> None:
    """Call one(p) for p = 1, 2, ... at least MIN_PASSES times, and then
    while a pass as long as the longest so far still ends by ``deadline``
    (a ``perf_counter()`` time), so a run keeps to its --seconds."""
    p, longest = 0, 0.0
    while p < MIN_PASSES or perf_counter() + longest <= deadline:
        p += 1
        t = perf_counter()
        one(p)
        longest = max(longest, perf_counter() - t)


def untraced(run: Run, seconds: float) -> dict[str, float]:
    def one(p):
        try:
            for _ in range(SETUP_REPS):
                run.setup()
        except StepFailed:
            pass
        t = perf_counter()
        prints = run.one_pass(p)
        print(f"pass {p}: {perf_counter() - t:.3f} s  {prints}")

    repeat(perf_counter() + seconds, one)
    rounds = run.samples.get("round", [])
    if len(rounds) >= 2:
        p95 = statistics.quantiles(rounds, n=20)[18] * 1e3
        print(f"info round_ms_p95 = {p95:.6g} ms over {len(rounds)} rounds (not gated: "
              f"a p95 needs 200 samples, which the (8,4) rounds cannot afford)")
    return end_to_end(run)


def traced(run: Run, seconds: float) -> dict[str, float]:
    """Per-layer metrics from traced passes.  Untraced pass 0 warms the
    interpreter up; untraced pass 1 is the reference that traced pass 1
    repeats exactly (same inputs, same outputs)."""
    import spans

    deadline = perf_counter() + seconds
    run.one_pass(0)
    t = perf_counter()
    reference = run.one_pass(1)
    reference_s = perf_counter() - t
    print(f"reference pass 1 (untraced): {reference_s:.3f} s  {reference}")

    tracemalloc.start()
    run.sim.ingest(run.data, run.w.n, run.w.k, run.gf)
    alloc_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tracer = run.tracer = spans.Tracer()
    spans.install(tracer)
    passes = []  # (first span, end span, seconds, field.mul calls)

    def one(p):
        lo, mul0, t = len(tracer.start), tracer.counters["field.mul.calls"], perf_counter()
        prints = run.one_pass(p)
        passes.append((lo, len(tracer.start), perf_counter() - t,
                       tracer.counters["field.mul.calls"] - mul0))
        print(f"traced pass {p}: {passes[-1][2]:.3f} s, {passes[-1][1] - lo} spans  {prints}")
        if p == 1:
            run.check(prints == reference, "traced pass 1 differs from the untraced one")

    repeat(deadline, one)

    w = run.w
    commands = 1 + w.cli_repairs + VERIFY_REPS
    totals = {  # spans per pass, from what one_pass calls
        "sim.ingest": INGEST_REPS * w.data_reps + 1,
        "sim.fail_and_repair": 2 * w.data_reps + w.rounds,
        "sim.extract": (1 + SYSREAD_REPS) * w.data_reps + 2,
        "sim.campaign": w.rounds,
        "repair.repair": 2 * w.data_reps + w.rounds + w.cli_repairs,
        "code.find_mds_violation": w.rounds + w.cli_repairs + VERIFY_REPS,
        "cli.main": commands,
        "field.gf_build": commands,
        "cli.load_state_text": commands - 1,
        "cli.dump_state_text": 1 + w.cli_repairs,
    }
    rows, builds = [], []
    for lo, hi, _, muls in passes:
        problems = spans.check_counts(tracer, lo, hi, w.n, w.k, totals)
        run.check(not problems, f"self-check: {len(problems)} miscounts, {problems[:3]}")
        row = spans.summarize(tracer, lo, hi)
        row["draws"] = sum(tracer.notes[i] for i in range(lo, hi)
                           if tracer.names[tracer.name[i]] == "repair.repair")
        row["muls"] = muls
        builds += [tracer.end[i] - tracer.start[i] for i in range(lo, hi)
                   if tracer.names[tracer.name[i]] == "field.gf_build"]
        rows.append(row)
        print("calls " + " ".join(f"{k}={v['calls']}" for k, v in sorted(row.items())
                                  if isinstance(v, dict)))

    if any("repair.repair" not in row for row in rows):
        raise NoSamples("repair.repair")
    if not builds or not run.startups or not run.per_stripe:
        raise NoSamples("GF build, cli start-up or repair ledger")
    med = statistics.median

    def per_pass(fn):
        return med(fn(r) for r in rows)

    def total(name, key="ns"):
        scale = 1 if key == "calls" else 1e9
        return per_pass(lambda r: r.get(name, {}).get(key, 0)) / scale

    out = {
        "field.gf_build_s": med(builds) / 1e9,
        "field.mul.calls": per_pass(lambda r: r["muls"]),
    }
    for name in ("matrix.det", "matrix.solve", "code.encode", "code.decode",
                 "code.find_mds_violation", "repair.find_replacement_conflict",
                 "repair.rebuild_symbols"):
        out[f"{name}.calls"] = total(name, "calls")
        out[f"{name}.s"] = total(name)
    for name in ("code.read_systematic", "repair.repair", "repair.solve_coefficients",
                 "repair.combine_replacement", "cli.load_state_text", "cli.dump_state_text"):
        out[f"{name}.s"] = total(name)
    out["repair.draws"] = per_pass(lambda r: r["draws"])
    out["repair.accept_ratio"] = per_pass(lambda r: r["repair.repair"]["calls"] / r["draws"])
    for name in ("sim.ingest", "sim.fail_and_repair", "sim.extract", "sim.campaign"):
        out[f"{name}.self_s"] = total(name, "self_ns")
    out["sim.ingest.alloc_peak_MiB"] = alloc_peak / 2**20
    out["sim.symbols_per_stripe_per_repair"] = max(run.per_stripe)
    run.check(run.per_stripe == {run.w.k + 1}, f"symbols per stripe {run.per_stripe}")
    out["cli.startup_s"] = med(run.startups) / 1e9
    out["cli.state_file_bytes"] = run.state_bytes
    out["trace.overhead_s"] = passes[0][2] - reference_s
    return out


def report(run: Run, metrics: dict[str, float] | None, trace: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for err in run.errors:
        print(f"error {err}")
    if metrics is None:
        print("error: an operation failed every time, so a metric has no sample")
        return 1
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    counts = " ".join(f"{k}={len(v)}" for k, v in sorted(run.samples.items()))
    print(f"samples {counts}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(f"metric error_rate = {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} failed of {run.attempted} attempted)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
