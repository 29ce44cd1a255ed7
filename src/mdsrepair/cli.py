"""Command-line surface and the versioned code-state file format.

Commands:

    mdsrepair gen      --n N --k K --field {gf256,gf65536} --out F
    mdsrepair verify   FILE
    mdsrepair repair   FILE --failed I [--helpers 1,2,3] --seed S
    mdsrepair simulate --n N --k K --field ... --rounds R --seed S
                       [--input BYTES_FILE] [--report OUT]
    mdsrepair bound    --k K [--B SYMBOLS --d HELPERS] [--n N]

Every command is deterministic given its inputs (and its seed, where it
draws); re-running produces byte-identical files and reports.

Exit codes: 0 success, 1 invariant or verification failure (including a
repair that exhausts its retries), 2 usage error (bad flags, bad shapes,
fields too small, bad node ids).

State files are JSON with a fixed key order and lowercase fixed-width hex
symbols, so serialize(deserialize(f)) == f byte-for-byte; ``_state_doc``
is the one definition of the format.  Loading, for every command, reads
only the replay's inputs (field width, n, k, and each repair's failed
node, helpers, draw and retry count), replays them from the systematic
init through the same step ``repair`` takes, and requires the file to
equal the canonical document of the result key for key; the replayed
columns must then pass the exhaustive full-rank scan over all 2k-subsets.
Files are replaced atomically, so a crash leaves either the old file or
the new one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from pathlib import Path

from .bounds import check_shape, cut_bound, degree_bound, degree_bound_reaches
from .code import (
    CodeState,
    column_label,
    find_mds_violation,
    init_systematic,
)
from .errors import (
    BadHelpers,
    BadShape,
    FieldTooSmall,
    MdsRepairError,
    StateFileError,
)
from .field import GF
from .repair import default_helpers, repair, repair_step
from .sim import campaign, ingest

FORMAT_VERSION = "1"

FIELDS = {"gf256": 8, "gf65536": 16}  # name -> field width m
NAMES = {m: name for name, m in FIELDS.items()}

USAGE_ERRORS = (BadShape, FieldTooSmall, BadHelpers)

D0_DIGITS = 4300  # Python's default limit on int-to-str conversion


# ---------------------------------------------------------------------------
# state file format


def _hex(field: GF, value: int) -> str:
    return f"{value:0{field.m // 4}x}"


def _col_hex(field: GF, col) -> list[str]:
    return [_hex(field, v) for v in col]


def _state_doc(state: CodeState, history) -> dict:
    """The state file as a JSON document: the one definition of the format."""
    f = state.field
    return {
        "version": FORMAT_VERSION,
        "field": {"m": f.m, "reduction_poly": f"0x{f.poly:x}"},
        "n": state.n,
        "k": state.k,
        "epoch": state.epoch,
        "u": [_col_hex(f, col) for col in state.u_cols],
        "v": [_col_hex(f, col) for col in state.v_cols],
        "history": [
            {
                "failed": t.failed,
                "helpers": list(t.helpers),
                "xi": {
                    "alpha1": _hex(f, t.alpha[0]),
                    "beta1": _hex(f, t.beta[0]),
                    "rho": [_hex(f, r) for r in t.rho],
                },
                "alpha": [_hex(f, a) for a in t.alpha],
                "beta": [_hex(f, b) for b in t.beta],
                "v_prime": _col_hex(f, t.v_new),
                "retries": t.retries,
                "epoch_before": t.epoch_before,
                "epoch_after": t.epoch_after,
            }
            for t in history
        ],
    }


def dump_state_text(state: CodeState, history) -> str:
    """Canonical serialization: fixed key order, lowercase hex, 2-space indent."""
    return json.dumps(_state_doc(state, history), indent=2) + "\n"


def _same(a, b) -> bool:
    """JSON equality: unlike ==, it tells 1.0 and true from 1."""
    try:
        return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    except RecursionError:  # loaded just under the limit; canonical values nest 4 deep
        return False


def _mismatch(doc: dict, want: dict) -> str | None:
    """Where a parsed file first differs from the canonical dump of its replay."""
    if doc.keys() != want.keys():
        return f"keys {sorted(doc.keys() ^ want.keys())} are extra or missing"
    for key, value in want.items():
        got = doc[key]
        if _same(got, value):
            continue
        if key == "epoch":
            return f"epoch {got} does not match history length {len(want['history'])}"
        if isinstance(value, list) and isinstance(got, list) and len(got) == len(value):
            i = next(i for i, item in enumerate(value) if not _same(got[i], item))
            if key == "history":
                return f"history[{i}] does not match the draw it records"
            return f"{key}{i + 1} does not match the replayed history"
        if key == "field":
            return f"field {json.dumps(got)} is not {json.dumps(value)}"
        return f"{key} does not match the replayed history"
    return None


def load_state_text(text: str):
    """Replay a state file and prove it; returns (state, history).

    Only the replay's inputs are read: the version, the field width, n, k
    and each history entry's failed node, helpers, draw and retry count.
    The history is replayed from ``init_systematic(n, k, GF(m))``, each
    entry through ``repair_step``, the step ``repair`` takes for the draw
    it accepts.  The file must then equal the canonical dump of the replay
    key for key: columns, coefficients, replacement columns and epochs are
    all derived data.  The replayed columns must pass the exhaustive full-rank scan.
    Retry counts are not checked: the rejected draws are not recorded.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, digit limit, deep nesting
        raise StateFileError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise StateFileError("top-level value must be an object")
    if doc.get("version") != FORMAT_VERSION:
        raise StateFileError(f"unsupported format version {doc.get('version')!r}")
    try:
        field = GF(int(doc["field"]["m"]))
        state = init_systematic(int(doc["n"]), int(doc["k"]), field)
    except MdsRepairError as e:  # before ValueError, which most of them also are
        raise StateFileError(str(e)) from None
    except (KeyError, TypeError, ValueError, OverflowError):
        raise StateFileError("field.m, n and k must be integers") from None

    history = []
    raw_history = doc.get("history", [])  # if missing, the comparison names it
    if not isinstance(raw_history, list):
        raise StateFileError("history must be a list")
    for idx, raw in enumerate(raw_history):
        try:
            xi = raw["xi"]
            failed, retries = int(raw["failed"]), int(raw["retries"])
            helpers = tuple(int(h) for h in raw["helpers"])
            # repair_step holds the draw to GF.is_symbol, as it does any caller's
            a1, b1 = int(xi["alpha1"], 16), int(xi["beta1"], 16)
            draw = a1, b1, tuple(int(r, 16) for r in xi["rho"])
            state, transcript = repair_step(state, failed, helpers, draw, retries)
        except (KeyError, TypeError, ValueError, OverflowError, MdsRepairError) as e:
            raise StateFileError(
                f"history[{idx}] does not replay: {type(e).__name__}: {e}"
            ) from None
        history.append(transcript)

    problem = _mismatch(doc, _state_doc(state, history))
    if problem is not None:
        raise StateFileError(problem)
    violation = find_mds_violation(state)
    if violation is not None:
        labels = ", ".join(column_label(state, p) for p in violation)
        raise StateFileError(f"stored columns are not MDS: [{labels}] rank-deficient")
    return state, history


def _load_file(path: str):
    try:
        return load_state_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise StateFileError(f"{path} is not UTF-8 text: {e}") from None


def _write_state(path: str, state: CodeState, history) -> None:
    """Replace ``path`` atomically: temp file, fsync, then rename over it."""
    text = dump_state_text(state, history)
    target = Path(path).resolve()
    tmp = target.with_name(f".{target.name}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# commands


def _cmd_gen(args) -> int:
    state = init_systematic(args.n, args.k, GF(FIELDS[args.field]))
    _write_state(args.out, state, [])
    print(f"wrote n={args.n} k={args.k} field={args.field} epoch=0 -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    try:
        state, history = _load_file(args.path)
    except StateFileError as e:
        print(f"FAIL: {e}")
        return 1
    total = math.comb(2 * state.n, 2 * state.k)
    print(
        f"n={state.n} k={state.k} field={NAMES[state.field.m]} "
        f"epoch={state.epoch} history={len(history)}"
    )
    print("systematic columns: ok")
    print(f"mds: {total}/{total} subsets full rank")
    return 0


def _parse_helpers(text):
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise BadHelpers(f"--helpers must be comma-separated ints, got {text!r}") from None


def _cmd_repair(args) -> int:
    state, history = _load_file(args.path)
    helpers = _parse_helpers(args.helpers)
    if helpers is None:
        helpers = default_helpers(state, args.failed)
    rng = random.Random(args.seed)
    new_state, transcript = repair(state, args.failed, helpers, rng)
    history.append(transcript)
    _write_state(args.path, new_state, history)
    bound = cut_bound(2 * state.k, state.k, state.k + 1)
    print(
        f"repaired node {transcript.failed} from helpers "
        f"{','.join(map(str, transcript.helpers))}: retries={transcript.retries}"
    )
    print(f"downloads {len(transcript.helpers)} symbols; bound {bound}")
    print(f"epoch: {new_state.epoch}")
    return 0


def _cmd_simulate(args) -> int:
    field = GF(FIELDS[args.field])
    rng = random.Random(args.seed)
    if args.input is not None:
        data = Path(args.input).read_bytes()
    else:
        data = rng.randbytes(64)
    cluster = ingest(data, args.n, args.k, field)
    report = campaign(cluster, args.rounds, rng)
    text = (
        f"simulate: n={args.n} k={args.k} field={args.field} "
        f"seed={args.seed} input_bytes={len(data)}\n" + report.to_text()
    )
    print(text, end="")
    if args.report is not None:
        Path(args.report).write_text(text)
    return 0


def _printable_d0(n: int, k: int) -> int:
    """degree_bound(n, k), or BadShape when it has over D0_DIGITS digits."""
    check_shape(n, k)
    if degree_bound_reaches(n, k, 10**D0_DIGITS):
        raise BadShape(
            f"d0 = 2*C(2n-1, 2k-1) for n={n}, k={k} has more than {D0_DIGITS} digits"
        )
    return degree_bound(n, k)


def _cmd_bound(args) -> int:
    if args.B is None and args.n is None:
        raise BadShape("bound needs --B with --d, or --n, or both")
    if (args.B is None) != (args.d is None):
        raise BadShape("--B and --d must be given together")
    lines = []
    if args.B is not None:
        lines.append(str(cut_bound(args.B, args.k, args.d)))
    if args.n is not None:
        lines.append(f"d0 = {_printable_d0(args.n, args.k)}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsrepair",
        description="systematic MDS codes with minimum single-node repair bandwidth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a fresh systematic code state")
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--k", type=int, required=True, help="data pieces (2k <= n)")
    p.add_argument("--field", choices=sorted(FIELDS), default="gf65536")
    p.add_argument("--out", required=True, help="output state file")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="re-check all invariants of a state file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("repair", help="repair one node, updating the file in place")
    p.add_argument("path")
    p.add_argument("--failed", type=int, required=True, help="node to fail (1-based)")
    p.add_argument("--helpers", help="comma-separated helper ids (default: lowest k+1)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("simulate", help="run a seeded fail/repair campaign")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--field", choices=sorted(FIELDS), default="gf65536")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", help="file of bytes to ingest (default: 64 seeded bytes)")
    p.add_argument("--report", help="also write the report to this path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="print repair-bandwidth bounds")
    p.add_argument("--B", type=int, help="file size in symbols")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, help="helper count")
    p.add_argument("--n", type=int, help="also print the field-size threshold d0")
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MdsRepairError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
