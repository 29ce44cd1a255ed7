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
symbols, so serialize(deserialize(f)) == f byte-for-byte.  Loading always
re-validates, for every command: the history is replayed from the
systematic init and must reproduce the stored columns, which must pass
the exhaustive full-rank scan over all 2k-subsets.  Files are replaced
atomically, so a crash leaves either the old file or the new one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from pathlib import Path

from .bounds import cut_bound, degree_bound
from .code import (
    CodeState,
    all_columns,
    column_label,
    find_mds_violation,
    init_systematic,
)
from .errors import (
    BadHelpers,
    BadPolynomial,
    BadShape,
    FieldTooSmall,
    MdsRepairError,
    StateFileError,
)
from .field import GF
from .repair import (
    RepairDraw,
    RepairTranscript,
    combine_replacement,
    default_helpers,
    repair,
    solve_coefficients,
)
from .sim import campaign, ingest

FORMAT_VERSION = "1"

FIELDS = {
    "gf256": (8, 0x11D),
    "gf65536": (16, 0x1100B),
}

USAGE_ERRORS = (BadShape, FieldTooSmall, BadHelpers, BadPolynomial)


def field_name(field: GF) -> str:
    for name, (m, poly) in FIELDS.items():
        if (field.m, field.poly) == (m, poly):
            return name
    return f"gf2^{field.m}(0x{field.poly:x})"


# ---------------------------------------------------------------------------
# state file format


def _hex(field: GF, value: int) -> str:
    return f"{value:0{field.m // 4}x}"


def _col_hex(field: GF, col) -> list[str]:
    return [_hex(field, v) for v in col]


def dump_state_text(state: CodeState, history) -> str:
    """Canonical serialization: fixed key order, lowercase hex, 2-space indent."""
    f = state.field
    doc = {
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
                    "alpha1": _hex(f, t.draw.alpha1),
                    "beta1": _hex(f, t.draw.beta1),
                    "rho": [_hex(f, r) for r in t.draw.rho],
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
    return json.dumps(doc, indent=2) + "\n"


def _parse_sym(field: GF, text: str, what: str) -> int:
    try:
        value = int(text, 16)
    except (TypeError, ValueError):
        raise StateFileError(f"bad hex symbol in {what}: {text!r}") from None
    if not 0 <= value < field.order:
        raise StateFileError(f"symbol 0x{value:x} in {what} outside the field")
    return value


def _parse_col(field: GF, raw, dim: int, what: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or len(raw) != dim:
        raise StateFileError(f"{what} must be a list of {dim} symbols")
    return tuple(_parse_sym(field, s, what) for s in raw)


def load_state_text(text: str):
    """Parse a state file and prove it; returns (state, history).

    The history is replayed from ``init_systematic(n, k, field)``: each
    transcript must name valid helpers, chain its epochs, and carry
    exactly the coefficients and column its draw implies.  The replayed
    columns must equal the stored ones, and the stored columns must pass
    the exhaustive full-rank scan.  Retry counts are not checked: the
    rejected draws are not recorded.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StateFileError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise StateFileError("top-level value must be an object")
    if doc.get("version") != FORMAT_VERSION:
        raise StateFileError(f"unsupported format version {doc.get('version')!r}")

    fdoc = doc.get("field", {})
    try:
        m = int(fdoc["m"])
        poly = int(fdoc["reduction_poly"], 16)
    except (KeyError, TypeError, ValueError):
        raise StateFileError("field section must carry m and reduction_poly") from None
    try:
        field = GF(m, poly)
    except BadPolynomial as e:
        raise StateFileError(str(e)) from None

    try:
        n = int(doc["n"])
        k = int(doc["k"])
        epoch = int(doc["epoch"])
    except (KeyError, TypeError, ValueError):
        raise StateFileError("n, k and epoch must be integers") from None
    try:
        replay = init_systematic(n, k, field)
    except MdsRepairError as e:
        raise StateFileError(str(e)) from None
    dim = 2 * k

    u_raw, v_raw = doc.get("u"), doc.get("v")
    if not isinstance(u_raw, list) or len(u_raw) != n:
        raise StateFileError(f"u must hold {n} columns")
    if not isinstance(v_raw, list) or len(v_raw) != n:
        raise StateFileError(f"v must hold {n} columns")
    u_cols = tuple(_parse_col(field, c, dim, f"u[{i}]") for i, c in enumerate(u_raw))
    v_cols = tuple(_parse_col(field, c, dim, f"v[{i}]") for i, c in enumerate(v_raw))
    state = CodeState(n=n, k=k, field=field, u_cols=u_cols, v_cols=v_cols, epoch=epoch)

    history = []
    raw_history = doc.get("history", [])
    if not isinstance(raw_history, list):
        raise StateFileError("history must be a list")
    for idx, raw in enumerate(raw_history):
        what = f"history[{idx}]"
        try:
            t = RepairTranscript(
                failed=int(raw["failed"]),
                helpers=tuple(int(h) for h in raw["helpers"]),
                draw=RepairDraw(
                    alpha1=_parse_sym(field, raw["xi"]["alpha1"], what),
                    beta1=_parse_sym(field, raw["xi"]["beta1"], what),
                    rho=tuple(_parse_sym(field, r, what) for r in raw["xi"]["rho"]),
                ),
                alpha=tuple(_parse_sym(field, a, what) for a in raw["alpha"]),
                beta=tuple(_parse_sym(field, b, what) for b in raw["beta"]),
                v_new=_parse_col(field, raw["v_prime"], dim, what),
                retries=int(raw["retries"]),
                epoch_before=int(raw["epoch_before"]),
                epoch_after=int(raw["epoch_after"]),
            )
        except (KeyError, TypeError, ValueError):
            raise StateFileError(f"{what} is malformed") from None
        if (t.epoch_before, t.epoch_after) != (idx, idx + 1):
            raise StateFileError(
                f"{what} runs from epoch {t.epoch_before} to {t.epoch_after}, "
                f"not {idx} to {idx + 1}"
            )
        try:
            alpha, beta = solve_coefficients(
                replay, t.failed, t.helpers, t.draw.alpha1, t.draw.beta1
            )
            v_new = combine_replacement(replay, t.helpers, alpha, beta, t.draw.rho)
        except MdsRepairError as e:
            raise StateFileError(f"{what} does not replay: {e}") from None
        if (t.alpha, t.beta) != (alpha, beta) or t.v_new != v_new:
            raise StateFileError(f"{what} does not match the draw it records")
        replay = replay.repaired(t.failed, v_new)
        history.append(t)
    if epoch != len(history):
        raise StateFileError(
            f"epoch {epoch} does not match history length {len(history)}"
        )
    for pos, (got, want) in enumerate(zip(all_columns(state), all_columns(replay))):
        if got != want:
            raise StateFileError(
                f"{column_label(state, pos)} does not match the replayed history"
            )
    violation = find_mds_violation(state)
    if violation is not None:
        labels = ", ".join(column_label(state, p) for p in violation)
        raise StateFileError(f"stored columns are not MDS: [{labels}] rank-deficient")
    return state, history


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
    m, poly = FIELDS[args.field]
    field = GF(m, poly)
    state = init_systematic(args.n, args.k, field)
    _write_state(args.out, state, [])
    print(f"wrote n={args.n} k={args.k} field={args.field} epoch=0 -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    text = Path(args.path).read_text()
    try:
        state, history = load_state_text(text)
    except StateFileError as e:
        print(f"FAIL: {e}")
        return 1
    total = math.comb(2 * state.n, 2 * state.k)
    print(
        f"n={state.n} k={state.k} field={field_name(state.field)} "
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
    state, history = load_state_text(Path(args.path).read_text())
    helpers = _parse_helpers(args.helpers)
    if helpers is None:
        helpers = default_helpers(state, args.failed)
    rng = random.Random(args.seed)
    new_state, transcript = repair(state, args.failed, helpers, rng)
    history.append(transcript)
    _write_state(args.path, new_state, history)
    per_stripe = state.k + 1
    bound = cut_bound(2 * state.k, state.k, state.k + 1)
    print(
        f"repaired node {transcript.failed} from helpers "
        f"{','.join(map(str, transcript.helpers))}: retries={transcript.retries}"
    )
    print(f"downloads {per_stripe} symbols; bound {bound}")
    print(f"epoch: {new_state.epoch}")
    return 0


def _cmd_simulate(args) -> int:
    m, poly = FIELDS[args.field]
    field = GF(m, poly)
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


def _cmd_bound(args) -> int:
    if args.B is None and args.n is None:
        raise BadShape("bound needs --B with --d, or --n, or both")
    if (args.B is None) != (args.d is None):
        raise BadShape("--B and --d must be given together")
    if args.B is not None:
        print(cut_bound(args.B, args.k, args.d))
    if args.n is not None:
        print(f"d0 = {degree_bound(args.n, args.k)}")
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
