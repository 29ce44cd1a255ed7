import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mdsrepair import matrix
from mdsrepair.cli import dump_state_text, load_state_text, main
from mdsrepair.errors import StateFileError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_state(tmp_path, capsys, n=4, k=2, field="gf256", name="state.json"):
    path = tmp_path / name
    code, out, err = run(
        capsys,
        "gen", "--n", str(n), "--k", str(k), "--field", field, "--out", str(path),
    )
    assert code == 0, err
    return path


def test_gen_then_verify(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "systematic columns: ok" in out
    assert "70/70 subsets full rank" in out


def test_gen_has_no_seed_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "4", "--k", "2", "--seed", "1", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_gen_rejects_bad_shape(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--n", "3", "--k", "2", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "2k <= n" in err


def test_gen_rejects_small_field(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "gen", "--n", "6", "--k", "3", "--field", "gf256",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "924" in err and "256" in err


def test_verify_flags_corrupted_column(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["v"][0] = ["00", "00", "00", "00"]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == "FAIL: v1 does not match the replayed history\n"


def test_repair_updates_in_place(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    code, out, _ = run(capsys, "repair", str(path), "--failed", "4", "--seed", "3")
    assert code == 0
    assert "downloads 3 symbols; bound 3" in out
    assert "retries=" in out
    doc = json.loads(path.read_text())
    assert doc["epoch"] == 1
    assert len(doc["history"]) == 1
    entry = doc["history"][0]
    assert entry["failed"] == 4
    assert entry["helpers"] == [1, 2, 3]
    assert len(entry["xi"]["rho"]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]  # no temp file left
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0


def test_repair_deterministic_given_seed(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    copy = tmp_path / "copy.json"
    shutil.copy(path, copy)
    assert run(capsys, "repair", str(path), "--failed", "2", "--seed", "11")[0] == 0
    assert run(capsys, "repair", str(copy), "--failed", "2", "--seed", "11")[0] == 0
    assert path.read_bytes() == copy.read_bytes()


def test_repair_bad_failed_is_usage_error(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    code, _, err = run(capsys, "repair", str(path), "--failed", "99", "--seed", "1")
    assert code == 2
    assert "99" in err


def test_repair_bad_helpers(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    code, _, err = run(
        capsys,
        "repair", str(path), "--failed", "4", "--helpers", "1,2,4", "--seed", "1",
    )
    assert code == 2


def test_repair_many_times_stays_verified(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    for i in range(100):
        code, _, _ = run(
            capsys,
            "repair", str(path), "--failed", str(i % 4 + 1), "--seed", str(i),
        )
        assert code == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "70/70" in out
    doc = json.loads(path.read_text())
    assert doc["epoch"] == 100 and len(doc["history"]) == 100


def test_state_file_round_trip_is_byte_identical(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    text = path.read_text()
    state, history = load_state_text(text)
    assert dump_state_text(state, history) == text
    # and again after a repair added history
    run(capsys, "repair", str(path), "--failed", "1", "--seed", "5")
    text = path.read_text()
    state, history = load_state_text(text)
    assert dump_state_text(state, history) == text


def test_loader_rejects_malformed_files():
    with pytest.raises(StateFileError):
        load_state_text("{not json")
    with pytest.raises(StateFileError):
        load_state_text(json.dumps({"version": "999"}))
    with pytest.raises(StateFileError):
        load_state_text(json.dumps({"version": "1", "field": {"m": 8}}))
    with pytest.raises(StateFileError):  # int() of a float infinity overflows
        load_state_text(
            '{"version": "1", "field": {"m": 8, "reduction_poly": "0x11d"},'
            ' "n": Infinity, "k": 2}'
        )
    with pytest.raises(StateFileError):  # past Python's int-parsing digit limit
        load_state_text('{"version": "1", "n": ' + "9" * 5000 + "}")


def test_loader_rejects_absurd_shape_fast():
    # 2n > |F| is checked before the exact binomial, which would stall
    text = '{"version": "1", "field":{"m":16}, "n":1000000, "k":500000}\n'
    assert len(text.encode()) == 60
    start = time.perf_counter()
    with pytest.raises(StateFileError, match="2n=2000000"):
        load_state_text(text)
    assert time.perf_counter() - start < 0.1


def test_loader_rejects_epoch_history_mismatch(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["epoch"] = 5
    with pytest.raises(StateFileError):
        load_state_text(json.dumps(doc))


def test_forged_history_fails_verify_and_repair(tmp_path, capsys):
    path = gen_state(tmp_path, capsys, n=6, k=3, field="gf65536")
    doc = json.loads(path.read_text())
    rng = random.Random(77)
    rand = [f"{rng.randrange(1 << 16):04x}" for _ in range(15)]
    doc["history"] = [{
        "failed": 6,
        "helpers": [4, 4, 4, 4],
        "xi": {"alpha1": "0000", "beta1": rand[0], "rho": rand[1:5]},
        "alpha": ["0000"] * 4,
        "beta": rand[5:9],
        "v_prime": rand[9:15],
        "retries": 0,
        "epoch_before": 77,
        "epoch_after": 78,
    }]
    doc["epoch"] = 1
    path.write_text(json.dumps(doc, indent=2) + "\n")
    before = path.read_bytes()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out and "history[0]" in out
    code, _, err = run(capsys, "repair", str(path), "--failed", "1", "--seed", "1")
    assert code == 1
    assert "history[0]" in err
    assert path.read_bytes() == before


def tamper(doc, what):
    t = doc["history"][0]
    if what == "helpers":
        t["helpers"] = [t["helpers"][0]] * len(t["helpers"])
    elif what == "epoch_before":
        t["epoch_before"] = 77
    elif what == "epoch_after":
        t["epoch_after"] = 2
    elif what == "alpha":
        t["alpha"][1] = f"{int(t['alpha'][1], 16) ^ 1:02x}"
    elif what == "v_prime":
        t["v_prime"][0] = f"{int(t['v_prime'][0], 16) ^ 1:02x}"
    elif what == "rho":
        t["xi"]["rho"] = t["xi"]["rho"][:-1]
    elif what == "stored_v":
        # a consistent transcript whose column never reached the store
        doc["v"][t["failed"] - 1] = doc["v"][t["failed"] % 4]
    elif what == "failed":
        t["failed"] = 9
    elif what == "float_retries":
        t["retries"] = float(t["retries"])  # == the int, but not canonical
    elif what == "bool_epoch":
        doc["epoch"] = True  # == 1, but not canonical


@pytest.mark.parametrize(
    "what",
    [
        "helpers", "epoch_before", "epoch_after", "alpha", "v_prime", "rho", "stored_v",
        "failed", "float_retries", "bool_epoch",
    ],
)
def test_loader_replays_history(tmp_path, capsys, what):
    path = gen_state(tmp_path, capsys)
    assert run(capsys, "repair", str(path), "--failed", "2", "--seed", "5")[0] == 0
    doc = json.loads(path.read_text())
    load_state_text(json.dumps(doc))  # the untampered file loads
    tamper(doc, what)
    with pytest.raises(StateFileError):
        load_state_text(json.dumps(doc))


@pytest.mark.parametrize("where", ["alpha1", "rho"])
@pytest.mark.parametrize("value, error", [
    ("-1", "NotASymbol"), ("100", "NotASymbol"), (1.5, "TypeError"), (True, "TypeError"),
], ids=["-1", "|F|", "1.5", "True"])
def test_loader_rejects_a_draw_outside_the_field(tmp_path, capsys, where, value, error):
    path = gen_state(tmp_path, capsys)  # gf256
    assert run(capsys, "repair", str(path), "--failed", "2", "--seed", "5")[0] == 0
    doc = json.loads(path.read_text())
    xi = doc["history"][0]["xi"]
    if where == "rho":
        xi["rho"][0] = value
    else:
        xi["alpha1"] = value
    with pytest.raises(StateFileError, match=rf"^history\[0\] does not replay: {error}: "):
        load_state_text(json.dumps(doc))


def test_loader_rejects_json_nested_near_the_parse_limit():
    # json.loads takes a value nested just under the recursion limit, and
    # comparing it to the canonical document then runs a few frames deeper
    head = '{"version": "1", "field": {"m": 8, "reduction_poly": "0x11d"}, "n": 4, "k": 2, '
    for depth in range(500, 1000):  # where the window lies depends on the stack above
        text = head + '"epoch": 0, "u": ' + "[" * depth + "]" * depth + ', "v": [], "history": []}'
        with pytest.raises(StateFileError):
            load_state_text(text)


@pytest.mark.parametrize("fault", ["fsync", "replace"])
def test_state_write_is_atomic(tmp_path, capsys, monkeypatch, fault):
    path = gen_state(tmp_path, capsys)
    before = path.read_bytes()

    def boom(*args):
        raise OSError(f"injected {fault} failure")

    monkeypatch.setattr(os, fault, boom)
    code, _, err = run(capsys, "repair", str(path), "--failed", "4", "--seed", "3")
    assert code == 1
    assert f"injected {fault} failure" in err
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


def test_repair_leaves_other_writers_temp_files_alone(tmp_path, capsys):
    """A second writer of the same file never truncates the first one's temp file."""
    path = gen_state(tmp_path, capsys)
    others = {".state.json.tmp": b'{"version": "1", "fie', ".state.json.1.tmp": b"{\n"}
    for name, partial in others.items():
        (tmp_path / name).write_bytes(partial)
    code, _, err = run(capsys, "repair", str(path), "--failed", "4", "--seed", "3")
    assert code == 0, err
    for name, partial in others.items():
        assert (tmp_path / name).read_bytes() == partial
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*others, "state.json"])


def test_loader_builds_an_inverse_but_no_typed_tables(tmp_path, capsys, monkeypatch):
    """Replaying two repairs with the same helper columns solves one matrix
    twice in a row, so the loader builds its inverse; a cold command must not
    pay for the GF(2^16) typed arrays to use it a few times."""
    path = gen_state(tmp_path, capsys, n=8, k=4, field="gf65536")
    for failed in ("7", "8"):  # default helpers 1..5 both times, none of them repaired
        code, _, err = run(capsys, "repair", str(path), "--failed", failed, "--seed", "1")
        assert code == 0, err
    monkeypatch.setattr(matrix, "_last", (0, None, None, None))
    state, history = load_state_text(path.read_text())
    assert [t.helpers for t in history] == [(1, 2, 3, 4, 5)] * 2
    assert matrix._last[2] is not None
    assert state.field._data_tables is None


def test_loader_rejects_non_basis_u(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["u"][0] = ["02", "00", "00", "00"]
    with pytest.raises(StateFileError):
        load_state_text(json.dumps(doc))


def test_loader_rejects_out_of_field_and_ragged_symbols(tmp_path, capsys):
    path = gen_state(tmp_path, capsys)  # gf256 state
    doc = json.loads(path.read_text())
    doc["v"][0][0] = "1ff"  # 511: parses as hex but exceeds the field
    with pytest.raises(StateFileError):
        load_state_text(json.dumps(doc))
    doc = json.loads(path.read_text())
    doc["v"][1] = doc["v"][1][:3]  # short column
    with pytest.raises(StateFileError):
        load_state_text(json.dumps(doc))
    doc = json.loads(path.read_text())
    doc["v"][2][1] = "zz"  # not hex
    with pytest.raises(StateFileError):
        load_state_text(json.dumps(doc))


@pytest.mark.parametrize(
    "poly",
    [
        "0x11b",  # irreducible but x has order 51: not primitive
        "0x101",  # (x+1)^8: reducible
        "0x1d",  # degree too small
    ],
)
def test_loader_rejects_bad_reduction_poly(tmp_path, capsys, poly):
    path = gen_state(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["field"]["reduction_poly"] = poly
    with pytest.raises(StateFileError, match="field"):
        load_state_text(json.dumps(doc))


def test_loader_rejects_extra_key(tmp_path, capsys):
    doc = json.loads(gen_state(tmp_path, capsys).read_text())
    doc["note"] = "hello"
    with pytest.raises(StateFileError, match="note"):
        load_state_text(json.dumps(doc))


def test_loader_rejects_missing_history(tmp_path, capsys):
    doc = json.loads(gen_state(tmp_path, capsys).read_text())
    assert doc["epoch"] == 0
    del doc["history"]
    with pytest.raises(StateFileError, match="history"):
        load_state_text(json.dumps(doc))


@pytest.mark.parametrize(
    "side, recode",
    [("v", str.upper), ("u", lambda sym: sym[1:] if sym[0] == "0" else sym)],
    ids=["uppercase", "unpadded"],
)
def test_loader_rejects_non_canonical_hex(tmp_path, capsys, side, recode):
    doc = json.loads(gen_state(tmp_path, capsys).read_text())
    c, i = next(
        (c, i)
        for c, col in enumerate(doc[side])
        for i, sym in enumerate(col)
        if recode(sym) != sym
    )
    doc[side][c][i] = recode(doc[side][c][i])  # same value, other spelling
    with pytest.raises(StateFileError, match=f"{side}{c + 1} "):
        load_state_text(json.dumps(doc))


DATA = Path(__file__).parent / "data"

# file -> (gen flags, repair flags in order, verify output)
GOLDEN = {
    "state_4_2_gf256.json": (
        ["--n", "4", "--k", "2", "--field", "gf256"],
        [
            ["--failed", "4", "--seed", "3"],
            ["--failed", "1", "--seed", "5"],
            ["--failed", "2", "--helpers", "1,3,4", "--seed", "4"],
        ],
        "n=4 k=2 field=gf256 epoch=3 history=3\n"
        "systematic columns: ok\n"
        "mds: 70/70 subsets full rank\n",
    ),
    "state_6_3_gf65536.json": (
        ["--n", "6", "--k", "3"],
        [
            ["--failed", "6", "--seed", "1"],
            ["--failed", "2", "--helpers", "1,3,4,5", "--seed", "2"],
        ],
        "n=6 k=3 field=gf65536 epoch=2 history=2\n"
        "systematic columns: ok\n"
        "mds: 924/924 subsets full rank\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_state_files(tmp_path, capsys, name):
    gen_flags, repairs, verified = GOLDEN[name]
    golden = DATA / name
    text = golden.read_text()
    assert dump_state_text(*load_state_text(text)) == text
    path = tmp_path / name
    assert run(capsys, "gen", *gen_flags, "--out", str(path))[0] == 0
    for flags in repairs:
        assert run(capsys, "repair", str(path), *flags)[0] == 0
    assert path.read_bytes() == golden.read_bytes()
    assert run(capsys, "verify", str(golden)) == (0, verified, "")


# report file -> simulate flags; EMPTY names an empty input file (zero stripes)
SIMULATE_GOLDEN = {
    "simulate_4_2_gf256_seed1.txt": "--n 4 --k 2 --field gf256 --rounds 40 --seed 1",
    "simulate_6_3_gf65536_seed2.txt": "--n 6 --k 3 --field gf65536 --rounds 10 --seed 2",
    "simulate_empty_input.txt": "--n 4 --k 2 --field gf256 --rounds 5 --seed 3 --input EMPTY",
}


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
def test_golden_simulate_reports(tmp_path, capsys, name):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    argv = SIMULATE_GOLDEN[name].replace("EMPTY", str(empty)).split()
    report = tmp_path / "report.txt"
    golden = (DATA / name).read_text()
    assert run(capsys, "simulate", *argv, "--report", str(report)) == (0, golden, "")
    assert report.read_text() == golden


def test_verify_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_bytes(b"\xff\xfe")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("FAIL: ") and out.count("\n") == 1


def test_repair_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "repair", str(path), "--failed", "1", "--seed", "1")
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert path.read_bytes() == b"\xff\xfe"


def test_verify_deeply_nested_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    assert out.startswith("FAIL: not valid JSON: ") and out.count("\n") == 1


def test_repair_deeply_nested_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "repair", str(path), "--failed", "1", "--seed", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1
    assert path.read_text() == "[" * 100_000


def test_tiny_shape_repair_is_usage_error(tmp_path, capsys):
    path = gen_state(tmp_path, capsys, n=2, k=1)
    before = path.read_bytes()
    code, _, err = run(capsys, "repair", str(path), "--failed", "1", "--seed", "1")
    assert code == 2
    assert "k+2" in err
    assert path.read_bytes() == before
    code, out, err = run(
        capsys,
        "simulate", "--n", "2", "--k", "1", "--field", "gf256", "--rounds", "1",
    )
    assert code == 2
    assert out == "" and "k+2" in err


def test_simulate_zero_rounds(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "simulate", "--n", "4", "--k", "2", "--rounds", "0", "--seed", "1",
    )
    assert code == 0
    assert "rounds: 0" in out
    assert "downloaded_symbols: 0" in out


def test_simulate_negative_rounds_is_usage_error(capsys):
    code, out, err = run(
        capsys,
        "simulate", "--n", "4", "--k", "2", "--rounds", "-3", "--seed", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "-3" in err


def test_simulate_report_and_determinism(tmp_path, capsys):
    report1 = tmp_path / "r1.txt"
    report2 = tmp_path / "r2.txt"
    args = [
        "simulate", "--n", "4", "--k", "2", "--field", "gf65536",
        "--rounds", "50", "--seed", "9",
    ]
    code, out1, _ = run(capsys, *args, "--report", str(report1))
    assert code == 0
    code, out2, _ = run(capsys, *args, "--report", str(report2))
    assert code == 0
    assert out1 == out2
    assert report1.read_bytes() == report2.read_bytes()
    assert "ratio: 3/4" in out1
    assert "invariants: mds=50/50" in out1


def test_simulate_thousand_rounds(capsys):
    code, out, _ = run(
        capsys,
        "simulate", "--n", "4", "--k", "2", "--field", "gf65536",
        "--rounds", "1000", "--seed", "1",
    )
    assert code == 0
    assert "invariants: mds=1000/1000 systematic=1000/1000 decode=1000/1000" in out
    assert "ratio: 3/4" in out


def test_simulate_k3_ratio(capsys):
    code, out, _ = run(
        capsys,
        "simulate", "--n", "6", "--k", "3", "--field", "gf65536",
        "--rounds", "5", "--seed", "2",
    )
    assert code == 0
    assert "ratio: 2/3" in out


def test_simulate_with_input_file(tmp_path, capsys):
    blob = tmp_path / "blob.bin"
    blob.write_bytes(bytes(range(48)))
    code, out, _ = run(
        capsys,
        "simulate", "--n", "4", "--k", "2", "--rounds", "10", "--seed", "3",
        "--input", str(blob),
    )
    assert code == 0
    assert "input_bytes=48" in out


def test_bound_outputs(capsys):
    code, out, _ = run(capsys, "bound", "--B", "4", "--k", "2", "--d", "3")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "bound", "--B", "10", "--k", "2", "--d", "2")
    assert code == 0 and out.strip() == "10"
    code, out, _ = run(capsys, "bound", "--k", "2", "--n", "4")
    assert code == 0 and out.strip() == "d0 = 70"
    code, out, _ = run(
        capsys, "bound", "--B", "4", "--k", "2", "--d", "3", "--n", "4"
    )
    assert code == 0 and out.splitlines() == ["3", "d0 = 70"]


def test_bound_usage_errors(capsys):
    code, _, err = run(capsys, "bound", "--k", "2")
    assert code == 2
    code, _, err = run(capsys, "bound", "--B", "4", "--k", "2")
    assert code == 2
    code, _, err = run(capsys, "bound", "--B", "4", "--k", "3", "--d", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--k", "50000", "--n", "100000"),
    ("--k", "500000", "--n", "1000000"),
    ("--B", "4", "--d", "50000", "--k", "50000", "--n", "100000"),
])
def test_bound_huge_d0_is_usage_error(capsys, argv):
    # d0 past Python's 4300-digit str() limit: one error line, no stdout
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: d0 = 2*C(2n-1, 2k-1)") and err.count("\n") == 1


def test_bound_huge_d0_exits_2_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mdsrepair.cli", "bound", "--k", "50000", "--n", "100000"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_bound_prints_d0_up_to_the_digit_limit(capsys):
    code, out, _ = run(capsys, "bound", "--k", "3572", "--n", "7144")  # 4299 digits
    assert code == 0 and len(out.strip().removeprefix("d0 = ")) == 4299
    code, out, _ = run(capsys, "bound", "--k", "3573", "--n", "7146")  # 4301 digits
    assert code == 2 and out == ""


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/state.json")
    assert code == 1
