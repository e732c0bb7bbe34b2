"""Exercise the command-line interface through main() and the module entry."""

import json
import subprocess
import sys

import pytest

from cakecut.cli import EXIT_AUDIT, EXIT_INVALID, EXIT_OK, main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance(tmp_path, capsys, n=3, family="random", seed=5):
    path = tmp_path / "inst.json"
    code, _, _ = run(["gen", "--n", str(n), "--family", family,
                      "--seed", str(seed), "-o", str(path)], capsys)
    assert code == EXIT_OK
    return path


def test_gen_writes_parseable_instance(tmp_path, capsys):
    path = gen_instance(tmp_path, capsys)
    obj = json.loads(path.read_text())
    assert len(obj["agents"]) == 3
    assert set(obj["valuations"]) >= {a["valuation"] for a in obj["agents"]}


def test_gen_accepts_long_family_spelling(tmp_path, capsys):
    path = tmp_path / "blocks.json"
    code, _, _ = run(["gen", "--n", "3", "--family", "disjoint-blocks",
                      "-o", str(path)], capsys)
    assert code == EXIT_OK and path.exists()


def test_solve_then_audit_round_trip(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys)
    alloc = tmp_path / "alloc.json"
    code, out, _ = run(["solve", str(inst), "--delta", "1/10", "-o", str(alloc)], capsys)
    assert code == EXIT_OK
    assert "max_envy=" in out

    obj = json.loads(alloc.read_text())
    assert obj["delta"] == "1/10"
    assert obj["audit"]["passed"] is True
    assert len(obj["pieces"]) == 3

    code, out, _ = run(["audit", str(inst), str(alloc)], capsys)
    assert code == EXIT_OK
    assert "ok   additive_envy_bound" in out


def test_audit_flags_a_tampered_allocation(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n=2, seed=11)
    alloc = tmp_path / "alloc.json"
    run(["solve", str(inst), "--delta", "1/10", "-o", str(alloc)], capsys)
    obj = json.loads(alloc.read_text())
    # hand everything to agent 1
    obj["pieces"] = [{"agent": 1, "lo": "0", "hi": "1"},
                     {"agent": 2, "lo": None, "hi": None}]
    alloc.write_text(json.dumps(obj))

    code, out, err = run(["audit", str(inst), str(alloc)], capsys)
    assert code == EXIT_AUDIT
    assert "FAIL" in out
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "audit"
    assert "additive_envy_bound" in diagnostic["failed"]


UNIFORM_4 = {"agents": [{"valuation": "u"}] * 4,
             "valuations": {"u": {"breakpoints": ["0", "1"], "densities": ["1"]}}}


def write_allocation(tmp_path, bounds, **params):
    """An allocation file for agents 1..n holding consecutive [bounds[k], bounds[k+1]]."""
    path = tmp_path / "alloc.json"
    pieces = [{"agent": k + 1, "lo": lo, "hi": hi}
              for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    path.write_text(json.dumps({"pieces": pieces, **params}))
    return path


def test_audit_applies_every_parameter_a_file_carries(tmp_path, capsys):
    # epsilon = 9/10 tolerates agent 1's 7/10 against 1/10, delta = 1/10 does not:
    # a file carrying both must get both sets of checks
    inst = tmp_path / "uniform.json"
    inst.write_text(json.dumps(UNIFORM_4))
    alloc = write_allocation(tmp_path, ["0", "7/10", "4/5", "9/10", "1"],
                             delta="1/10", epsilon="9/10")
    code, out, err = run(["audit", str(inst), str(alloc)], capsys)
    assert code == EXIT_AUDIT
    assert "ok   envy_within_epsilon" in out
    assert json.loads(err)["failed"] == ["additive_envy_bound", "half_value_bound"]


@pytest.mark.parametrize("params", [
    {"delta": "1/10", "epsilon": "1"},   # everything to agent 1 passes envy <= 1
    {"epsilon": "1"},
    {"c": "1/10", "delta": "9/10"},      # delta must be c/8 = 1/80
    {"delta": "0"},
    {"c": "3/2"},
])
def test_audit_rejects_malformed_parameters(tmp_path, capsys, params):
    inst = tmp_path / "uniform.json"
    inst.write_text(json.dumps(UNIFORM_4))
    alloc = write_allocation(tmp_path, ["0", "1", "1", "1", "1"], **params)
    code, out, err = run(["audit", str(inst), str(alloc)], capsys)
    assert code == EXIT_INVALID and out == ""
    assert json.loads(err)["error"] == "validation"


def test_audit_rejects_a_solve_mult_file_with_a_looser_delta(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n=4, seed=5)
    alloc = tmp_path / "alloc.json"
    code, _, _ = run(["solve-mult", str(inst), "--c", "1/10", "-o", str(alloc)], capsys)
    assert code == EXIT_OK
    obj = json.loads(alloc.read_text())
    obj["delta"] = "9/10"
    alloc.write_text(json.dumps(obj))
    code, _, err = run(["audit", str(inst), str(alloc)], capsys)
    assert code == EXIT_INVALID
    assert "c/8" in json.loads(err)["message"]


def test_validation_failures_exit_2_with_json_diagnostics(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n=2, seed=3)

    code, _, err = run(["solve", str(inst), "--delta", "0.1"], capsys)
    assert code == EXIT_INVALID
    assert json.loads(err)["error"] == "validation"

    code, _, err = run(["solve", str(tmp_path / "nope.json"), "--delta", "1/10"], capsys)
    assert code == EXIT_INVALID

    code, _, err = run(["solve", str(inst), "--delta", "2"], capsys)
    assert code == EXIT_INVALID

    # malformed files that used to crash with a traceback (exit 1)
    too_long = {"agents": [{"valuation": "u"}],
                "valuations": {"u": {"breakpoints": ["0", "1" * 4400], "densities": ["1"]}}}
    for name, data in [("latin1.json", '{"agents": "\xe9"}'.encode("latin-1")),
                       ("deep.json", b"[" * 100_000 + b"]" * 100_000),
                       ("digits.json", json.dumps(too_long).encode())]:
        bad = tmp_path / name
        bad.write_bytes(data)
        code, _, err = run(["solve", str(bad), "--delta", "1/10"], capsys)
        assert code == EXIT_INVALID, name
        assert json.loads(err)["error"] == "validation", name

    # an output path in a missing directory, which also used to exit 1
    missing = str(tmp_path / "missing" / "out.json")
    for args in [["solve", str(inst), "--delta", "1/10"], ["gen", "--n", "2"]]:
        code, _, err = run(args + ["-o", missing], capsys)
        assert code == EXIT_INVALID, args[0]
        assert json.loads(err)["error"] == "validation", args[0]


def test_bounded_rejects_too_many_distinct_valuations(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n=4, family="random", seed=2)
    code, _, err = run(["bounded", str(inst), "--epsilon", "1/4"], capsys)
    assert code == EXIT_INVALID
    assert "distinct" in json.loads(err)["message"]


def test_bounded_solves_grouped_instances(tmp_path, capsys):
    inst = tmp_path / "grouped.json"
    run(["gen", "--n", "12", "--family", "grouped", "--distinct", "2",
         "--seed", "4", "-o", str(inst)], capsys)
    alloc = tmp_path / "alloc.json"
    code, _, _ = run(["bounded", str(inst), "--epsilon", "1/4", "-o", str(alloc)], capsys)
    assert code == EXIT_OK
    obj = json.loads(alloc.read_text())
    assert obj["epsilon"] == "1/4"
    assert obj["audit"]["passed"] is True


def test_solve_mult_records_both_parameters(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n=2, seed=8)
    alloc = tmp_path / "alloc.json"
    code, _, _ = run(["solve-mult", str(inst), "--c", "1/10", "-o", str(alloc)], capsys)
    assert code == EXIT_OK
    obj = json.loads(alloc.read_text())
    assert obj["c"] == "1/10" and obj["delta"] == "1/80"
    names = [c["name"] for c in obj["audit"]["checks"]]
    assert "mult_ratio_bound" in names


@pytest.mark.parametrize("command, param", [("solve", "--delta"), ("solve-mult", "--c")])
def test_solvers_take_no_trace_level(tmp_path, capsys, command, param):
    inst = gen_instance(tmp_path, capsys, n=2)
    with pytest.raises(SystemExit) as exc:
        main([command, str(inst), param, "1/10", "--trace-level", "full"])
    assert exc.value.code == EXIT_INVALID


def test_seeded_solves_are_byte_identical(tmp_path, capsys):
    inst = gen_instance(tmp_path, capsys, n=4, seed=21)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["solve", str(inst), "--delta", "1/10", "-o", str(a)], capsys)
    run(["solve", str(inst), "--delta", "1/10", "-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_outputs_default_into_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAKECUT_OUTDIR", str(tmp_path))
    code, out, _ = run(["gen", "--n", "2", "--seed", "1"], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "instance-random-n2-seed1.json").exists()
    assert str(tmp_path) in out


def test_bench_report_aggregates_runs(tmp_path, capsys):
    report = tmp_path / "bench.json"
    code, out, _ = run(["bench", "--count", "6", "--n", "2..3", "--delta", "1/10",
                        "--seed", "2", "--oracle-resolution", "24",
                        "-o", str(report)], capsys)
    assert code == EXIT_OK
    assert "0 violations" in out
    obj = json.loads(report.read_text())
    assert obj["count"] == 6 and obj["violations"] == 0
    assert [r["n"] for r in obj["runs"]] == [2, 3, 2, 3, 2, 3]
    assert all("oracle_min_envy" in r for r in obj["runs"])
    assert obj["total_eval_queries"] > 0


def test_bench_rejects_bad_range(capsys):
    for n in ["8..2", "\u0662..\uff13", " 2..3", "2..3_0"]:
        code, _, err = run(["bench", "--count", "1", "--n", n], capsys)
        assert code == EXIT_INVALID, n
        assert "range" in json.loads(err)["message"], n


@pytest.mark.parametrize("count", ["0", "-3"])
def test_bench_rejects_a_count_below_one(tmp_path, capsys, count):
    report = tmp_path / "bench.json"
    code, _, err = run(["bench", "--count", count, "--n", "2", "-o", str(report)], capsys)
    assert code == EXIT_INVALID
    assert "--count" in json.loads(err)["message"]
    assert not report.exists()


@pytest.mark.parametrize("args", [
    ["gen", "--n", "\u0663"],
    ["gen", "--n", "2", "--seed", " 1_0"],
    ["gen", "--n", "2", "--max-pieces", "\uff18"],
    ["gen", "--n", "2", "--distinct", "2 "],
    ["gen", "--n", "2", "--grid", "4_8"],
    ["bench", "--count", "+1"],
    ["bench", "--count", "1", "--seed", "1_0"],
    ["bench", "--count", "1", "--max-pieces", " 8"],
    ["bench", "--count", "1", "--oracle-resolution", "\u0661\u0662"],
], ids=lambda args: args[0] + args[-2])
def test_integer_options_take_ascii_digits_only(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args + ["-o", str(tmp_path / "out.json")])
    assert exc.value.code == EXIT_INVALID
    assert "invalid integer value" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_module_entry_point(tmp_path):
    inst = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cakecut", "gen", "--n", "2", "--seed", "0",
         "-o", str(inst)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert inst.exists()
