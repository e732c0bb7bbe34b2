"""Exercise the command-line interface through main() and the module entry."""

import copy
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakecut import Interval, SolverConfig, solve, solve_bounded, solve_mult
from cakecut.cake import ValidationError
from cakecut.cli import EXIT_AUDIT, EXIT_INVALID, EXIT_OK, integer, main
from cakecut.serialize import (allocation_from_obj, allocation_to_obj, dumps_canonical,
                               instance_from_obj)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(args, capsys, out_file) -> str:
    """Run a failing command line; check it fails with one JSON line and no output; return its message."""
    code, out, err = run(args, capsys)
    assert code == EXIT_INVALID and out == ""
    [line] = err.splitlines()
    diagnostic = json.loads(line)
    assert diagnostic["error"] == "validation"
    assert not out_file.exists()
    return diagnostic["message"]


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


def test_gen_writes_a_blocks_instance(tmp_path, capsys):
    path = tmp_path / "blocks.json"
    code, _, _ = run(["gen", "--n", "3", "--family", "blocks",
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

    # malformed files that used to crash with a traceback (exit 1); a bare
    # integer of 5,000 digits passes CPython's int-digit limit, and stands
    # where a string or an agent number belongs, so it is refused either way
    too_long = {"agents": [{"valuation": "u"}],
                "valuations": {"u": {"breakpoints": ["0", "1" * 4400], "densities": ["1"]}}}
    alloc = tmp_path / "alloc.json"
    assert run(["solve", str(inst), "--delta", "1/10", "-o", str(alloc)], capsys)[0] == EXIT_OK
    big = "1" * 5000
    for name, data, command in [
            ("latin1.json", '{"agents": "\xe9"}'.encode("latin-1"), "solve"),
            ("deep.json", b"[" * 100_000 + b"]" * 100_000, "solve"),
            ("digits.json", json.dumps(too_long).encode(), "solve"),
            ("int_instance.json", json.dumps({**UNIFORM_4, "agents": [{"valuation": "BIG"}]})
             .replace('"BIG"', big).encode(), "solve"),
            ("int_agent.json", alloc.read_text().replace('"agent": 1', '"agent": ' + big, 1)
             .encode(), "audit")]:
        bad = tmp_path / name
        bad.write_bytes(data)
        args = ["solve", str(bad), "--delta", "1/10"] if command == "solve" else \
            ["audit", str(inst), str(bad)]
        code, _, err = run(args, capsys)
        assert code == EXIT_INVALID, name
        assert json.loads(err)["error"] == "validation", name

    # a malformed valuation is named in the diagnostic
    heavy = {"agents": [{"valuation": "u"}],
             "valuations": {"u": {"breakpoints": ["0", "1"], "densities": ["2"]}}}
    bad = tmp_path / "heavy.json"
    bad.write_text(json.dumps(heavy))
    code, _, err = run(["solve", str(bad), "--delta", "1/10"], capsys)
    assert code == EXIT_INVALID
    assert json.loads(err)["message"] == "valuation 'u': total mass is 2, expected 1"

    # an allocation with 3 rows for this 2-agent instance
    rows = tmp_path / "rows.json"
    thirds = [Fraction(k, 3) for k in range(4)]
    rows.write_text(dumps_canonical(allocation_to_obj(
        [Interval(a, b) for a, b in zip(thirds, thirds[1:])], {"delta": Fraction(1, 10)})))
    code, _, err = run(["audit", str(inst), str(rows)], capsys)
    assert code == EXIT_INVALID
    assert json.loads(err)["message"] == "allocation has 3 pieces for 2 agents"

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
    out = tmp_path / "out.json"
    message = usage_error([command, str(inst), param, "1/10", "--trace-level", "full",
                           "-o", str(out)], capsys, out)
    assert "unrecognized arguments: --trace-level full" in message


@pytest.mark.parametrize("args, phrase", [
    ([], "required: command"),
    (["nope"], "invalid choice"),
    (["solve", "inst.json"], "required: --delta"),
    (["solve-mult", "inst.json"], "required: --c"),
    (["bounded", "inst.json"], "required: --epsilon"),
    (["audit", "inst.json"], "required: allocation"),
    (["gen", "--n", "2", "--family", "nope"], "invalid choice: 'nope'"),
    (["bench", "--count", "1"], "invalid choice: 'bench'"),
    (["gen", "--n", "2", "--seeds", "1"], "unrecognized arguments: --seeds 1"),
])
def test_usage_errors_exit_2_with_one_json_line(tmp_path, capsys, args, phrase):
    out = tmp_path / "out.json"
    if args:
        args = args + ["-o", str(out)]
    assert phrase in usage_error(args, capsys, out)


@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"], ["audit", "-h"]])
def test_help_prints_usage_and_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: cakecut")


TENTH, HALF = Fraction(1, 10), Fraction(1, 2)


@pytest.mark.parametrize("command, option, solver, params", [
    ("solve", ["--delta", "1/10"], lambda inst: solve(inst, SolverConfig(delta=TENTH)),
     {"delta": TENTH}),
    ("solve-mult", ["--c", "1/10"], lambda inst: solve_mult(inst, TENTH),
     {"c": TENTH, "delta": TENTH / 8}),
    ("bounded", ["--epsilon", "1/2"], lambda inst: solve_bounded(inst, HALF), {"epsilon": HALF}),
], ids=["solve", "solve-mult", "bounded"])
def test_a_solver_file_carries_the_parameters_its_audit_checked(tmp_path, capsys, command,
                                                               option, solver, params):
    inst = tmp_path / "grouped.json"
    run(["gen", "--n", "6", "--family", "grouped", "--seed", "3", "-o", str(inst)], capsys)
    alloc = tmp_path / "alloc.json"
    code, _, _ = run([command, str(inst), *option, "-o", str(alloc)], capsys)
    assert code == EXIT_OK
    result = solver(instance_from_obj(json.loads(inst.read_text())))
    pieces, report = result[0], result[-1]
    assert report.params == params
    assert allocation_from_obj(json.loads(alloc.read_text()))[1] == report.params
    assert alloc.read_text() == dumps_canonical(allocation_to_obj(pieces, report.params, report))


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


@pytest.mark.parametrize("args", [
    ["gen", "--n", "\u0663"],
    ["gen", "--n", "2", "--seed", " 1_0"],
    ["gen", "--n", "2", "--max-pieces", "\uff18"],
    ["gen", "--n", "2", "--distinct", "2 "],
    ["gen", "--n", "2", "--grid", "4_8"],
], ids=lambda args: args[0] + args[-2])
def test_integer_options_take_ascii_digits_only(tmp_path, capsys, args):
    out = tmp_path / "out.json"
    message = usage_error(args + ["-o", str(out)], capsys, out)
    assert f"argument {args[-2]}: invalid integer value" in message


def test_integer_refuses_a_plus_sign():
    with pytest.raises(ValidationError, match="not an integer: '\\+1'"):
        integer("+1")


# Nodes a malformed file may hold where a fraction string, a list or an object belongs.
ODD_NODES = ["1/0", "-1", "1/2", "x", None, True, 0, 1.5, [], {}, "9" * 5000, "1/" + "9" * 5000]
FILE_KEYS = ["agents", "valuation", "valuations", "breakpoints", "densities", "pieces",
             "agent", "lo", "hi", "delta", "c", "epsilon", "audit", "zz"]


def json_paths(node, path=()):
    """The key/index path of every node of a JSON tree, the root first."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_paths(child, path + (key,))


def mutate(obj, path, op, value, key):
    """A copy of ``obj`` with the node at ``path`` replaced, deleted or appended to.

    Appending adds ``value`` to a list or under ``key`` to an object; a scalar
    is replaced instead, and so is the root when it would be deleted.
    """
    holder = [copy.deepcopy(obj)]
    parent, last = holder, 0
    for step in path:
        parent, last = parent[last], step
    node, value = parent[last], copy.deepcopy(value)
    if op == "append" and isinstance(node, list):
        node.append(value)
    elif op == "append" and isinstance(node, dict):
        node[key] = value
    elif op == "delete" and path:
        del parent[last]
    else:
        parent[last] = value
    return holder[0]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A scratch dir, a generated n=3 instance and its allocation as parsed JSON, and their paths."""
    root = tmp_path_factory.mktemp("fuzz")
    inst, alloc = root / "inst.json", root / "alloc.json"
    with redirect_stdout(io.StringIO()):
        assert main(["gen", "--n", "3", "--seed", "5", "-o", str(inst)]) == EXIT_OK
        assert main(["solve", str(inst), "--delta", "1/10", "-o", str(alloc)]) == EXIT_OK
    files = {"instance": json.loads(inst.read_text()), "allocation": json.loads(alloc.read_text())}
    # the embedded audit is never read back: mutate it only as a whole
    paths = {name: [p for p in json_paths(obj) if p[:1] != ("audit",) or len(p) == 1]
             for name, obj in files.items()}
    return root, files, paths


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_no_malformed_file_gives_a_traceback(cli_files, data):
    root, originals, paths = cli_files
    command = data.draw(st.sampled_from(["audit", "solve", "solve-mult", "bounded"]))
    target = data.draw(st.sampled_from(["instance", "allocation"] if command == "audit"
                                       else ["instance"]))
    files = dict(originals)
    files[target] = mutate(originals[target], data.draw(st.sampled_from(paths[target])),
                           data.draw(st.sampled_from(["replace", "delete", "append"])),
                           data.draw(st.sampled_from(ODD_NODES)),
                           data.draw(st.sampled_from(FILE_KEYS)))
    inst, alloc, out = root / "m-inst.json", root / "m-alloc.json", root / "m-out.json"
    inst.write_text(json.dumps(files["instance"]))
    alloc.write_text(json.dumps(files["allocation"]))
    args = {"audit": ["audit", str(inst), str(alloc)],
            "solve": ["solve", str(inst), "--delta", "1/10", "-o", str(out)],
            "solve-mult": ["solve-mult", str(inst), "--c", "1/10", "-o", str(out)],
            "bounded": ["bounded", str(inst), "--epsilon", "1/4", "-o", str(out)]}[command]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(args)
    assert code in (EXIT_OK, EXIT_AUDIT, EXIT_INVALID)
    lines = err.getvalue().splitlines()
    if code == EXIT_OK:
        assert lines == []
    else:
        [line] = lines
        assert json.loads(line)["error"] in ("audit", "validation")


def test_module_entry_point(tmp_path):
    inst = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cakecut", "gen", "--n", "2", "--seed", "0",
         "-o", str(inst)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert inst.exists()
