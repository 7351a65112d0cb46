import json
import os
import subprocess
import sys
from pathlib import Path

from treechoice.cli import run_command

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"

INCOMP = str(FIXTURES / "incomparable.tree")
LAKE = str(FIXTURES / "lake.tree")
LEAF = str(FIXTURES / "leaf.tree")
CROSS = str(FIXTURES / "cross.tree")
LAKE_PROB = str(FIXTURES / "lake_uniform.prob")
INCOMP_PROB = str(FIXTURES / "incomparable_uniform.prob")
INCOMP_CREDAL = str(FIXTURES / "incomparable_credal.ctx")


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_solve_single_leaf(capsys):
    code, payload = run_json(
        capsys, "solve", "--tree", LEAF, "--rule", "pointwise_dominance"
    )
    assert code == 0
    assert payload["solution"] == [[]]
    assert payload["induced_gambles"] == [["zero"]]


def test_solve_lake_eu(capsys):
    code, payload = run_json(
        capsys,
        "solve", "--tree", LAKE, "--rule", "eu_max", "--context", LAKE_PROB,
    )
    assert code == 0
    assert payload["induced_gambles"] == [
        ["r10", "r10", "r15", "r15"],
        ["r5", "r5", "r20", "r20"],
    ]


def test_solve_backward_matches_normal(capsys):
    code_n, normal = run_json(
        capsys, "solve", "--tree", INCOMP, "--rule", "pointwise_dominance"
    )
    code_b, backward = run_json(
        capsys,
        "solve", "--tree", INCOMP, "--rule", "pointwise_dominance",
        "--method", "backward",
    )
    assert code_n == code_b == 0
    assert normal["solution"] == backward["solution"]


def test_solve_full_embeds_enumeration(capsys):
    code, payload = run_json(
        capsys, "solve", "--tree", INCOMP, "--rule", "pointwise_dominance", "--full"
    )
    assert code == 0
    assert len(payload["nfd"]) == 3


def test_solve_missing_context_is_usage_error(capsys):
    code, payload = run_json(capsys, "solve", "--tree", LAKE, "--rule", "eu_max")
    assert code == 2
    assert payload["type"] == "MissingContext"


def test_solve_credal_rule(capsys):
    code, payload = run_json(
        capsys,
        "solve", "--tree", INCOMP, "--rule", "maximality", "--context", INCOMP_CREDAL,
    )
    assert code == 0
    # E[Z - X] = 1 under both credal points, so Z expels X; Y survives both
    assert payload["induced_gambles"] == [["m2", "p2"], ["z", "z"]]


def test_check_perfect_incomparable_dominance_violation(capsys):
    code, payload = run_json(
        capsys, "check-perfect", "--tree", INCOMP, "--rule", "pointwise_dominance"
    )
    assert code == 1
    assert payload["perfect"] is False
    violation = payload["violations"][0]
    assert violation["node"] == [0]
    assert violation["expected_gambles"] == [["m1", "m1"], ["m2", "p2"]]
    assert violation["actual_gambles"] == [["m2", "p2"]]


def test_check_perfect_weak_incomparable_dominance_passes(capsys):
    code, payload = run_json(
        capsys,
        "check-perfect", "--tree", INCOMP, "--rule", "pointwise_dominance", "--weak",
    )
    assert code == 0
    assert payload["perfect"] is True


def test_check_perfect_eu_passes(capsys):
    code, payload = run_json(
        capsys,
        "check-perfect", "--tree", INCOMP, "--rule", "eu_max", "--context", INCOMP_PROB,
    )
    assert code == 0


def test_compare_backward_incomparable_dominance_equal(capsys):
    code, payload = run_json(
        capsys, "compare-backward", "--tree", INCOMP, "--rule", "pointwise_dominance"
    )
    assert code == 0
    assert payload["equal"] is True


def test_check_properties_finds_p2_violation(capsys):
    code, payload = run_json(
        capsys,
        "check-properties", "--rule", "pointwise_dominance",
        "--props", "P1,P2", "--budget", "400", "--seed", "0",
    )
    assert code == 1
    verdicts = {r["property"]: r["verdict"] for r in payload["reports"]}
    assert verdicts["P1"] == "corroborated"
    assert verdicts["P2"] == "violated"
    p2 = next(r for r in payload["reports"] if r["property"] == "P2")
    assert "witness" in p2
    assert len(p2["witness"]["instance"]["gambles"]) <= 3


def test_check_properties_eu_corroborated(capsys):
    code, payload = run_json(
        capsys,
        "check-properties", "--rule", "eu_max",
        "--props", "P2_intersection,L", "--budget", "150", "--seed", "1",
    )
    assert code == 0
    assert all(r["verdict"] == "corroborated" for r in payload["reports"])


def test_check_properties_bad_prop(capsys):
    code, payload = run_json(
        capsys,
        "check-properties", "--rule", "eu_max", "--props", "P99", "--budget", "1",
    )
    assert code == 2


def test_check_properties_rejects_budget_below_one(capsys):
    for budget in ("-5", "0"):
        code, payload = run_json(
            capsys,
            "check-properties", "--rule", "eu_max", "--props", "P1", "--budget", budget,
        )
        assert code == 2
        assert payload["type"] == "TreechoiceError"
        assert "instances_checked" not in json.dumps(payload)


def test_equiv_tree_with_itself(capsys):
    code, payload = run_json(capsys, "equiv", "--tree", INCOMP, "--tree2", INCOMP)
    assert code == 0
    assert payload["equivalent"] is True and payload["ev_equal"] is True


def test_equiv_space_mismatch_is_input_error(capsys):
    code, payload = run_json(capsys, "equiv", "--tree", INCOMP, "--tree2", LEAF)
    assert code == 2
    assert payload["type"] == "SpaceMismatch"


def test_equiv_same_space_different_gambles(capsys, tmp_path):
    variant = tmp_path / "variant.tree"
    variant.write_text(
        "omega a1 a2\nreward m1 = -1\ntree = leaf(m1)\n"
    )
    code, payload = run_json(capsys, "equiv", "--tree", INCOMP, "--tree2", str(variant))
    assert code == 1
    assert payload["equivalent"] is False
    assert payload["only_first"]


def test_export_dot(capsys):
    code, out = run(capsys, "export-dot", "--tree", LAKE)
    assert code == 0
    assert out.count("shape=box") == 4
    assert out.count("shape=circle") == 7
    assert out.count("shape=plaintext") == 12


def test_export_dot_with_solution(capsys):
    code, out = run(
        capsys,
        "export-dot", "--tree", INCOMP, "--solution", "--rule", "pointwise_dominance",
    )
    assert code == 0
    assert out.count("style=dashed") == 1


def test_export_dot_solution_needs_rule(capsys):
    code, payload = run_json(capsys, "export-dot", "--tree", INCOMP, "--solution")
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert run_command(["solve", "--rule", "eu_max"]) == 2  # missing --tree
    assert run_command(["not-a-command"]) == 2


def test_missing_file_exit_2(capsys):
    code, payload = run_json(
        capsys, "solve", "--tree", "/no/such/file", "--rule", "eu_max"
    )
    assert code == 2


def test_reports_are_deterministic(capsys):
    _, first = run(
        capsys, "solve", "--tree", LAKE, "--rule", "eu_max", "--context", LAKE_PROB
    )
    _, second = run(
        capsys, "solve", "--tree", LAKE, "--rule", "eu_max", "--context", LAKE_PROB
    )
    assert first == second


def cli_process(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "treechoice.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def test_closed_stdout_ends_quietly(tmp_path):
    leaves = ", ".join(f"leaf(r{i % 2})" for i in range(40))
    wide = tmp_path / "wide.tree"
    wide.write_text(
        "omega a1 a2\nreward r0 = 0\nreward r1 = 1\nevent A = a1\nevent Ac = a2\n"
        f"tree = chance(A: decision({leaves}), Ac: decision({leaves}))\n"
    )
    # 1,600 strategies: the --full report is far larger than a pipe buffer
    proc = cli_process(
        "solve", "--tree", str(wide), "--rule", "pointwise_dominance", "--full"
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    code = proc.wait(timeout=60)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert code == 2
    assert stderr == b""


def test_deep_nesting_is_an_input_error(tmp_path):
    deep = tmp_path / "deep.tree"
    deep.write_text(
        "omega a\nreward z = 0\ntree = " + "decision(" * 600 + "leaf(z)" + ")" * 600 + "\n"
    )
    proc = cli_process("solve", "--tree", str(deep), "--rule", "pointwise_dominance")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b""
    assert json.loads(out)["type"] == "RecursionError"
