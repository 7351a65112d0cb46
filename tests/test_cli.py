import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treechoice.cli import build_parser, run_command
from treechoice.textio import MAX_TREE_DEPTH

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"

INCOMP = str(FIXTURES / "incomparable.tree")
LAKE = str(FIXTURES / "lake.tree")
LEAF = str(FIXTURES / "leaf.tree")
CROSS = str(FIXTURES / "cross.tree")
LAKE_PROB = str(FIXTURES / "lake_uniform.prob")
INCOMP_PROB = str(FIXTURES / "incomparable_uniform.prob")
INCOMP_CREDAL = str(FIXTURES / "incomparable_credal.ctx")
OVERLAPPING = str(FIXTURES / "rejected" / "overlapping_events.tree")
WIDE = str(FIXTURES / "over_cap" / "wide_chance.tree")
ONE_GAMBLE = str(FIXTURES / "over_cap" / "one_gamble.tree")
PD = str(FIXTURES / "laws" / "pd.tree")


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
    # P1's premise (two gambles equal on the event) fires only now and then
    vacuous = {r["property"]: r["vacuous"] for r in payload["reports"]}
    assert 0 < vacuous["P1"] < 400
    assert 0 <= vacuous["P2"] <= p2["instances_checked"]
    # the shrink-step count follows the vacuous count in every report
    for report in payload["reports"]:
        keys = list(report)
        assert keys[keys.index("vacuous") + 1] == "shrink_steps"
    steps = {r["property"]: r["shrink_steps"] for r in payload["reports"]}
    assert steps["P1"] == 0 and steps["P2"] > 0


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
    assert (payload["error"], payload["type"]) == ("unknown property 'P99'", "UnknownReference")


def test_check_properties_rejects_budget_below_one(capsys):
    for budget in ("-5", "0"):
        code, payload = run_json(
            capsys,
            "check-properties", "--rule", "eu_max", "--props", "P1", "--budget", budget,
        )
        assert code == 2
        assert payload["type"] == "TreechoiceError"
        assert "instances_checked" not in json.dumps(payload)


def test_check_properties_rejects_credal_size_below_one(capsys):
    for size in ("-1", "0"):
        code, payload = run_json(
            capsys,
            "check-properties", "--rule", "maximality", "--props", "P1",
            "--budget", "1", "--credal-size", size,
        )
        assert code == 2
        assert payload["type"] == "TreechoiceError"
        assert "--credal-size" in payload["error"]


def test_check_properties_rejects_a_repeated_property(capsys):
    # the id and the name of one property count as the same property
    for props in ("P1,P1", "P2,L,P2", "P1,P1_conditioning"):
        code, payload = run_json(
            capsys,
            "check-properties", "--rule", "eu_max", "--props", props, "--budget", "1",
        )
        assert code == 2
        assert payload["type"] == "TreechoiceError"
        repeated = props.split(",")[0]
        assert payload["error"] == f"--props lists {repeated} more than once"


def test_check_properties_help_describes_every_option(capsys):
    code, out = run(capsys, "check-properties", "--help")
    assert code == 0
    text = " ".join(out.split())
    for option, words in (
        ("--budget BUDGET", "instances per property, >= 1"),
        ("--seed SEED", "draws the instances and rule contexts"),
        ("--credal-size CREDAL_SIZE", "size of each credal list, >= 1"),
    ):
        assert f"{option} {words}" in text, option


def test_context_without_a_state_names_the_missing_mass(capsys, tmp_path):
    missing = tmp_path / "missing.prob"
    missing.write_text("prob a1 = 1\n")
    outside = tmp_path / "outside.prob"
    outside.write_text("prob a1 = 1/2\nprob zz = 1/2\n")
    short = tmp_path / "short.prob"
    short.write_text("prob a1 = 1/2\nprob a2 = 1/3\n")
    zero = tmp_path / "zero.prob"
    zero.write_text("prob a1 = 0\nprob a2 = 1\n")
    negative = tmp_path / "negative.ctx"
    negative.write_text("credal {\nprob a1 = 1/2\nprob a2 = 1/2\n} {\nprob a1 = -1\nprob a2 = 2\n}\n")
    for context, error, kind in (
        (missing, "the mass for state 'a2' is missing", "UnknownReference"),
        (outside, "unknown reference: 'zz'", "UnknownReference"),
        (short, "masses must sum to one", "InvalidMassFunction"),
        (zero, "all state masses must be strictly positive", "InvalidMassFunction"),
        (negative, "all state masses must be strictly positive", "InvalidMassFunction"),
    ):
        code, payload = run_json(
            capsys, "solve", "--tree", INCOMP, "--rule", "eu_max", "--context", str(context)
        )
        assert code == 2
        assert (payload["error"], payload["type"]) == (error, kind)


def test_unexpected_exceptions_are_json_errors(capsys, monkeypatch):
    from treechoice import cli

    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "_cmd_equiv", broken)
    code, payload = run_json(capsys, "equiv", "--tree", INCOMP, "--tree2", INCOMP)
    assert code == 2
    assert payload == {"command": "equiv", "error": "'lost'", "type": "KeyError"}

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_equiv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_command(["equiv", "--tree", INCOMP, "--tree2", INCOMP])


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


def test_equiv_builds_each_gamble_set_once(capsys, tmp_path, monkeypatch):
    from treechoice import cli, trees

    variant = tmp_path / "variant.tree"
    variant.write_text(
        "omega a1 a2\nreward m1 = -1\nreward z = 0\nevent A = a1\nevent Ac = a2\n"
        "tree = decision(chance(A: leaf(z), Ac: leaf(m1)), leaf(m1))\n"
    )
    built = []

    def counted_gamb(tree, *args):
        built.append(tree)
        return gamb(tree, *args)

    gamb = trees.gamb
    monkeypatch.setattr(trees, "gamb", counted_gamb)
    monkeypatch.setattr(cli, "gamb", counted_gamb, raising=False)
    code, out = run(capsys, "equiv", "--tree", INCOMP, "--tree2", str(variant))
    assert code == 1 and len(built) == 2
    expected = {
        "command": "equiv",
        "equivalent": False,
        "ev_equal": True,
        "only_first": [["m2", "p2"], ["z", "z"]],
        "only_second": [["z", "m1"]],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_a_partition_error_names_its_node(capsys, tmp_path):
    overlap = tmp_path / "overlap.tree"
    overlap.write_text(
        "omega a b\nreward x = 0\nreward y = 1\nevent A = a\nevent AB = a b\n"
        "tree = chance(A: leaf(x), AB: leaf(y))\n"
    )
    code, payload = run_json(
        capsys, "solve", "--tree", str(overlap), "--rule", "pointwise_dominance"
    )
    assert code == 2
    assert payload == {
        "command": "solve",
        "error": "chance branch events must partition the space at node []",
        "type": "NotAPartition",
    }


@pytest.mark.parametrize(
    "command",
    [
        ("solve", "--rule", "pointwise_dominance"),
        ("solve", "--rule", "pointwise_dominance", "--method", "backward"),
        ("check-perfect", "--rule", "pointwise_dominance"),
        ("compare-backward", "--rule", "pointwise_dominance"),
        ("export-dot", "--rule", "pointwise_dominance", "--solution"),
        ("equiv", "--tree2", INCOMP),
    ],
)
def test_every_command_rejects_a_tree_whose_branch_events_overlap(capsys, command):
    code, payload = run_json(capsys, *command, "--tree", OVERLAPPING)
    assert code == 2
    assert payload == {
        "command": command[0],
        "error": "chance branch events must partition the space at node [1]",
        "type": "NotAPartition",
    }


def test_commands_answer_on_a_tree_past_the_strategy_cap(capsys):
    # 10^6 strategies over 729 distinct gambles: only `solve --full`, which
    # lists every strategy, refuses
    argv = ("--tree", WIDE, "--rule", "pointwise_dominance")
    code, payload = run_json(capsys, "solve", *argv)
    assert code == 0
    assert payload["stats"]["nfd_count"] == 10**6
    assert payload["stats"]["solution_count"] == 4096
    code, payload = run_json(capsys, "solve", *argv, "--full")
    assert code == 2 and payload["type"] == "EnumerationLimitExceeded"
    for weak in ((), ("--weak",)):
        code, payload = run_json(capsys, "check-perfect", *argv, *weak)
        assert code == 0 and payload["perfect"] and payload["nodes_checked"] == 31
    code, payload = run_json(capsys, "compare-backward", *argv)
    assert code == 0 and payload["equal"]
    code, _ = run(capsys, "export-dot", *argv, "--solution")
    assert code == 0
    code, payload = run_json(capsys, "equiv", "--tree", WIDE, "--tree2", WIDE)
    assert code == 0 and payload["equivalent"]


def test_check_perfect_answers_past_the_cap_when_the_pools_are_small(capsys):
    # 100,489 strategies, all with one gamble: the root solution cannot be
    # listed, but a perfect tree needs no member sets
    argv = ("--tree", ONE_GAMBLE, "--rule", "pointwise_dominance")
    code, payload = run_json(capsys, "check-perfect", *argv)
    assert code == 0
    assert (payload["perfect"], payload["nodes_checked"]) == (True, 637)
    code, payload = run_json(capsys, "solve", *argv)
    assert code == 2 and payload["type"] == "EnumerationLimitExceeded"


def test_check_perfect_and_compare_backward_on_the_law_fixtures(capsys):
    # pd.tree fails strong perfectness and passes the weak check, with
    # backward induction equal to the normal form solution
    argv = ("--tree", PD, "--rule", "pointwise_dominance")
    code, payload = run_json(capsys, "check-perfect", *argv)
    assert code == 1 and [v["node"] for v in payload["violations"]] == [[0]]
    code, payload = run_json(capsys, "check-perfect", *argv, "--weak")
    assert code == 0 and payload["perfect"]
    code, payload = run_json(capsys, "compare-backward", *argv)
    assert code == 0 and payload["equal"]


def test_solve_full_refuses_before_the_solver_runs(capsys, monkeypatch):
    from treechoice import cli

    calls = []
    monkeypatch.setattr(cli, "norm_opt", lambda *args: calls.append(args))
    code, payload = run_json(
        capsys, "solve", "--tree", WIDE, "--rule", "pointwise_dominance", "--full"
    )
    assert code == 2 and payload["type"] == "EnumerationLimitExceeded"
    assert calls == []


def test_the_consistency_check_is_not_an_assert():
    # python -O strips assert statements, not the constructor's check
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["solve", "--tree", OVERLAPPING, "--rule", "pointwise_dominance"]
    done = subprocess.run(
        [sys.executable, "-O", "-m", "treechoice.cli", *argv],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert json.loads(done.stdout)["type"] == "NotAPartition"


@pytest.mark.parametrize(
    "command",
    [("solve", "--method", "normal"), ("solve", "--method", "backward"), ("check-perfect",)],
)
def test_each_job_walks_its_tree_for_consistency_once(capsys, monkeypatch, command):
    from treechoice import generate, laws, solve, textio, trees

    walked = []

    def counted_validate(tree):
        walked.append(tree)
        return validate(tree)

    validate = trees.validate
    # every module binding, so that a call through any of them is counted
    for module in (trees, textio, solve, laws, generate):
        if getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counted_validate)
    code, _ = run(capsys, *command, "--tree", INCOMP, "--rule", "pointwise_dominance")
    # check-perfect finds the fixture's violation at node [0]
    assert code == (1 if command[0] == "check-perfect" else 0)
    assert len(walked) == 1


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


def test_an_unknown_rule_is_a_usage_error(capsys):
    for command in ("solve", "check-perfect", "compare-backward", "export-dot"):
        assert run_command([command, "--tree", INCOMP, "--rule", "nope"]) == 2
        assert "argument --rule: invalid choice: 'nope'" in capsys.readouterr().err
    assert run_command(["check-properties", "--rule", "nope", "--props", "P1"]) == 2
    assert "argument --rule: invalid choice: 'nope'" in capsys.readouterr().err


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


ALL_PROPS = "P1,P2,P3,P4,P5,P6,P7,P8,P9,P10,P11,L"

# sha256 of the whole stdout of `check-properties --rule <rule> --budget 30
# --seed 2011 --props <all twelve>`, recorded before the falsifier shared
# selections, literals and spaces; the exit code is 1 where a witness is found
CHECK_PROPERTIES_STDOUT = {
    "eu_max": (0, "a057604b253172a3654281657a0b1422ab98043e6cd60f3820acfce6c21b66c0"),
    "pointwise_dominance": (
        1,
        "3c1a9b7cdef4372cdce3b302be4061e3b8430ae4718b49f3b3a38eb431737b3f",
    ),
    "maximality": (1, "fa449a8cd9e8d41a73fe5020cda1ce8766ababc5d945e890ab9bb98e96c935e8"),
    "e_admissibility": (
        1,
        "da7b322ac26eb33d15bf0c8f0776d28c0be8cd3fbfcc490a9ccb7b9b2383fba0",
    ),
    "gamma_maximin": (1, "915e23225937f01081294bf22612385cf32549d7aee8ceca2cba6bc6601f321d"),
    "interval_dominance": (
        1,
        "1fbb8296e0978c00296342ad477a9523b63af2250eacf0291c344f402f59df88",
    ),
}


@pytest.mark.parametrize("rule", sorted(CHECK_PROPERTIES_STDOUT))
def test_check_properties_stdout_is_pinned_and_repeats_in_one_process(capsys, rule):
    argv = ("check-properties", "--rule", rule, "--budget", "30", "--seed", "2011")
    first = run(capsys, *argv, "--props", ALL_PROPS)
    # the literal cache and the shared spaces are warm for the second run
    second = run(capsys, *argv, "--props", ALL_PROPS)
    assert first == second
    code, out = first
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CHECK_PROPERTIES_STDOUT[rule]


def cli_process(*argv, recursion_limit=None):
    """The CLI in a child process; `recursion_limit` is set once the CLI is
    imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = ["-m", "treechoice.cli"]
    if recursion_limit is not None:
        limit = f"sys.setrecursionlimit({recursion_limit})"
        run = ["-c", f"import sys, treechoice.cli as cli; {limit}; cli.main()"]
    return subprocess.Popen(
        [sys.executable, *run, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


# pairs whose first job sets what the second must not inherit from the
# parser they share: a flag, a context, a usage error, a help request
INTERLEAVED_JOBS = [
    ("solve", "--full", "--tree", INCOMP, "--rule", "pointwise_dominance"),
    ("solve", "--tree", INCOMP, "--rule", "pointwise_dominance"),
    ("check-perfect", "--weak", "--tree", INCOMP, "--rule", "pointwise_dominance"),
    ("check-perfect", "--tree", INCOMP, "--rule", "pointwise_dominance"),
    ("solve", "--tree", LAKE, "--rule", "eu_max", "--context", LAKE_PROB),
    ("solve", "--tree", LAKE, "--rule", "eu_max"),
    ("solve", "--rule", "eu_max"),
    ("compare-backward", "--tree", INCOMP, "--rule", "pointwise_dominance"),
    ("check-perfect", "--help"),
    ("equiv", "--tree", LAKE, "--tree2", LAKE),
]


def test_jobs_in_one_process_answer_as_each_in_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    fresh = []
    for argv in INTERLEAVED_JOBS:
        proc = cli_process(*argv)
        out, _ = proc.communicate(timeout=60)
        fresh.append((proc.returncode, out.decode()))
    assert [code for code, _ in fresh] == [0, 0, 0, 1, 0, 2, 2, 0, 0, 0]
    assert [run(capsys, *argv) for argv in INTERLEAVED_JOBS] == fresh
    assert build_parser.cache_info().misses <= 1


EVERY_COMMAND = [
    ("solve", "--full", "--tree", INCOMP, "--rule", "pointwise_dominance"),
    ("solve", "--method", "backward", "--tree", LAKE, "--rule", "eu_max",
     "--context", LAKE_PROB),
    ("check-perfect", "--tree", INCOMP, "--rule", "maximality", "--context", INCOMP_CREDAL),
    ("compare-backward", "--tree", INCOMP, "--rule", "pointwise_dominance"),
    ("check-properties", "--rule", "maximality", "--props", ALL_PROPS, "--budget", "20"),
    ("equiv", "--tree", INCOMP, "--tree2", INCOMP),
    ("export-dot", "--tree", LAKE, "--solution", "--rule", "pointwise_dominance"),
]


def test_jobs_leave_no_reference_cycles_of_their_own(capsys):
    """What a job leaves for the cyclic collector outlives it until a
    collection; none of it may be the package's or argparse's (the json
    encoder's indent-mode closures are the standard library's own)."""
    build_parser()  # built once per process, not per job
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        codes = [run(capsys, *argv)[0] for argv in EVERY_COMMAND]
        gc.collect()
        kinds = {type(o) for o in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert codes == [0, 0, 1, 0, 1, 0, 0]
    ours = {f"{k.__module__}.{k.__qualname__}" for k in kinds}
    assert not {k for k in ours if k.split(".")[0] in ("treechoice", "argparse")}


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
    error = json.loads(out)
    assert error["type"] == "TreeSyntaxError"
    assert "nested deeper than the limit of 493" in error["error"]


def nest_document(head, depth):
    """`depth` nested `head` nodes (each with one child) over one leaf."""
    return (
        "omega a b\nreward z = 0\nevent E = a b\ntree = "
        + head * depth + "leaf(z)" + ")" * depth + "\n"
    )


@pytest.mark.parametrize("head", ["decision(", "chance(E: "])
def test_the_depth_limit_is_the_deepest_nest_the_solvers_and_the_check_handle(tmp_path, head):
    assert MAX_TREE_DEPTH == 493
    at_limit, deeper = tmp_path / "limit.tree", tmp_path / "deeper.tree"
    at_limit.write_text(nest_document(head, MAX_TREE_DEPTH))
    deeper.write_text(nest_document(head, MAX_TREE_DEPTH + 1))
    rule = ("--rule", "pointwise_dominance")
    commands = [
        ("solve", *rule),
        ("solve", "--method", "backward", *rule),
        ("check-perfect", *rule),
        ("check-perfect", "--weak", *rule),
        ("compare-backward", *rule),
        ("export-dot", "--solution", *rule),
        ("equiv", "--tree2", None),
    ]
    # at the limit: both solvers and the perfectness check; one deeper:
    # every command
    for path, count in ((at_limit, 3), (deeper, len(commands))):
        procs = [
            cli_process(*(str(path) if a is None else a for a in argv), "--tree", str(path))
            for argv in commands[:count]
        ]
        for argv, proc in zip(commands, procs):
            out, err = proc.communicate(timeout=120)
            assert err == b"", (argv, path)
            report = json.loads(out)
            if path == at_limit:
                assert proc.returncode == 0 and "error" not in report, (argv, report)
            else:
                assert proc.returncode == 2, (argv, report)
                assert report["type"] == "TreeSyntaxError", (argv, report)
                assert "nested deeper than the limit of 493" in report["error"]


@pytest.mark.parametrize("head", ["decision(", "chance(E: "])
def test_no_command_recurses_once_a_level(tmp_path, head):
    """Every command that reads a tree answers on the deepest nest allowed
    with the recursion limit cut to 120, far below its depth."""
    path = tmp_path / "limit.tree"
    path.write_text(nest_document(head, MAX_TREE_DEPTH))
    rule = ("--rule", "pointwise_dominance")
    commands = [
        ("solve", *rule),
        ("solve", "--method", "backward", *rule),
        ("check-perfect", *rule),
        ("compare-backward", *rule),
        ("export-dot", "--solution", *rule),
        ("equiv", "--tree2", str(path)),
    ]
    procs = [cli_process(*argv, "--tree", str(path), recursion_limit=120) for argv in commands]
    for argv, proc in zip(commands, procs):
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b""), (argv, out[-300:], err[-300:])


HEAD = "omega a b\nreward z = 0\nevent E = a b\n"
DEEPER = "decision(" * (MAX_TREE_DEPTH + 1) + "leaf(z)" + ")" * (MAX_TREE_DEPTH + 1)

# One malformed document per reader message, each with the error text and
# type that the recursive-descent reader reported for it.
MALFORMED_TREES = {
    "a name": (
        HEAD + "tree = leaf()\n", "line 4, col 13: expected a name", "TreeSyntaxError"
    ),
    "an open paren": (
        HEAD + "tree = leaf z\n", "line 4, col 13: expected '('", "TreeSyntaxError"
    ),
    "a colon": (
        HEAD + "tree = chance(E leaf(z))\n", "line 4, col 17: expected ':'", "TreeSyntaxError"
    ),
    "a close paren": (
        HEAD + "tree = decision(leaf(z) leaf(z))\n",
        "line 4, col 25: expected ')'",
        "TreeSyntaxError",
    ),
    "a known head": (
        HEAD + "tree = node(leaf(z))\n",
        "line 4, col 12: expected leaf/decision/chance, got 'node'",
        "TreeSyntaxError",
    ),
    "no trailing input": (
        HEAD + "tree = leaf(z))  \n",
        "line 4, col 15: trailing input after tree expression",
        "TreeSyntaxError",
    ),
    "the depth limit": (
        HEAD + f"tree = {DEEPER}\n",
        "line 4, col 4453: decision/chance nodes nested deeper than the limit of 493",
        "TreeSyntaxError",
    ),
    "an expression": (
        HEAD + "tree =   # nothing here\n",
        "line 4, col 7: empty tree expression",
        "TreeSyntaxError",
    ),
    "a tree line": (
        HEAD + "tree leaf(z)\n", "line 4, col 1: expected `tree = <expr>`", "TreeSyntaxError"
    ),
    "a reward line": (
        "omega a b\nreward z 0\ntree = leaf(z)\n",
        "line 2, col 1: expected `reward <name> = <value>`",
        "TreeSyntaxError",
    ),
    "an event line": (
        HEAD + "event F =\ntree = leaf(z)\n",
        "line 4, col 1: expected `event <name> = <label>+`",
        "TreeSyntaxError",
    ),
    "a rational": (
        "omega a b\nreward z = 1/0\ntree = leaf(z)\n",
        "line 2, col 1: not a rational: '1/0'",
        "TreeSyntaxError",
    ),
    "a root event": (
        HEAD + "root_event\ntree = leaf(z)\n",
        "line 4, col 1: expected `root_event <event-name>`",
        "TreeSyntaxError",
    ),
    "a state": (
        "omega\nreward z = 0\ntree = leaf(z)\n",
        "line 1, col 1: omega needs at least one state",
        "TreeSyntaxError",
    ),
    "a directive": (
        HEAD + "blorp x\ntree = leaf(z)\n",
        "line 4, col 1: unknown directive 'blorp'",
        "TreeSyntaxError",
    ),
    "an omega line": (
        "reward z = 0\ntree = leaf(z)\n",
        "line 1, col 1: missing omega declaration",
        "TreeSyntaxError",
    ),
    "a tree": (HEAD, "line 1, col 1: missing tree expression", "TreeSyntaxError"),
    "one reward": (
        HEAD + "reward z = 1\ntree = leaf(z)\n", "duplicate definition: 'z'", "DuplicateDefinition"
    ),
    "one event": (
        HEAD + "event E = a\ntree = leaf(z)\n", "duplicate definition: 'E'", "DuplicateDefinition"
    ),
    "one omega": (
        HEAD + "omega a\ntree = leaf(z)\n", "duplicate definition: 'omega'", "DuplicateDefinition"
    ),
    "one root event": (
        HEAD + "root_event E\nroot_event E\ntree = leaf(z)\n",
        "duplicate definition: 'root_event'",
        "DuplicateDefinition",
    ),
    "one tree": (
        HEAD + "tree = leaf(z)\ntree = leaf(z)\n",
        "duplicate definition: 'tree'",
        "DuplicateDefinition",
    ),
    # references resolve in preorder, the root event first and each
    # branch's event before its subtree
    "a known event": (
        HEAD + "tree = chance(BAD: leaf(unknown))\n",
        "unknown reference: 'BAD'",
        "UnknownReference",
    ),
    "a known reward": (
        HEAD + "tree = decision(leaf(unknown), chance(BAD: leaf(z)))\n",
        "unknown reference: 'unknown'",
        "UnknownReference",
    ),
    "a known root event": (
        HEAD + "root_event F\ntree = chance(BAD: leaf(unknown))\n",
        "unknown reference: 'F'",
        "UnknownReference",
    ),
    # the tree line is checked where it stands, before the lines after it
    "the tree line first": (
        HEAD + "tree = leaf(\nblorp\n", "line 4, col 13: expected a name", "TreeSyntaxError"
    ),
}

MALFORMED_CONTEXTS = {
    "a prob line": (
        "prob a1 =\n", "line 1, col 1: expected `prob <label> = p/q`", "TreeSyntaxError"
    ),
    "a rational prob": (
        "prob a1 = one half\n", "line 1, col 1: not a rational: 'one half'", "TreeSyntaxError"
    ),
    "one prob": (
        "prob a1 = 1/2\nprob a1 = 1/2\n", "duplicate definition: 'a1'", "DuplicateDefinition"
    ),
    "one prob in a block": (
        "credal {\nprob a1 = 1/2\n} {\nprob a2 = 1\nprob a2 = 0\n}\n",
        "duplicate definition: 'a2'",
        "DuplicateDefinition",
    ),
    "a known line": (
        "prob a1 = 1/2\nprobability a2 = 1/2\n",
        "line 2, col 1: unexpected line 'probability a2 = 1/2'",
        "TreeSyntaxError",
    ),
    "a closed block": (
        "credal {\nprob a1 = 1\n", "line 2, col 1: unterminated credal block", "TreeSyntaxError"
    ),
}


def error_report(error, kind):
    return '{\n  "command": "solve",\n  "error": "' + error + '",\n  "type": "' + kind + '"\n}\n'


@pytest.mark.parametrize("name", MALFORMED_TREES)
def test_malformed_tree_reports_stay_byte_identical(capsys, tmp_path, name):
    document, error, kind = MALFORMED_TREES[name]
    path = tmp_path / "malformed.tree"
    path.write_text(document)
    assert run(capsys, "solve", "--tree", str(path), "--rule", "pointwise_dominance") == (
        2, error_report(error, kind)
    )


@pytest.mark.parametrize("name", MALFORMED_CONTEXTS)
def test_malformed_context_reports_stay_byte_identical(capsys, tmp_path, name):
    document, error, kind = MALFORMED_CONTEXTS[name]
    path = tmp_path / "malformed.ctx"
    path.write_text(document)
    argv = ("solve", "--tree", INCOMP, "--rule", "maximality", "--context", str(path))
    assert run(capsys, *argv) == (2, error_report(error, kind))


# The JSON-printing fixture commands of the CI step that runs the CLI under
# `python -O`, and a falsifier report with witnesses for every rule.
FIXTURE_COMMANDS = [
    ["check-perfect", "--tree", INCOMP, "--rule", "pointwise_dominance"],
    ["check-perfect", "--tree", INCOMP, "--rule", "maximality", "--context", INCOMP_CREDAL],
    ["check-perfect", "--weak", "--tree", INCOMP, "--rule", "pointwise_dominance"],
    ["check-perfect", "--weak", "--tree", INCOMP, "--rule", "maximality",
     "--context", INCOMP_CREDAL],
    ["equiv", "--tree", LAKE, "--tree2", LAKE],
    ["equiv", "--tree", LAKE, "--tree2", CROSS],
    ["solve", "--tree", INCOMP, "--rule", "pointwise_dominance", "--method", "backward"],
    ["solve", "--full", "--tree", INCOMP, "--rule", "pointwise_dominance"],
    ["solve", "--tree", LAKE, "--rule", "eu_max", "--context", LAKE_PROB],
    ["compare-backward", "--tree", INCOMP, "--rule", "pointwise_dominance"],
    *(
        ["compare-backward", "--tree", INCOMP, "--rule", rule, "--context", INCOMP_CREDAL]
        for rule in ("maximality", "gamma_maximin", "interval_dominance")
    ),
    ["check-perfect", "--tree", ONE_GAMBLE, "--rule", "pointwise_dominance"],
    ["check-perfect", "--tree", PD, "--rule", "pointwise_dominance"],
    ["solve", "--tree", WIDE, "--rule", "pointwise_dominance"],
    ["solve", "--full", "--rule", "pointwise_dominance", "--tree", WIDE],
    ["solve", "--rule", "pointwise_dominance", "--tree", OVERLAPPING],
    *(
        ["check-properties", "--rule", rule, "--budget", "20",
         "--props", "P1,P2,P3,P4,P5,P6,P7,P8,P9,P10,P11,L"]
        for rule in ("eu_max", "pointwise_dominance", "maximality", "e_admissibility",
                     "gamma_maximin", "interval_dominance")
    ),
]


def test_reports_print_as_json_dumps_with_indent_two(capsys, monkeypatch):
    from treechoice import cli

    reports = []

    def recorded(report):
        reports.append(report)
        return cli_json_text(report)

    cli_json_text = cli.json_text
    monkeypatch.setattr(cli, "json_text", recorded)
    codes = set()
    for argv in FIXTURE_COMMANDS:
        codes.add(run_command(argv))
        out = capsys.readouterr().out
        assert out == json.dumps(reports[-1], indent=2) + "\n", argv
    assert len(reports) == len(FIXTURE_COMMANDS) and codes == {0, 1, 2}
