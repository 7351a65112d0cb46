"""Command-line surface.

Exit codes: 0 = success / corroborated, 1 = violation or divergence found
(witness in the report), 2 = usage or input error, including a tree nested
deeper than `textio.MAX_TREE_DEPTH`, a stdout closed before the report was
written, and any unexpected exception (reported with its type name).
Reports are JSON with stable key order, printed to stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional

from .errors import TreechoiceError
from .generate import seeded_rule_policy
from .laws import check_subtree_perfectness, falsify_property
from .props import PropertyId
from .rules import ChoiceContext, ChoiceRule, RULES, make_rule
from .solve import back_opt, induced_gambles, norm_opt
from .textio import (
    TreeDocument,
    event_json,
    export_dot,
    gamble_set_json,
    instance_json,
    json_text,
    jsonable,
    member_json,
    parse_context_file,
    parse_tree_file,
    solution_json,
)
from .trees import nfd, strategically_equivalent


def _load_document(path: str) -> TreeDocument:
    return parse_tree_file(Path(path).read_text())


def _build_rule(name: str, doc: TreeDocument, context_path: Optional[str]) -> ChoiceRule:
    if context_path is None:
        context = ChoiceContext(utilities=doc.rewards)
    else:
        context_doc = parse_context_file(Path(context_path).read_text())
        context = context_doc.bind(doc.space, doc.rewards)
    return make_rule(name, context)


def _print(report: dict) -> None:
    print(json_text(report))


def _cmd_solve(args) -> int:
    doc = _load_document(args.tree)
    rule = _build_rule(args.rule, doc, args.context)
    # nfd refuses a tree past the cap: list first, so a refusal costs no solve
    members = nfd(doc.tree) if args.full else None
    solver = back_opt if args.method == "backward" else norm_opt
    report = solver(doc.tree, rule)
    payload = {
        "command": "solve",
        "method": report.method,
        "rule": rule.name,
        "ev": event_json(doc.tree.root_event),
        "solution": solution_json(report.solution),
        "induced_gambles": gamble_set_json(report.induced),
        "stats": jsonable(report.stats),
    }
    if members is not None:
        payload["nfd"] = [member_json(m) for m in members]
    _print(payload)
    return 0


def _cmd_check_perfect(args) -> int:
    doc = _load_document(args.tree)
    rule = _build_rule(args.rule, doc, args.context)
    report = check_subtree_perfectness(doc.tree, rule, weak=args.weak)
    violations = [
        {
            "node": list(doc.tree.path_of(c.node)),
            "expected": solution_json(c.subtree_solution),
            "actual": solution_json(c.restricted),
            "expected_gambles": gamble_set_json(induced_gambles(c.subtree_solution)),
            "actual_gambles": gamble_set_json(induced_gambles(c.restricted)),
        }
        for c in report.violations()
    ]
    _print(
        {
            "command": "check-perfect",
            "rule": rule.name,
            "weak": report.weak,
            "perfect": report.perfect,
            "nodes_checked": len(report.comparisons),
            "violations": violations,
        }
    )
    return 0 if report.perfect else 1


def _cmd_compare_backward(args) -> int:
    doc = _load_document(args.tree)
    rule = _build_rule(args.rule, doc, args.context)
    normal = norm_opt(doc.tree, rule)
    backward = back_opt(doc.tree, rule)
    only_normal = normal.solution - backward.solution
    only_backward = backward.solution - normal.solution
    equal = not only_normal and not only_backward
    _print(
        {
            "command": "compare-backward",
            "rule": rule.name,
            "equal": equal,
            "normal_count": len(normal.solution),
            "backward_count": len(backward.solution),
            "only_normal": solution_json(only_normal),
            "only_backward": solution_json(only_backward),
        }
    )
    return 0 if equal else 1


def _cmd_check_properties(args) -> int:
    props = [PropertyId.parse(p.strip()) for p in args.props.split(",") if p.strip()]
    if not props:
        raise TreechoiceError("no properties given")
    for index, prop in enumerate(props):
        if prop in props[:index]:
            raise TreechoiceError(f"--props lists {prop.value} more than once")
    if args.budget < 1:
        raise TreechoiceError(f"--budget must be at least 1, got {args.budget}")
    if args.credal_size < 1:
        raise TreechoiceError(
            f"--credal-size must be at least 1, got {args.credal_size}"
        )
    policy = seeded_rule_policy(args.rule, credal_size=args.credal_size)
    reports = []
    any_violated = False
    for prop in props:
        report = falsify_property(prop, policy, budget=args.budget, seed=args.seed)
        entry = {
            "property": prop.value,
            "id": prop.name,
            "rule": report.rule_name,
            "instances_checked": report.instances_checked,
            "vacuous": report.vacuous,
            "shrink_steps": report.shrink_steps,
            "verdict": report.verdict,
        }
        if report.witness is not None:
            entry["witness"] = {
                "instance": instance_json(report.witness.instance),
                "rule": jsonable(report.witness.rule),
                "detail": jsonable(report.witness.detail),
            }
            any_violated = True
        reports.append(entry)
    _print(
        {
            "command": "check-properties",
            "rule": args.rule,
            "budget": args.budget,
            "seed": args.seed,
            "reports": reports,
        }
    )
    return 1 if any_violated else 0


def _cmd_equiv(args) -> int:
    doc1 = _load_document(args.tree)
    doc2 = _load_document(args.tree2)
    verdict = strategically_equivalent(doc1.tree, doc2.tree)
    payload = {
        "command": "equiv",
        "equivalent": verdict.gambles_equal,
        "ev_equal": verdict.ev_equal,
    }
    if not verdict.gambles_equal:
        first, second = verdict.first, verdict.second
        payload["only_first"] = gamble_set_json(first.difference(second))
        payload["only_second"] = gamble_set_json(second.difference(first))
    _print(payload)
    return 0 if verdict.gambles_equal else 1


def _cmd_export_dot(args) -> int:
    doc = _load_document(args.tree)
    solution = None
    if args.solution:
        if not args.rule:
            raise TreechoiceError("--solution needs --rule (and --context if the rule does)")
        rule = _build_rule(args.rule, doc, args.context)
        solution = norm_opt(doc.tree, rule).solution
    sys.stdout.write(export_dot(doc.tree, rewards=doc.rewards, solution=solution))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treechoice",
        description="Solve finite decision trees under set-valued choice rules "
        "and check the solver laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tree_rule(p, context=True):
        p.add_argument("--tree", required=True, help="tree document path")
        p.add_argument("--rule", required=True, choices=sorted(RULES))
        if context:
            p.add_argument("--context", help="context file (probability / credal)")

    p = sub.add_parser("solve", help="compute the optimal strategies")
    add_tree_rule(p)
    p.add_argument("--method", choices=["normal", "backward"], default="normal")
    p.add_argument("--full", action="store_true", help="embed the full strategy enumeration")

    p = sub.add_parser("check-perfect", help="check subtree perfectness")
    add_tree_rule(p)
    p.add_argument("--weak", action="store_true", help="inclusion instead of equality")

    p = sub.add_parser("compare-backward", help="backward induction vs normal form")
    add_tree_rule(p)

    p = sub.add_parser("check-properties", help="falsify choice-function properties")
    p.add_argument("--rule", required=True, choices=sorted(RULES))
    p.add_argument("--props", required=True, help="comma-separated ids, e.g. P1,P2,L")
    p.add_argument("--budget", type=int, default=1000, help="instances per property, >= 1")
    p.add_argument("--seed", type=int, default=0, help="draws the instances and rule contexts")
    p.add_argument("--credal-size", type=int, default=2, help="size of each credal list, >= 1")

    p = sub.add_parser("equiv", help="strategic equivalence of two trees")
    p.add_argument("--tree", required=True)
    p.add_argument("--tree2", required=True)

    p = sub.add_parser("export-dot", help="Graphviz export")
    p.add_argument("--tree", required=True)
    p.add_argument("--solution", action="store_true", help="mark pruned arcs")
    p.add_argument("--rule", choices=sorted(RULES))
    p.add_argument("--context")

    return parser


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        # by name per call: the parser outlives any later patch of a handler
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except BrokenPipeError:
        raise  # stdout is gone: no error report can reach it
    except Exception as exc:  # input errors, and any defect: never a traceback
        _print({"command": args.command, "error": str(exc), "type": type(exc).__name__})
        return 2


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at
        # interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
