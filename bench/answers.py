"""Answer digests and correctness checks for benchmark jobs.

A digest covers what a job decided, never the raw report bytes, so counters
added to the reports later do not change it:

- solve: exit code and the solution's arc paths
- check-perfect: exit code, `perfect` and the violating nodes
- check-properties: exit code and, per property, the verdict,
  `instances_checked` and the shrunk witness size (states, gambles)

A job fails when it raises, exits 2, prints something that is not a report,
contradicts itself (exit code against verdict), or gives an answer that
differs from the reference recorded on the seed code for the same workload
and workload seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from workloads import BACKWARD_EXACT, Job, original_path


@dataclass
class JobResult:
    job: Job
    seconds: float
    exit_code: Optional[int]
    stdout: str
    error: Optional[str] = None
    scaled: float = 0.0  # seconds at the reference speed of the host
    answer: Optional[dict] = None
    digest: str = ""
    failure: str = ""


def _witness_size(instance: dict) -> list[int]:
    gambles = 0
    for key in ("gambles", "subset", "others"):
        gambles += len(instance.get(key, ()))
    gambles += 1 if "other" in instance else 0
    gambles += sum(len(part) for part in instance.get("parts", ()))
    return [len(instance["space"]), gambles]


def _solution(report: dict, order: dict) -> list:
    """Solution members as sorted arc paths of the generated tree."""
    return sorted(
        sorted(original_path(order, arc) for arc in member)
        for member in report["solution"]
    )


def answer_of(result: JobResult, budget: int, order: dict) -> dict:
    """The job's answer, with node paths mapped back to the generated tree
    through `order` (see `workloads.present`); raises ValueError when the job
    did not end in a well-formed, self-consistent report."""
    if result.error is not None:
        raise ValueError(f"raised {result.error}")
    code = result.exit_code
    report = json.loads(result.stdout)
    if code == 2 or "error" in report:
        raise ValueError(f"exit {code}: {report.get('error')}")
    kind = result.job.kind
    if kind in ("solve_normal", "solve_backward"):
        if code != 0 or not report["solution"]:
            raise ValueError(f"solve ended with exit {code}")
        return {"exit": code, "solution": _solution(report, order)}
    if kind == "check_perfect":
        if code != (0 if report["perfect"] else 1):
            raise ValueError(f"exit {code} disagrees with perfect={report['perfect']}")
        if result.job.rule == "eu_max" and not report["perfect"]:
            raise ValueError("eu_max is subtree perfect, but a violation was reported")
        return {
            "exit": code,
            "perfect": report["perfect"],
            "violations": sorted(
                original_path(order, v["node"]) for v in report["violations"]
            ),
        }
    entries = []
    for entry in report["reports"]:
        violated = entry["verdict"] == "violated"
        if violated != ("witness" in entry):
            raise ValueError(f"{entry['id']}: verdict and witness disagree")
        if not violated and entry["instances_checked"] != budget:
            raise ValueError(f"{entry['id']}: corroborated below the budget")
        entries.append(
            {
                "property": entry["property"],
                "verdict": entry["verdict"],
                "instances_checked": entry["instances_checked"],
                "witness_size": _witness_size(entry["witness"]["instance"])
                if violated
                else None,
            }
        )
    if code != (1 if any(e["verdict"] == "violated" for e in entries) else 0):
        raise ValueError(f"exit {code} disagrees with the verdicts")
    return {"exit": code, "reports": entries}


def digest_of(answer: dict) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_pass(
    results: list[JobResult],
    inputs,
    reference: Optional[dict[str, str]],
    first: Optional[dict[str, str]],
) -> dict:
    """Fill in each result's answer, digest and failure. `reference` holds the
    digests recorded on the seed code, `first` those of this run's first pass.

    Returns, per rule, the (tree, rule) pairs whose normal form and backward
    induction solutions differ, with both solution sizes. For the rules in
    BACKWARD_EXACT a divergence is a failure of the backward job; for the
    others it is the paper's expected behaviour and only recorded.
    """
    for result in results:
        try:
            order = inputs.orders.get(result.job.tree, {})
            result.answer = answer_of(result, inputs.budget, order)
        except (ValueError, KeyError, TypeError) as exc:
            result.failure = f"{type(exc).__name__}: {exc}"
            continue
        result.digest = digest_of(result.answer)
        key = result.job.key
        if reference is not None and reference.get(key) != result.digest:
            result.failure = "answer differs from the reference"
        elif first is not None and first.get(key) != result.digest:
            result.failure = "answer differs from the first pass"

    divergent: dict[str, list] = {}
    solved = {
        (r.job.pair, r.job.kind): r for r in results if r.answer is not None
    }
    for (pair, kind), backward in solved.items():
        normal = solved.get((pair, "solve_normal"))
        if kind != "solve_backward" or normal is None:
            continue
        if normal.answer["solution"] != backward.answer["solution"]:
            rule = backward.job.rule
            divergent.setdefault(rule, []).append(
                [pair, len(normal.answer["solution"]), len(backward.answer["solution"])]
            )
            if rule in BACKWARD_EXACT and not backward.failure:
                backward.failure = "backward induction differs from the normal form"
    return divergent
