"""Inputs of the benchmark workloads.

Every workload is a list of CLI jobs (argument vectors for
`treechoice.cli.run_command`) over tree and context files written into a work
directory. Two seeds determine the inputs:

- the workload seed (default 20110916) generates the trees and is the
  falsifier's `check-properties --seed`;
- the run seed draws how the inputs are presented to the program: on
  `corpus`, the order of the states of each tree's possibility space and of
  the children of every node; on `ladder` and `falsify`, the order of the
  jobs. The ladder's three trees are presented in an order drawn from the
  workload seed, because a maximality solve's time depends on the order of
  the strategies (1.5 s or 3.9 s on the 1,950-strategy tree for two
  presentations); over the corpus's 200 trees such differences average out.

A presentation changes the bytes of every tree file and the node paths, but
not the decision problem: the solution sets, mapped back to the generated
tree's paths, are the same for every run seed, so one reference answer per
workload seed checks every run. (Drawing fresh inputs per run seed instead
made one corpus pass take from 15 s to 25 s over five seeds, and one ladder
pass from 13 s to 28 s over four.)

- `corpus`: the acceptance corpus, `tree_corpus(CORPUS_CONFIG, seed, 200)`,
  six rules per tree with the contexts the acceptance suite draws, and jobs
  `solve --method normal`, `solve --method backward` and `check-perfect`.
- `ladder`: three large trees. A rung takes the first index `i` of
  `subseed(seed, "ladder", i)` whose tree's strategy count falls in the
  rung's band; at the default seed i = 45, 32 and 90 (1,950, 10,920 and
  96,000 strategies). Jobs: both solvers, all rules on the first two rungs and
  `eu_max` on the largest.
- `falsify`: `check-properties` for every property and rule, in an order
  drawn from the run seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from treechoice import generate
from treechoice.model import PossibilitySpace
from treechoice.props import PropertyId
from treechoice.textio import ContextDocument, document_for, serialize_context
from treechoice.trees import Chance, Decision, DecisionTree, Leaf, gamb, nfd_count

RULES = (
    "eu_max",
    "pointwise_dominance",
    "maximality",
    "e_admissibility",
    "gamma_maximin",
    "interval_dominance",
)
# Rules whose normal form and backward induction solutions must agree
# (asserted by the acceptance suite); the other two may diverge.
BACKWARD_EXACT = ("eu_max", "pointwise_dominance", "maximality", "e_admissibility")

CORPUS_CONFIG = generate.GenConfig(max_depth=4, omega_range=(2, 8), nfd_ceiling=400)
CORPUS_TREES = 200
LADDER_CONFIG = generate.GenConfig(
    max_depth=6, max_children=3, omega_range=(6, 10), nfd_ceiling=100_000
)
LADDER_SEARCH_LIMIT = 50_000
FALSIFY_BUDGET = 200


@dataclass(frozen=True)
class Rung:
    name: str
    strategies: tuple[int, int]
    rules: tuple[str, ...]


LADDER = (
    Rung("2k", (1_500, 2_500), RULES),
    Rung("10k", (8_000, 12_000), RULES),
    Rung("100k", (80_000, 100_000), ("eu_max",)),
)
SMOKE_LADDER = (
    Rung("tiny1", (20, 60), RULES),
    Rung("tiny2", (100, 300), RULES),
    Rung("tiny3", (400, 1_000), ("eu_max",)),
)
SMOKE_CORPUS_TREES = 8
SMOKE_FALSIFY_BUDGET = 5


@dataclass(frozen=True)
class Job:
    """One CLI call. `key` names it in answer references; `pair` groups the
    normal and backward solve of one (tree, rule)."""

    key: str
    kind: str
    rule: str
    argv: tuple[str, ...]
    index: int
    tree: str = ""
    pair: str = ""


@dataclass
class Inputs:
    jobs: list[Job]
    record: dict
    budget: int = 0
    # per tree: presented node path -> original index of each of its children
    orders: dict[str, dict[tuple, tuple]] = field(default_factory=dict)
    # the tree and context files the jobs read, by path
    files: dict[Path, str] = field(default_factory=dict)

    def write_files(self) -> None:
        for path, text in self.files.items():
            path.write_text(text)

    def warm_up_jobs(self) -> list[Job]:
        """The first job of each kind in generation order (the first tree's),
        the same for every run seed."""
        first: dict[str, Job] = {}
        for job in sorted(self.jobs, key=lambda job: job.index):
            first.setdefault(job.kind, job)
        return list(first.values())


def present(tree: DecisionTree, rng: random.Random):
    """The same decision problem with its states and every node's children in
    an order drawn from `rng`, and the map back: `order[path][i]` is the
    original index of child `i` of the node at presented path `path`."""
    states = list(tree.space.states)
    rng.shuffle(states)
    space = PossibilitySpace(tuple(states))
    order: dict[tuple, tuple] = {}

    def moved(event):
        return space.event(event.labels())

    def build(node, path):
        if isinstance(node, Leaf):
            return node
        children = node.children if isinstance(node, Decision) else node.branches
        perm = list(range(len(children)))
        rng.shuffle(perm)
        order[path] = tuple(perm)
        if isinstance(node, Decision):
            return Decision(
                tuple(build(children[j], path + (i,)) for i, j in enumerate(perm))
            )
        return Chance(
            tuple(
                (moved(children[j][0]), build(children[j][1], path + (i,)))
                for i, j in enumerate(perm)
            )
        )

    root = build(tree.root, ())
    return DecisionTree(space, root, moved(tree.root_event)), order


def original_path(order: dict[tuple, tuple], path) -> list[int]:
    original, prefix = [], ()
    for index in path:
        original.append(order[prefix][index])
        prefix += (index,)
    return original


def _context_document(context, space) -> ContextDocument:
    def masses(p):
        return dict(zip(space.states, p.masses))

    return ContextDocument(
        probability=None if context.probability is None else masses(context.probability),
        credal=None if context.credal is None else tuple(masses(p) for p in context.credal),
    )


def _tree_jobs(inputs: Inputs, workdir: Path, name: str, tree, rng, rules, context_rng, kinds):
    """Add a presentation of the tree and one context file per rule to the
    input files, and add its jobs. `context_rng(rule)` gives the rng that draws the rule's
    context over the generated tree."""
    shown, inputs.orders[name] = present(tree, rng)
    tree_path = workdir / f"{name}.tree"
    inputs.files[tree_path] = document_for(shown).serialize()
    rewards = generate.reward_table_for_tree(tree)
    for rule_name in rules:
        rule = generate.seeded_rule_policy(rule_name)(
            tree.space, rewards, context_rng(rule_name)
        )
        argv = ["--tree", str(tree_path), "--rule", rule_name]
        document = _context_document(rule.context, tree.space)
        if document.probability is not None or document.credal is not None:
            context_path = workdir / f"{name}.{rule_name}.ctx"
            inputs.files[context_path] = serialize_context(document)
            argv += ["--context", str(context_path)]
        pair = f"{name}/{rule_name}"
        for kind in kinds:
            if kind == "solve_normal":
                full = ["solve", *argv, "--method", "normal"]
            elif kind == "solve_backward":
                full = ["solve", *argv, "--method", "backward"]
            else:
                full = ["check-perfect", *argv]
            inputs.jobs.append(
                Job(f"{pair}/{kind}", kind, rule_name, tuple(full), len(inputs.jobs), name, pair)
            )


def _tree_record(trees) -> dict:
    sizes = [t.space.size for t in trees]
    return {
        "trees": len(trees),
        "strategies": sum(nfd_count(t) for t in trees),
        "distinct_gambles": sum(len(gamb(t)) for t in trees),
        "omega_range": [min(sizes), max(sizes)],
    }


def corpus_inputs(workload_seed: int, seed: int, workdir: Path, smoke: bool) -> Inputs:
    count = SMOKE_CORPUS_TREES if smoke else CORPUS_TREES
    trees = generate.tree_corpus(CORPUS_CONFIG, workload_seed, count)
    inputs = Inputs([], _tree_record(trees))
    rng = generate.rng_for("presentation", seed)
    for index, tree in enumerate(trees):
        _tree_jobs(
            inputs,
            workdir,
            f"t{index:03d}",
            tree,
            rng,
            RULES,
            # the contexts the acceptance suite draws for this tree
            lambda rule, index=index: generate.rng_for("acceptance", rule, index),
            ("solve_normal", "solve_backward", "check_perfect"),
        )
    inputs.record["jobs"] = len(inputs.jobs)
    return inputs


def _find_rung(workload_seed: int, rung: Rung):
    for index in range(LADDER_SEARCH_LIMIT):
        tree = generate.random_consistent_tree(
            LADDER_CONFIG, generate.subseed(workload_seed, "ladder", index)
        )
        if rung.strategies[0] <= nfd_count(tree) <= rung.strategies[1]:
            return index, tree
    raise RuntimeError(
        f"no ladder tree for rung {rung.name} within {LADDER_SEARCH_LIMIT} indices"
    )


def ladder_inputs(workload_seed: int, seed: int, workdir: Path, smoke: bool) -> Inputs:
    rungs = SMOKE_LADDER if smoke else LADDER
    found = [_find_rung(workload_seed, rung) for rung in rungs]
    inputs = Inputs([], _tree_record([tree for _, tree in found]))
    inputs.record["rungs"] = [
        {
            "rung": rung.name,
            "index": index,
            "strategies": nfd_count(tree),
            "distinct_gambles": len(gamb(tree)),
            "states": tree.space.size,
        }
        for rung, (index, tree) in zip(rungs, found)
    ]
    # presented as drawn from the workload seed (see the module docstring)
    rng = generate.rng_for("presentation", workload_seed)
    for rung, (index, tree) in zip(rungs, found):
        _tree_jobs(
            inputs,
            workdir,
            f"rung-{rung.name}",
            tree,
            rng,
            rung.rules,
            lambda rule, index=index: generate.rng_for("ladder", rule, index),
            ("solve_normal", "solve_backward"),
        )
    generate.rng_for("presentation", seed).shuffle(inputs.jobs)
    inputs.record["jobs"] = len(inputs.jobs)
    return inputs


def falsify_inputs(workload_seed: int, seed: int, workdir: Path, smoke: bool) -> Inputs:
    budget = SMOKE_FALSIFY_BUDGET if smoke else FALSIFY_BUDGET
    jobs = [
        Job(
            f"{prop.value}/{rule}",
            "check_properties",
            rule,
            (
                "check-properties",
                "--rule", rule,
                "--props", prop.value,
                "--budget", str(budget),
                "--seed", str(workload_seed),
            ),
            index,
        )
        for index, (rule, prop) in enumerate(
            (rule, prop) for rule in RULES for prop in PropertyId
        )
    ]
    generate.rng_for("presentation", seed).shuffle(jobs)
    record = {"trees": 0, "properties": len(PropertyId), "jobs": len(jobs)}
    return Inputs(jobs, record, budget=budget)


BUILDERS = {"corpus": corpus_inputs, "ladder": ladder_inputs, "falsify": falsify_inputs}


def build_inputs(workload: str, workload_seed: int, seed: int, workdir: Path, smoke: bool) -> Inputs:
    """The workload's inputs; `Inputs.write_files` writes the files its jobs read."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](workload_seed, seed, workdir, smoke)
