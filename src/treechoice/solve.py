"""Normal form and backward-induction solvers, extensive-form extraction,
and the normal/extensive equivalence check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import EmptySolution
from .model import Gamble, GambleSet, PossibilitySpace
from .rules import ChoiceRule
from .trees import (
    DEFAULT_ENUMERATION_CAP,
    Chance,
    Decision,
    DecisionTree,
    Node,
    NodeId,
    NormalFormDecision,
    Strategy,
    strategies,
    validate,
)

Solution = frozenset[NormalFormDecision]


def induced_gambles(solution: Iterable[NormalFormDecision]) -> GambleSet:
    return GambleSet(member.gamble for member in solution)


def _gamble_set(space: PossibilitySpace, pairs: Iterable[Strategy]) -> GambleSet:
    """The distinct gambles of enumerated (choices, values) pairs."""
    return GambleSet(Gamble(space, values) for values in {v for _, v in pairs})


def _optimal(
    tree: DecisionTree, rule: ChoiceRule, pairs: list[Strategy], path: NodeId
) -> tuple[GambleSet, GambleSet, list[Strategy]]:
    """The candidate pool at `path`, the rule's choice from it given the
    node's event, and the pairs whose gamble was chosen."""
    pool = _gamble_set(tree.space, pairs)
    chosen = rule.select(pool, tree.event_at(path))
    values = {g.values for g in chosen}
    return pool, chosen, [pair for pair in pairs if pair[1] in values]


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the optimal strategies, the gambles they induce, and
    deterministic size statistics."""

    solution: Solution
    induced: GambleSet
    method: str
    stats: dict

    def members(self) -> tuple[NormalFormDecision, ...]:
        return tuple(sorted(self.solution, key=lambda m: m.choices))


def norm_opt(
    tree: DecisionTree, rule: ChoiceRule, cap: int = DEFAULT_ENUMERATION_CAP
) -> SolveReport:
    """The normal form operator: keep exactly those strategies whose induced
    gamble the rule selects from the tree's full gamble set given its event."""
    validate(tree)
    pairs = strategies(tree, cap)
    pool, chosen, kept = _optimal(tree, rule, pairs, ())
    solution = frozenset(NormalFormDecision(tree, choices) for choices, _ in kept)
    assert _gamble_set(tree.space, kept) == chosen
    return SolveReport(
        solution=solution,
        induced=chosen,
        method="normal",
        stats={
            "nodes": tree.node_counts(),
            "nfd_count": len(pairs),
            "gamble_count": len(pool),
            "solution_count": len(solution),
        },
    )


def back_opt(
    tree: DecisionTree, rule: ChoiceRule, cap: int = DEFAULT_ENUMERATION_CAP
) -> SolveReport:
    """Backward induction: solve every subtree, glue the survivors, and
    re-apply the rule at each node on the glued candidates' gambles."""
    validate(tree)
    stages: list[dict] = []

    def keep_optimal(path: NodeId, candidates: list[Strategy]) -> list[Strategy]:
        _, _, kept = _optimal(tree, rule, candidates, path)
        stages.append(
            {"node": list(path), "candidates": len(candidates), "kept": len(kept)}
        )
        return kept

    survivors = strategies(tree, cap, select=keep_optimal)
    solution = frozenset(NormalFormDecision(tree, choices) for choices, _ in survivors)
    return SolveReport(
        solution=solution,
        induced=_gamble_set(tree.space, survivors),
        method="backward",
        stats={
            "nodes": tree.node_counts(),
            "stages": stages,
            "solution_count": len(solution),
        },
    )


@dataclass(frozen=True)
class ExtensiveSolution:
    """The source tree with a kept/pruned mark on every decision arc.

    Arcs are identified by the child node's path. Regions below pruned arcs
    are retained in the tree but flagged unreachable, so node addressing
    stays stable.
    """

    tree: DecisionTree
    kept_arcs: frozenset[NodeId]
    pruned_arcs: frozenset[NodeId]
    unreachable: frozenset[NodeId]


def extract_extensive(
    tree: DecisionTree, solution: Iterable[NormalFormDecision]
) -> ExtensiveSolution:
    """Keep a decision arc iff its child lies in at least one member of the
    solution; chance arcs are always kept within the reachable region."""
    members = list(solution)
    if not members:
        raise EmptySolution("cannot extract an extensive form from no members")
    kept: set[NodeId] = set()
    for member in members:
        kept.update(member.arc_paths())

    pruned: set[NodeId] = set()
    unreachable: set[NodeId] = set()

    def walk(node: Node, path: NodeId, reachable: bool) -> None:
        if not reachable and path:
            unreachable.add(path)
        if isinstance(node, Decision):
            for i, child in enumerate(node.children):
                arc = path + (i,)
                child_reachable = reachable and arc in kept
                if reachable and arc not in kept:
                    pruned.add(arc)
                walk(child, arc, child_reachable)
        elif isinstance(node, Chance):
            for i, (_, child) in enumerate(node.branches):
                walk(child, path + (i,), reachable)

    walk(tree.root, (), True)
    return ExtensiveSolution(
        tree=tree,
        kept_arcs=frozenset(kept),
        pruned_arcs=frozenset(pruned),
        unreachable=frozenset(unreachable),
    )


def nfd_of_extensive(
    extensive: ExtensiveSolution, cap: int = DEFAULT_ENUMERATION_CAP
) -> Solution:
    """All strategies of the source tree that only use kept decision arcs."""
    pairs = strategies(extensive.tree, cap, keep_arc=extensive.kept_arcs.__contains__)
    return frozenset(NormalFormDecision(extensive.tree, choices) for choices, _ in pairs)


@dataclass(frozen=True)
class ExtensiveEquivalence:
    """Whether the extracted extensive form re-expands to exactly the normal
    form solution; `witness` is a strategy of the extensive form missing from
    the normal form solution."""

    equal: bool
    solution: Solution
    extensive: ExtensiveSolution
    witness: Optional[NormalFormDecision] = None

    def __bool__(self) -> bool:
        return self.equal


def equivalence_for_solution(
    tree: DecisionTree,
    solution: Iterable[NormalFormDecision],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ExtensiveEquivalence:
    members = frozenset(solution)
    extensive = extract_extensive(tree, members)
    expanded = nfd_of_extensive(extensive, cap)
    extra = sorted(expanded - members, key=lambda m: m.choices)
    return ExtensiveEquivalence(
        equal=not extra,
        solution=members,
        extensive=extensive,
        witness=extra[0] if extra else None,
    )


def check_normal_extensive_equivalence(
    tree: DecisionTree, rule: ChoiceRule, cap: int = DEFAULT_ENUMERATION_CAP
) -> ExtensiveEquivalence:
    report = norm_opt(tree, rule, cap)
    return equivalence_for_solution(tree, report.solution, cap)
