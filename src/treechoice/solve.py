"""Normal form and backward-induction solvers, extensive-form extraction,
and the normal/extensive equivalence check."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterable, Optional

from .errors import EmptySolution
from .model import Event, Gamble, GambleSet, PossibilitySpace
from .rules import ChoiceRule
from .trees import (
    Decision,
    DecisionTree,
    NormalFormDecision,
    Strategy,
    distinct_values,
    nfd_count,
    strategies,
)

Solution = frozenset[NormalFormDecision]


def induced_gambles(solution: Iterable[NormalFormDecision]) -> GambleSet:
    return GambleSet(member.gamble for member in solution)


def _gamble_set(space: PossibilitySpace, pairs: Iterable[Strategy]) -> GambleSet:
    """The distinct gambles of enumerated (choices, values) pairs."""
    return GambleSet(Gamble(space, values) for values in {v for _, v in pairs})


def optimal(
    tree: DecisionTree, rule: ChoiceRule, pairs: list[Strategy], v: int
) -> tuple[GambleSet, GambleSet, list[Strategy]]:
    """The candidate pool at node `v`, the rule's choice from it given the
    node's event, and the pairs whose gamble was chosen."""
    pool = _gamble_set(tree.space, pairs)
    chosen = rule.select(pool, tree.event_of(v))
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


def agreeing(
    tree: DecisionTree, chosen: list[Strategy], v: int, candidates: list[Strategy]
) -> list[Strategy]:
    """The candidates that agree with some chosen pair's gamble on the states
    routed to node `v` (`NodeIndex.routed`): elsewhere the node's values
    never reach the root. Every state is routed to the root. Bound to its
    first two arguments, a `select` hook."""
    on_routed = itemgetter(*Event(tree.space, tree.index.routed[v]).indices())
    wanted = {on_routed(values) for _, values in chosen}
    return [pair for pair in candidates if on_routed(pair[1]) in wanted]


def expand(tree: DecisionTree, pairs: list[Strategy]) -> Solution:
    """The strategies of `tree` whose gamble is one of `pairs`' values: the
    walk keeps, at every node, the candidates that agree with one of those
    gambles on the states routed there."""
    kept = strategies(tree, select=partial(agreeing, tree, pairs))
    assert {values for _, values in kept} == {values for _, values in pairs}
    return frozenset(NormalFormDecision(tree, choices) for choices, _ in kept)


def norm_opt(tree: DecisionTree, rule: ChoiceRule) -> SolveReport:
    """The normal form operator: keep exactly those strategies whose induced
    gamble the rule selects from the tree's gamble set given its event.

    One walk keeps the distinct gambles at every node, which yields the
    gamble set; the rule selects from it; `expand` lists only the strategies
    of the chosen gambles. The strategy count is a fold; no walk lists
    every strategy."""
    pool, chosen, kept = optimal(tree, rule, strategies(tree, select=distinct_values), 0)
    solution = expand(tree, kept)
    return SolveReport(
        solution=solution,
        induced=chosen,
        method="normal",
        stats={
            "nodes": tree.node_counts(),
            "nfd_count": nfd_count(tree),
            "gamble_count": len(pool),
            "solution_count": len(solution),
        },
    )


def back_opt(tree: DecisionTree, rule: ChoiceRule) -> SolveReport:
    """Backward induction: solve every subtree, glue the survivors, and
    re-apply the rule at each node on the glued candidates' gambles."""
    stages: list[dict] = []

    def keep_optimal(v: int, candidates: list[Strategy]) -> list[Strategy]:
        _, _, kept = optimal(tree, rule, candidates, v)
        stages.append(
            {"node": list(tree.path_of(v)), "candidates": len(candidates), "kept": len(kept)}
        )
        return kept

    survivors = strategies(tree, select=keep_optimal)
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

    Arcs and nodes are sets of node ids, an arc identified by its child's
    id. Regions below pruned arcs are retained in the tree but flagged
    unreachable, so node ids stay stable.
    """

    tree: DecisionTree
    kept_arcs: frozenset[int]
    pruned_arcs: frozenset[int]
    unreachable: frozenset[int]


def extract_extensive(
    tree: DecisionTree, solution: Iterable[NormalFormDecision]
) -> ExtensiveSolution:
    """Keep a decision arc iff its child lies in at least one member of the
    solution; chance arcs are always kept within the reachable region."""
    members = list(solution)
    if not members:
        raise EmptySolution("cannot extract an extensive form from no members")
    # ids gather in dicts, not sets: a set grown one id at a time may
    # reserve four times its size, a frozenset copied from a dict is sized once
    kept = frozenset(dict.fromkeys(arc for member in members for arc in member.arcs()))
    nodes, parent = tree.index.nodes, tree.index.parent
    pruned, unreachable = {}, {}
    for v in range(1, len(nodes)):  # parents before children
        u = parent[v]
        if u in unreachable:
            unreachable[v] = None
        elif isinstance(nodes[u], Decision) and v not in kept:
            pruned[v] = unreachable[v] = None
    return ExtensiveSolution(tree, kept, frozenset(pruned), frozenset(unreachable))


def nfd_of_extensive(extensive: ExtensiveSolution) -> Solution:
    """All strategies of the source tree that only use kept decision arcs."""
    pairs = strategies(extensive.tree, keep_arc=extensive.kept_arcs.__contains__)
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
    tree: DecisionTree, solution: Iterable[NormalFormDecision]
) -> ExtensiveEquivalence:
    """Every member uses only kept arcs, so the solution lies inside the
    extensive form's expansion: they are equal iff their counts are. The
    expansion is listed only when they differ, to name its first strategy
    in choice order that is not a member."""
    members = frozenset(solution)
    extensive = extract_extensive(tree, members)
    extra = ()
    if nfd_count(tree, extensive.kept_arcs.__contains__) != len(members):
        extra = nfd_of_extensive(extensive) - members
    witness = min(extra, key=lambda m: m.choices, default=None)
    return ExtensiveEquivalence(witness is None, members, extensive, witness)


def check_normal_extensive_equivalence(
    tree: DecisionTree, rule: ChoiceRule
) -> ExtensiveEquivalence:
    report = norm_opt(tree, rule)
    return equivalence_for_solution(tree, report.solution)
