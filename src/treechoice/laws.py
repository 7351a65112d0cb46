"""Executable property checkers, falsification with witness shrinking, and
subtree-perfectness reports.

Checkers are falsifiers: a clean run over sampled instances only ever
corroborates a property, it never proves it. Violations always carry a
witness that re-checks on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import MalformedInstance, NoViolation, TreechoiceError
from .model import Gamble, GambleSet, combine_on_partition, gamble_set_sum
from .props import (
    BackwardConditioningInstance,
    ConditioningInstance,
    FamilyInstance,
    INSTANCE_SHAPES,
    Instance,
    MixtureInstance,
    PropertyId,
    SetSumInstance,
    SubsetInstance,
)
from .rules import ChoiceRule
from .solve import agreeing, expand, norm_opt, optimal
from .trees import (
    Chance,
    Decision,
    DecisionTree,
    Leaf,
    NormalFormDecision,
    chance_expansion,
    distinct_values,
    strategies,
)

CORROBORATED = "corroborated"
VIOLATED = "violated"


@dataclass(frozen=True)
class InstanceCheck:
    """Verdict for a single property instance. A vacuous pass means the
    property's premise never fired on this instance."""

    prop: PropertyId
    holds: bool
    vacuous: bool = False
    witness: Optional[dict] = None


def _holds(prop: PropertyId, vacuous: bool = False) -> InstanceCheck:
    return InstanceCheck(prop, True, vacuous=vacuous)


def _violated(prop: PropertyId, witness: dict) -> InstanceCheck:
    return InstanceCheck(prop, False, witness=witness)


def _check_conditioning(rule: ChoiceRule, inst: ConditioningInstance) -> InstanceCheck:
    prop = PropertyId.P1_conditioning
    selected = rule.select(inst.gambles, inst.given)
    premise_fired = False
    for x in selected:
        for y in inst.gambles:
            if x != y and x.equal_on(y, inst.given):
                premise_fired = True
                if y not in selected:
                    return _violated(
                        prop,
                        {
                            "selected": x,
                            "equal_on_event_but_rejected": y,
                            "selection": selected,
                        },
                    )
    return _holds(prop, vacuous=not premise_fired)


def _subset_selections(
    rule: ChoiceRule, inst: SubsetInstance
) -> tuple[GambleSet, GambleSet, Optional[GambleSet]]:
    """P2's and P9's premise: the selection from the set, its members in the
    subset, and the selection from the subset; None in place of the last
    when no selected gamble is in the subset, so the premise never fires."""
    sel_all = rule.select(inst.gambles, inst.given)
    kept = sel_all.intersection(inst.subset)
    if len(kept) == 0:
        return sel_all, kept, None
    return sel_all, kept, rule.select(inst.subset, inst.given)


def _mixture_selections(
    rule: ChoiceRule, inst: MixtureInstance
) -> tuple[GambleSet, GambleSet, GambleSet]:
    """P3's and P10's sets: the selection from the gambles mixed with the
    continuation off the part, the selection on the part, and that
    selection mixed."""

    def mixed(gambles: GambleSet) -> GambleSet:
        off_part = (inst.part.complement(), inst.other)
        return GambleSet(combine_on_partition([(inst.part, x), off_part]) for x in gambles)

    lhs = rule.select(mixed(inst.gambles), inst.given)
    inner = rule.select(inst.gambles, inst.part & inst.given)
    return lhs, inner, mixed(inner)


def _check_intersection(rule: ChoiceRule, inst: SubsetInstance) -> InstanceCheck:
    prop = PropertyId.P2_intersection
    sel_all, expected, sel_sub = _subset_selections(rule, inst)
    if sel_sub is None:
        return _holds(prop, vacuous=True)
    if sel_sub == expected:
        return _holds(prop)
    return _violated(
        prop,
        {"selection_on_set": sel_all, "expected": expected, "actual": sel_sub},
    )


def _check_mixture(rule: ChoiceRule, inst: MixtureInstance) -> InstanceCheck:
    prop = PropertyId.P3_mixture
    lhs, inner, rhs = _mixture_selections(rule, inst)
    if lhs == rhs:
        return _holds(prop)
    return _violated(prop, {"expected": rhs, "actual": lhs, "inner_selection": inner})


def _check_strong_path_independence(
    rule: ChoiceRule, inst: FamilyInstance
) -> InstanceCheck:
    prop = PropertyId.P4_strong_path_independence
    union = inst.union()
    overall = rule.select(union, inst.given)
    per_part = [rule.select(part, inst.given) for part in inst.parts]
    eligible = [sel for sel in per_part if sel.issubset(overall)]
    covered = GambleSet(g for sel in eligible for g in sel)
    if eligible and covered == overall:
        return _holds(prop)
    return _violated(
        prop,
        {
            "overall": overall,
            "per_part": per_part,
            "best_cover": covered,
        },
    )


def _check_very_strong_path_independence(
    rule: ChoiceRule, inst: FamilyInstance
) -> InstanceCheck:
    prop = PropertyId.P5_very_strong_path_independence
    union = inst.union()
    overall = rule.select(union, inst.given)
    per_part = [rule.select(part, inst.given) for part in inst.parts]
    meeting = [sel for part, sel in zip(inst.parts, per_part) if any(g in overall for g in part)]
    covered = GambleSet(g for sel in meeting for g in sel)
    if covered == overall:
        return _holds(prop)
    return _violated(
        prop, {"overall": overall, "per_part": per_part, "required_union": covered}
    )


def _check_total_preorder(rule: ChoiceRule, inst: FamilyInstance) -> InstanceCheck:
    prop = PropertyId.P6_total_preorder
    members = list(inst.union())
    prefers: dict[tuple[Gamble, Gamble], bool] = {}
    for x, y in itertools.combinations(members, 2):
        pair_selection = rule.select(GambleSet([x, y]), inst.given)
        prefers[(x, y)] = x in pair_selection
        prefers[(y, x)] = y in pair_selection

    def ge(a: Gamble, b: Gamble) -> bool:
        return True if a == b else prefers[(a, b)]

    for x, y in itertools.combinations(members, 2):
        if not ge(x, y) and not ge(y, x):
            return _violated(prop, {"incomparable_pair": (x, y)})
    for x, y, z in itertools.permutations(members, 3):
        if ge(x, y) and ge(y, z) and not ge(x, z):
            return _violated(prop, {"intransitive_cycle": (x, y, z)})
    for part in inst.parts:
        maximal = GambleSet(
            x for x in part if all(ge(x, y) for y in part)
        )
        selected = rule.select(part, inst.given)
        if maximal != selected:
            return _violated(
                prop,
                {"set": part, "revealed_maximal": maximal, "selected": selected},
            )
    return _holds(prop)


def _check_backward_conditioning(
    rule: ChoiceRule, inst: BackwardConditioningInstance
) -> InstanceCheck:
    prop = PropertyId.P7_backward_conditioning
    inside = inst.part & inst.given
    complement = inst.part.complement()
    sel_inside = rule.select(inst.gambles, inside)
    continued = {
        x: [combine_on_partition([(inst.part, x), (complement, z)]) for z in inst.others]
        for x in inst.gambles
    }
    sel_big = rule.select(
        GambleSet(g for row in continued.values() for g in row), inst.given
    )
    premise_fired = False
    for x in sel_inside:
        if not any(g in sel_big for g in continued[x]):
            continue
        for y in inst.gambles:
            if x != y and x.equal_on(y, inst.part):
                premise_fired = True
                if y not in sel_inside:
                    return _violated(
                        prop,
                        {
                            "selected": x,
                            "equal_on_part_but_rejected": y,
                            "inner_selection": sel_inside,
                        },
                    )
    return _holds(prop, vacuous=not premise_fired)


def _check_insensitivity(rule: ChoiceRule, inst: SubsetInstance) -> InstanceCheck:
    prop = PropertyId.P8_insensitivity
    sel_all = rule.select(inst.gambles, inst.given)
    if not sel_all.issubset(inst.subset):
        return _holds(prop, vacuous=True)
    sel_sub = rule.select(inst.subset, inst.given)
    if sel_sub == sel_all:
        return _holds(prop)
    return _violated(prop, {"expected": sel_all, "actual": sel_sub})


def _check_preservation(rule: ChoiceRule, inst: SubsetInstance) -> InstanceCheck:
    prop = PropertyId.P9_preservation
    sel_all, lower, sel_sub = _subset_selections(rule, inst)
    if sel_sub is None:
        return _holds(prop, vacuous=True)
    if lower.issubset(sel_sub):
        return _holds(prop)
    return _violated(
        prop, {"required_members": lower, "actual": sel_sub, "selection_on_set": sel_all}
    )


def _check_backward_mixture(rule: ChoiceRule, inst: MixtureInstance) -> InstanceCheck:
    prop = PropertyId.P10_backward_mixture
    lhs, inner, rhs = _mixture_selections(rule, inst)
    if lhs.issubset(rhs):
        return _holds(prop)
    return _violated(prop, {"upper_bound": rhs, "actual": lhs, "inner_selection": inner})


def _check_path_independence(rule: ChoiceRule, inst: FamilyInstance) -> InstanceCheck:
    prop = PropertyId.P11_path_independence
    union = inst.union()
    overall = rule.select(union, inst.given)
    inner = GambleSet(g for part in inst.parts for g in rule.select(part, inst.given))
    second_round = rule.select(inner, inst.given)
    if overall == second_round:
        return _holds(prop)
    return _violated(
        prop, {"direct": overall, "two_stage": second_round, "survivors": inner}
    )


def _check_setsum_factorization(rule: ChoiceRule, inst: SetSumInstance) -> InstanceCheck:
    prop = PropertyId.L_setsum_factorization
    combined = gamble_set_sum(list(inst.partition), list(inst.parts))
    lhs = rule.select(combined, inst.given)
    factored = [
        rule.select(part, block & inst.given)
        for block, part in zip(inst.partition, inst.parts)
    ]
    rhs = gamble_set_sum(list(inst.partition), factored)
    if lhs == rhs:
        return _holds(prop)
    return _violated(prop, {"expected": rhs, "actual": lhs, "per_block": factored})


_CHECKERS: dict[PropertyId, Callable[[ChoiceRule, Instance], InstanceCheck]] = {
    PropertyId.P1_conditioning: _check_conditioning,
    PropertyId.P2_intersection: _check_intersection,
    PropertyId.P3_mixture: _check_mixture,
    PropertyId.P4_strong_path_independence: _check_strong_path_independence,
    PropertyId.P5_very_strong_path_independence: _check_very_strong_path_independence,
    PropertyId.P6_total_preorder: _check_total_preorder,
    PropertyId.P7_backward_conditioning: _check_backward_conditioning,
    PropertyId.P8_insensitivity: _check_insensitivity,
    PropertyId.P9_preservation: _check_preservation,
    PropertyId.P10_backward_mixture: _check_backward_mixture,
    PropertyId.P11_path_independence: _check_path_independence,
    PropertyId.L_setsum_factorization: _check_setsum_factorization,
}


def check_property_instance(
    prop: PropertyId, rule: ChoiceRule, instance: Instance
) -> InstanceCheck:
    """Evaluate the property literally on one instance; its `select` calls
    share the rule's tables."""
    expected_shape = INSTANCE_SHAPES[prop]
    if not isinstance(instance, expected_shape):
        raise MalformedInstance(
            f"{prop.value} takes a {expected_shape.__name__}, "
            f"got {type(instance).__name__}"
        )
    instance.validate()
    return _CHECKERS[prop](rule, instance)


@dataclass(frozen=True)
class ViolationWitness:
    """A re-checkable counterexample: the (shrunk) instance together with the
    exact rule (context included) it violates."""

    instance: Instance
    rule: ChoiceRule
    detail: dict


@dataclass(frozen=True)
class LawReport:
    """`vacuous` counts the instances checked whose premise never fired;
    `shrink_steps` counts the instance checks that returned a verdict while
    the witness was shrunk (0 when nothing was shrunk)."""

    prop: PropertyId
    rule_name: str
    instances_checked: int
    verdict: str
    vacuous: int
    witness: Optional[ViolationWitness] = None
    shrink_steps: int = 0

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED


def shrink_violation(
    prop: PropertyId, rule: ChoiceRule, instance: Instance
) -> tuple[Instance, ChoiceRule, dict, int]:
    """Greedily drop gambles, then states, while the violation persists.

    Deterministic: candidates are tried in canonical order and the first
    successful reduction restarts the scan. Mass functions are renormalized
    when states are dropped. Returns the shrunk instance and rule, the
    violation's detail, and the number of instance checks that returned a
    verdict, the first re-check of `instance` included (a candidate that
    fails its shape's preconditions is not counted). Raises `NoViolation`
    if the property holds on `instance`, `MalformedInstance` if it is malformed.
    """
    first = check_property_instance(prop, rule, instance)
    if first.holds:
        raise NoViolation(f"{prop.value} holds on the instance: nothing to shrink")
    steps, detail = 1, first.witness

    def still_violated(candidate_rule: ChoiceRule, candidate: Instance) -> Optional[dict]:
        nonlocal steps
        try:
            result = check_property_instance(prop, candidate_rule, candidate)
        except MalformedInstance:
            return None
        steps += 1
        return result.witness if not result.holds else None

    current, current_rule = instance, rule
    reduced = True
    while reduced:
        reduced = False
        for candidate in current.drop_gamble_candidates():
            found = still_violated(current_rule, candidate)
            if found is not None:
                current, detail = candidate, found
                reduced = True
                break
        if reduced:
            continue
        size = current.space.size
        if size <= 1:
            continue
        for drop in range(size):
            kept = tuple(i for i in range(size) if i != drop)
            candidate = current.restricted(kept)
            candidate_rule = current_rule.rebind(
                current_rule.context.restricted(candidate.space, kept)
            )
            found = still_violated(candidate_rule, candidate)
            if found is not None:
                current, current_rule, detail = candidate, candidate_rule, found
                reduced = True
                break
    return current, current_rule, detail, steps


def falsify_property(
    prop: PropertyId,
    rule_policy: Callable,
    config=None,
    budget: int = 1000,
    seed: int = 0,
) -> LawReport:
    """Search sampled instances for a violation; stop and shrink at the first.

    `rule_policy(space, rewards, rng)` binds the rule to each generated
    instance's possibility space. Budget exhaustion corroborates, it never
    proves. A negative budget raises `TreechoiceError`.
    """
    from . import generate  # deferred: generate builds the instances checked here

    if budget < 0:
        raise TreechoiceError(f"budget must not be negative, got {budget}")
    config = generate.GenConfig() if config is None else config
    rule_name = None
    vacuous = 0
    for index in range(budget):
        instance = generate.random_gamble_instance(prop, config, seed=generate.subseed(seed, index))
        rewards = generate.reward_table_for_instance(instance)
        rng = generate.rng_for(seed, "context", index)
        rule = rule_policy(instance.space, rewards, rng)
        rule_name = rule.name
        result = check_property_instance(prop, rule, instance)
        vacuous += result.vacuous
        if not result.holds:
            shrunk, shrunk_rule, detail, steps = shrink_violation(prop, rule, instance)
            return LawReport(
                prop=prop,
                rule_name=rule.name,
                instances_checked=index + 1,
                verdict=VIOLATED,
                vacuous=vacuous,
                witness=ViolationWitness(shrunk, shrunk_rule, detail),
                shrink_steps=steps,
            )
    return LawReport(
        prop=prop,
        rule_name=rule_name if rule_name is not None else "?",
        instances_checked=budget,
        verdict=CORROBORATED,
        vacuous=vacuous,
    )


def divergence_tree_for_mixture_witness(instance: MixtureInstance) -> DecisionTree:
    """Convert a backward-mixture violation into a tree where backward
    induction and the normal form operator disagree.

    The part-event carries a decision fan over the instance's gambles, the
    complement carries the single continuation. A gamble that is optimal in
    the mixed set but not on the part alone is then reachable for the normal
    form operator yet pruned by the subtree stage of backward induction.
    """
    fan = Decision(tuple(chance_expansion(g) for g in instance.gambles))
    root = Chance(
        (
            (instance.part, fan),
            (instance.part.complement(), chance_expansion(instance.other)),
        )
    )
    return DecisionTree(instance.space, root, instance.given)


@dataclass(frozen=True)
class NodeComparison:
    """One node's verdict: the subtree's own solution vs the restriction of
    the root solution to that node, both listed only where the node fails.
    `node` is the node's id; `tree.path_of` spells it as a path."""

    node: int
    ok: bool
    subtree_solution: Optional[frozenset[NormalFormDecision]] = None
    restricted: Optional[frozenset[NormalFormDecision]] = None


@dataclass(frozen=True)
class PerfectionReport:
    weak: bool
    comparisons: tuple[NodeComparison, ...]

    @property
    def perfect(self) -> bool:
        return all(c.ok for c in self.comparisons)

    def violations(self) -> tuple[NodeComparison, ...]:
        return tuple(c for c in self.comparisons if not c.ok)


def check_subtree_perfectness(
    tree: DecisionTree, rule: ChoiceRule, weak: bool = False
) -> PerfectionReport:
    """Compare optimize-then-restrict against restrict-then-optimize at every
    node reached by the root solution, in preorder. Strong perfectness
    demands equality, the weak variant only inclusion of the restriction.

    Both sides are unions of gamble classes of the node's pool, by a swap.
    Let the root member m reach node v, and the strategy s of T_v induce a
    gamble agreeing with m's on the states routed to v. Put s into m in
    place of m's choices in T_v: no other state enters T_v, so the result
    induces m's gamble, is a root member, reaches v and restricts to s. So
    the restriction holds the strategies of T_v whose gamble agrees there
    with a reaching member's, the node's solution those whose gamble the
    rule chooses from the pool. By the same swap at a decision node u, its
    child c is reached by the gambles reaching u that agree, on the states
    routed to u, with a gamble of c's pool; a chance child by its parent's.
    Every strategy of T_v has its gamble in the pool, so the restriction
    is the expansion (`expand`) of the pool gambles that agree with a
    reaching member's. Member sets are listed only where a node fails, and
    only within its subtree: its solution and that expansion."""
    # each node's distinct gambles, one arc-free pair apiece
    size, nodes, parent = tree.space.size, tree.index.nodes, tree.index.parent
    pools = {v: [((), (n.reward,) * size)] for v, n in tree.nodes() if isinstance(n, Leaf)}
    strategies(tree, select=lambda v, pairs: pools.setdefault(v, distinct_values(v, pairs)))
    reaching = [optimal(tree, rule, pools[0], 0)[2]]  # root gambles, per node
    comparisons = []
    for v, node in tree.nodes():
        if v:
            u = parent[v]
            decides = reaching[u] and isinstance(nodes[u], Decision)
            reaching.append(agreeing(tree, pools[v], u, reaching[u]) if decides else reaching[u])
        if not reaching[v]:
            continue
        # the root has its chosen gambles on both sides, a leaf its one strategy
        ok = not v or isinstance(node, Leaf)
        if not ok:  # both filter the pool, in its order
            restricted = agreeing(tree, reaching[v], v, pools[v])
            _, _, chosen = optimal(tree, rule, pools[v], v)
            ok = restricted == chosen or weak and set(restricted) <= set(chosen)
        members = () if ok else (
            norm_opt(tree.subtree_of(v), rule).solution,
            expand(tree.subtree_of(v), restricted),
        )
        comparisons.append(NodeComparison(v, ok, *members))
    return PerfectionReport(weak=weak, comparisons=tuple(comparisons))
