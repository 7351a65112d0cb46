import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from treechoice import laws
from treechoice.errors import MalformedInstance, NoViolation, TreechoiceError
from treechoice.generate import (
    GenConfig,
    random_gamble_instance,
    reward_table_for_instance,
    rng_for,
    seeded_rule_policy,
    subseed,
)
from treechoice.laws import (
    check_property_instance,
    check_subtree_perfectness,
    falsify_property,
    shrink_violation,
)
from treechoice.model import Gamble, GambleSet, PossibilitySpace, RewardTable
from treechoice.props import (
    ConditioningInstance,
    FamilyInstance,
    MixtureInstance,
    PropertyId,
    SetSumInstance,
    SubsetInstance,
)
from treechoice.rules import RULES, ChoiceContext, MassFunction, make_rule
from treechoice.solve import induced_gambles, norm_opt
from treechoice.trees import Decision, DecisionTree, Leaf, gamb

from conftest import FIXTURES, FussyPairsRule

SRC = Path(__file__).resolve().parent.parent / "src"

P = PropertyId


def incomparable_sets(incomparable_doc):
    by_values = {g.values: g for g in gamb(incomparable_doc.tree)}
    x, y, z = by_values[("m1", "m1")], by_values[("m2", "p2")], by_values[("z", "z")]
    return x, y, z


def test_p2_violation_on_incomparable_fixture(incomparable_doc, incomparable_dominance):
    x, y, z = incomparable_sets(incomparable_doc)
    inst = SubsetInstance(GambleSet([x, y, z]), GambleSet([x, y]), incomparable_doc.space.omega)
    result = check_property_instance(P.P2_intersection, incomparable_dominance, inst)
    assert not result.holds
    assert result.witness["expected"] == GambleSet([y])
    assert result.witness["actual"] == GambleSet([x, y])


def test_p2_trivial_when_subset_is_whole(incomparable_doc, incomparable_dominance):
    x, y, z = incomparable_sets(incomparable_doc)
    whole = GambleSet([x, y, z])
    inst = SubsetInstance(whole, whole, incomparable_doc.space.omega)
    assert check_property_instance(P.P2_intersection, incomparable_dominance, inst).holds


def test_p2_holds_for_eu(incomparable_doc, incomparable_eu):
    x, y, z = incomparable_sets(incomparable_doc)
    inst = SubsetInstance(GambleSet([x, y, z]), GambleSet([x, y]), incomparable_doc.space.omega)
    assert check_property_instance(P.P2_intersection, incomparable_eu, inst).holds


def test_p3_both_sides_computed_independently(incomparable_doc, incomparable_eu):
    # brute-force both sides of the mixture equality for one instance
    from treechoice.model import combine_on_partition

    space = incomparable_doc.space
    a = incomparable_doc.event_named("A")
    x, y, z = incomparable_sets(incomparable_doc)
    const1 = Gamble.constant(space, "m1")
    const2 = Gamble.constant(space, "z")
    inst = MixtureInstance(
        GambleSet([const1, const2]), Gamble.constant(space, "p2"), a, space.omega
    )
    result = check_property_instance(P.P3_mixture, incomparable_eu, inst)
    mixed = GambleSet(
        combine_on_partition([(a, g), (a.complement(), inst.other)])
        for g in inst.gambles
    )
    lhs = incomparable_eu.select(mixed, space.omega)
    inner = incomparable_eu.select(inst.gambles, a)
    rhs = GambleSet(
        combine_on_partition([(a, g), (a.complement(), inst.other)]) for g in inner
    )
    assert result.holds == (lhs == rhs)
    assert result.holds


def test_setsum_factorization_for_eu():
    space = PossibilitySpace(("w1", "w2", "w3", "w4"))
    e1, e2 = space.event(["w1", "w2"]), space.event(["w3", "w4"])
    rewards = RewardTable.from_literals(["0", "1", "2", "3"])
    rule = make_rule(
        "eu_max",
        ChoiceContext(rewards, probability=MassFunction.from_weights(space, [1, 2, 3, 4])),
    )
    part1 = GambleSet(
        [Gamble(space, ("0", "1", "0", "0")), Gamble(space, ("1", "0", "1", "1"))]
    )
    part2 = GambleSet(
        [Gamble(space, ("2", "2", "3", "2")), Gamble(space, ("3", "3", "2", "3"))]
    )
    inst = SetSumInstance((e1, e2), (part1, part2), space.omega)
    assert check_property_instance(P.L_setsum_factorization, rule, inst).holds


def test_p4_p5_crafted_violation_for_dominance(incomparable_doc, incomparable_dominance):
    x, y, z = incomparable_sets(incomparable_doc)
    inst = FamilyInstance((GambleSet([x, y]), GambleSet([z])), incomparable_doc.space.omega)
    assert not check_property_instance(
        P.P4_strong_path_independence, incomparable_dominance, inst
    ).holds
    assert not check_property_instance(
        P.P5_very_strong_path_independence, incomparable_dominance, inst
    ).holds


def test_p6_intransitivity_detected_for_maximality():
    space = PossibilitySpace(("s1", "s2"))
    rewards = RewardTable.from_literals(["0", "1", "3", "-3"])
    credal = (
        MassFunction.from_weights(space, [3, 1]),
        MassFunction.from_weights(space, [1, 3]),
    )
    rule = make_rule("maximality", ChoiceContext(rewards, credal=credal))
    x = Gamble(space, ("0", "0"))
    ybig = Gamble(space, ("3", "-3"))
    z = Gamble(space, ("1", "1"))
    inst = FamilyInstance((GambleSet([x, ybig, z]),), space.omega)
    result = check_property_instance(P.P6_total_preorder, rule, inst)
    assert not result.holds
    assert "intransitive_cycle" in result.witness


def test_p6_holds_for_eu(incomparable_doc, incomparable_eu):
    x, y, z = incomparable_sets(incomparable_doc)
    inst = FamilyInstance(
        (GambleSet([x, y]), GambleSet([y, z]), GambleSet([x, y, z])),
        incomparable_doc.space.omega,
    )
    assert check_property_instance(P.P6_total_preorder, incomparable_eu, inst).holds


def test_p8_p9_violated_by_fussy_rule():
    space = PossibilitySpace(("s",))
    rewards = RewardTable.from_literals(["1", "2", "3"])
    rule = FussyPairsRule(ChoiceContext(rewards))
    c1, c2, c3 = (Gamble.constant(space, v) for v in ("1", "2", "3"))
    inst = SubsetInstance(GambleSet([c1, c2, c3]), GambleSet([c2, c3]), space.omega)
    assert not check_property_instance(P.P9_preservation, rule, inst).holds
    # P8 premise: opt({c1,c2,c3}) = all three, never inside a 2-subset
    big = SubsetInstance(GambleSet([c1, c2, c3]), GambleSet([c1, c2]), space.omega)
    result = check_property_instance(P.P8_insensitivity, rule, big)
    assert result.holds and result.vacuous


def test_p8_p9_hold_for_dominance_on_samples(incomparable_dominance, incomparable_doc):
    x, y, z = incomparable_sets(incomparable_doc)
    for subset in ([x], [x, y], [y, z], [x, y, z]):
        inst = SubsetInstance(
            GambleSet([x, y, z]), GambleSet(subset), incomparable_doc.space.omega
        )
        assert check_property_instance(P.P8_insensitivity, incomparable_dominance, inst).holds
        assert check_property_instance(P.P9_preservation, incomparable_dominance, inst).holds


def test_p11_agrees_with_p8_and_p9_shape(incomparable_doc, incomparable_dominance):
    x, y, z = incomparable_sets(incomparable_doc)
    inst = FamilyInstance((GambleSet([x, y]), GambleSet([z])), incomparable_doc.space.omega)
    assert check_property_instance(P.P11_path_independence, incomparable_dominance, inst).holds


def test_malformed_instances_rejected(incomparable_doc, incomparable_dominance):
    x, y, z = incomparable_sets(incomparable_doc)
    bad = SubsetInstance(GambleSet([x]), GambleSet([y]), incomparable_doc.space.omega)
    with pytest.raises(MalformedInstance):
        check_property_instance(P.P2_intersection, incomparable_dominance, bad)
    with pytest.raises(MalformedInstance):
        # y is not consistent with A, so it cannot sit on the A side
        check_property_instance(
            P.P3_mixture,
            incomparable_dominance,
            MixtureInstance(
                GambleSet([y]), Gamble.constant(incomparable_doc.space, "z"),
                incomparable_doc.event_named("A"), incomparable_doc.space.omega,
            ),
        )


def test_falsify_p2_dominance_and_shrink():
    report = falsify_property(
        P.P2_intersection,
        seeded_rule_policy("pointwise_dominance"),
        budget=1000,
        seed=0,
    )
    assert report.violated
    witness = report.witness
    assert len(witness.instance.gambles) <= 3
    assert witness.instance.space.size <= 2
    # witness re-checks on its own
    again = check_property_instance(P.P2_intersection, witness.rule, witness.instance)
    assert not again.holds


def test_falsify_p6_maximality():
    report = falsify_property(
        P.P6_total_preorder,
        seeded_rule_policy("maximality", credal_size=2),
        budget=1000,
        seed=0,
    )
    assert report.violated
    witness = report.witness
    detail = check_property_instance(P.P6_total_preorder, witness.rule, witness.instance)
    assert not detail.holds


def test_falsify_p1_eu_corroborated_small_budget():
    report = falsify_property(
        P.P1_conditioning,
        seeded_rule_policy("eu_max"),
        budget=100,
        seed=0,
    )
    assert report.verdict == "corroborated"
    assert report.instances_checked == 100


@pytest.mark.parametrize("rule", ["eu_max", "pointwise_dominance", "maximality"])
def test_falsify_counts_vacuous_instances(rule):
    policy = seeded_rule_policy(rule)
    vacuous = {}
    for prop in P:
        report = falsify_property(prop, policy, budget=60, seed=3)
        assert 0 <= report.vacuous <= report.instances_checked, prop
        again = falsify_property(prop, policy, budget=60, seed=3)
        assert again.vacuous == report.vacuous, prop
        vacuous[prop] = report.vacuous
    # P1 fires only when a selected gamble has a twin equal on the event
    assert vacuous[P.P1_conditioning] > 0


def test_falsify_budget_zero_vacuous():
    report = falsify_property(
        P.P1_conditioning, seeded_rule_policy("eu_max"), budget=0, seed=0
    )
    assert report.verdict == "corroborated"
    assert report.instances_checked == 0
    assert report.vacuous == 0
    assert report.shrink_steps == 0


def test_falsify_rejects_a_negative_budget():
    with pytest.raises(TreechoiceError, match="budget"):
        falsify_property(P.P1_conditioning, seeded_rule_policy("eu_max"), budget=-5)


def test_shrink_steps_count_the_checks_made_while_shrinking(monkeypatch):
    calls = Counter()
    shrinking = []
    check, shrink = laws.check_property_instance, laws.shrink_violation

    def counted_check(*args):
        try:
            result = check(*args)
        except MalformedInstance:
            calls["malformed"] += 1
            raise
        calls[bool(shrinking)] += 1
        return result

    def flagged_shrink(*args):
        shrinking.append(True)
        try:
            return shrink(*args)
        finally:
            shrinking.pop()

    monkeypatch.setattr(laws, "check_property_instance", counted_check)
    monkeypatch.setattr(laws, "shrink_violation", flagged_shrink)
    policy = seeded_rule_policy("pointwise_dominance")
    report = falsify_property(P.P2_intersection, policy, budget=1000, seed=0)
    assert report.violated
    assert report.shrink_steps == calls[True] > 1
    assert calls[False] == report.instances_checked
    # candidates that fail the shape's preconditions are not counted
    assert calls["malformed"] > 0
    calls.clear()
    eu = falsify_property(P.P1_conditioning, seeded_rule_policy("eu_max"), budget=50)
    assert eu.verdict == "corroborated" and eu.shrink_steps == 0
    assert calls == {False: 50}


def test_falsify_deterministic():
    a = falsify_property(
        P.P2_intersection, seeded_rule_policy("pointwise_dominance"), budget=200, seed=5
    )
    b = falsify_property(
        P.P2_intersection, seeded_rule_policy("pointwise_dominance"), budget=200, seed=5
    )
    assert (a.verdict, a.instances_checked, a.vacuous, a.shrink_steps) == (
        b.verdict,
        b.instances_checked,
        b.vacuous,
        b.shrink_steps,
    )
    if a.witness is not None:
        assert a.witness.instance == b.witness.instance


def test_subtree_perfectness_incomparable(incomparable_doc, incomparable_dominance, incomparable_eu):
    report = check_subtree_perfectness(incomparable_doc.tree, incomparable_dominance)
    assert not report.perfect
    violations = report.violations()
    assert [incomparable_doc.tree.path_of(v.node) for v in violations] == [(0,)]
    v = violations[0]
    assert {g.values for g in induced_gambles(v.subtree_solution)} == {
        ("m1", "m1"),
        ("m2", "p2"),
    }
    assert {g.values for g in induced_gambles(v.restricted)} == {("m2", "p2")}
    assert check_subtree_perfectness(incomparable_doc.tree, incomparable_eu).perfect


def test_perfectness_solves_each_violating_node_only(
    incomparable_doc, incomparable_dominance, lake_doc, lake_eu, monkeypatch
):
    solved = []

    def counted_norm_opt(tree, rule):
        solved.append(tree)
        return norm_opt(tree, rule)

    monkeypatch.setattr(laws, "norm_opt", counted_norm_opt)
    # a perfect tree needs no solve; a failing one each failing node's
    # subtree, never the root
    cases = [
        (incomparable_doc.tree, incomparable_dominance, False, 1),
        (incomparable_doc.tree, incomparable_dominance, True, 0),
        (lake_doc.tree, lake_eu, False, 0),
    ]
    for tree, rule, weak, solves in cases:
        solved.clear()
        report = check_subtree_perfectness(tree, rule, weak)
        violations = len(report.violations())
        assert len(solved) == solves == violations
        assert all(t is not tree for t in solved)
        passing = [c for c in report.comparisons if c.ok]
        assert passing and all(c.subtree_solution is c.restricted is None for c in passing)


def test_subtree_perfectness_single_leaf(leaf_doc):
    rule = make_rule("pointwise_dominance", ChoiceContext(leaf_doc.rewards))
    assert check_subtree_perfectness(leaf_doc.tree, rule).perfect


def test_weak_subtree_perfectness_incomparable(incomparable_doc, incomparable_dominance):
    report = check_subtree_perfectness(incomparable_doc.tree, incomparable_dominance, weak=True)
    assert report.weak and report.perfect  # {Y} inside {X, Y}


def test_strong_perfect_implies_weak(lake_doc, lake_eu):
    strong = check_subtree_perfectness(lake_doc.tree, lake_eu)
    weak = check_subtree_perfectness(lake_doc.tree, lake_eu, weak=True)
    assert strong.perfect and weak.perfect


def test_weak_violation_for_p9_violator():
    space = PossibilitySpace(("s",))
    rewards = RewardTable.from_literals(["1", "2", "3"])
    rule = FussyPairsRule(ChoiceContext(rewards))
    tree = DecisionTree.over(
        space,
        Decision(
            (
                Decision((Leaf("2"), Leaf("3"))),
                Decision((Leaf("1"), Leaf("2"), Leaf("3"))),
            )
        ),
    )
    report = check_subtree_perfectness(tree, rule, weak=True)
    assert not report.perfect
    assert any(tree.path_of(v.node) == (0,) for v in report.violations())


def test_mixture_instance_full_part_rejected(incomparable_doc, incomparable_dominance):
    # the mixture shape needs both a live part and a live complement
    x = Gamble.constant(incomparable_doc.space, "z")
    inst = MixtureInstance(
        GambleSet([x]), Gamble.constant(incomparable_doc.space, "m1"),
        incomparable_doc.space.omega, incomparable_doc.space.omega,
    )
    with pytest.raises(MalformedInstance):
        check_property_instance(P.P3_mixture, incomparable_dominance, inst)


def test_shrink_needs_violation(incomparable_doc, incomparable_eu):
    x, y, z = incomparable_sets(incomparable_doc)
    inst = ConditioningInstance(GambleSet([x, y, z]), incomparable_doc.space.omega)
    with pytest.raises(NoViolation, match="^P1 holds on the instance"):
        shrink_violation(P.P1_conditioning, incomparable_eu, inst)
    empty = ConditioningInstance(GambleSet([]), incomparable_doc.space.omega)
    with pytest.raises(MalformedInstance, match="gamble set is empty"):
        shrink_violation(P.P1_conditioning, incomparable_eu, empty)


SHRINK_HOLDING_INSTANCE = """
import sys
from pathlib import Path

from treechoice.errors import NoViolation
from treechoice.laws import shrink_violation
from treechoice.props import ConditioningInstance, PropertyId
from treechoice.rules import make_rule
from treechoice.textio import parse_context_file, parse_tree_file
from treechoice.trees import gamb

doc = parse_tree_file(Path(sys.argv[1]).read_text())
context = parse_context_file(Path(sys.argv[2]).read_text()).bind(doc.space, doc.rewards)
instance = ConditioningInstance(gamb(doc.tree), doc.space.omega)
try:
    shrink_violation(PropertyId.P1_conditioning, make_rule("eu_max", context), instance)
except NoViolation:
    print("optimize", sys.flags.optimize, "NoViolation")
"""


def test_shrink_needs_violation_under_optimize():
    # `python -O` strips assert statements; the precondition must survive it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [
            sys.executable,
            "-O",
            "-c",
            SHRINK_HOLDING_INSTANCE,
            str(FIXTURES / "incomparable.tree"),
            str(FIXTURES / "incomparable_uniform.prob"),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimize", "1", "NoViolation"]


@pytest.mark.parametrize(
    "name", ["eu_max", "maximality", "e_admissibility", "gamma_maximin", "interval_dominance"]
)
def test_path_independence_scores_each_union_member_once(monkeypatch, name):
    # P11 selects from the union, from every part and from the parts'
    # survivors, all subsets of the union: with the check's one score
    # table each union member is scored once per mass function; a row
    # entry is one `column_expectation` call
    from treechoice import rules

    calls = []
    entry = rules.column_expectation

    def counted(*args):
        calls.append(args)
        return entry(*args)

    monkeypatch.setattr(rules, "column_expectation", counted)
    policy = seeded_rule_policy(name, credal_size=3)
    for index in range(20):
        instance = random_gamble_instance(
            P.P11_path_independence, GenConfig(), seed=subseed("p11-work", index)
        )
        rule = policy(
            instance.space, reward_table_for_instance(instance), rng_for("p11-work", index)
        )
        masses = 1 if name == "eu_max" else len(rule.context.credal)
        calls.clear()
        check_property_instance(P.P11_path_independence, rule, instance)
        assert 0 < len(calls) <= len(instance.union()) * masses, index


@pytest.mark.parametrize("name", sorted(RULES))
def test_an_instance_check_tests_each_set_for_consistency_once(monkeypatch, name):
    # the check's `select` calls test each (set, event) they are asked about
    # once: the rule's selection table answers a repeat without a check
    from treechoice import model, rules

    calls = Counter()

    def counted(gambles, event):
        gambles = list(gambles)
        calls[frozenset(gambles), event] += 1
        return model.check_a_consistency(gambles, event)

    monkeypatch.setattr(rules, "check_a_consistency", counted)
    policy = seeded_rule_policy(name)
    for prop in PropertyId:
        for index in range(10):
            instance = random_gamble_instance(
                prop, GenConfig(), seed=subseed("consistency-once", prop.value, index)
            )
            rule = policy(
                instance.space,
                reward_table_for_instance(instance),
                rng_for("consistency-once", index),
            )
            calls.clear()
            check_property_instance(prop, rule, instance)
            assert calls and max(calls.values()) == 1, (prop, index, calls)
