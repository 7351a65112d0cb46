"""Acceptance suite: every criterion at its stated scale and tolerance
(exact set equality throughout), one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import time

from treechoice.generate import (
    reward_table_for_tree,
    rng_for,
    seeded_rule_policy,
    subseed,
)
from treechoice.laws import check_subtree_perfectness, falsify_property
from treechoice.model import GambleSet
from treechoice.props import PropertyId
from treechoice.solve import (
    back_opt,
    check_normal_extensive_equivalence,
    equivalence_for_solution,
    induced_gambles,
    norm_opt,
)
from treechoice.trees import gamb, nfd, restrict_solution

from conftest import CORPUS_CONFIG, SEED, equivalent_rewrite, path_choices

P = PropertyId


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL ({time.time() - start:.1f}s)")
                raise
            print(f"\nACCEPTANCE {name}: PASS ({time.time() - start:.1f}s)")

        return run

    return wrap


def rule_for(tree, name, index, credal_size=2):
    policy = seeded_rule_policy(name, credal_size=credal_size)
    rewards = reward_table_for_tree(tree)
    return policy(tree.space, rewards, rng_for("acceptance", name, index))


@criterion("counterexample-reproduction")
def test_counterexample_reproduction(incomparable_doc, incomparable_dominance):
    tree = incomparable_doc.tree
    x, y, z = ("m1", "m1"), ("m2", "p2"), ("z", "z")

    root_report = norm_opt(tree, incomparable_dominance)
    assert {g.values for g in root_report.induced} == {y, z}

    node_n = (0,)
    sub_report = norm_opt(tree.subtree_at(node_n), incomparable_dominance)
    assert {g.values for g in sub_report.induced} == {x, y}

    restricted = restrict_solution(root_report.solution, node_n)
    assert {g.values for g in induced_gambles(restricted)} == {y}

    perfection = check_subtree_perfectness(tree, incomparable_dominance)
    assert [tree.path_of(v.node) for v in perfection.violations()] == [node_n]


@criterion("strategy-gamble-vectors")
def test_lake_gamble_vectors(lake_doc):
    assert lake_doc.event_named("S1") == lake_doc.space.event(["w1", "w3"])
    assert lake_doc.event_named("E1") == lake_doc.space.event(["w1", "w2"])
    values = {g.values for g in gamb(lake_doc.tree)}
    assert ("r9", "r9", "r14", "r14") in values
    assert ("r9", "r4", "r14", "r19") in values


@criterion("perfectness-suite")
def test_perfectness_suite(acceptance_corpus):
    for prop in (P.P1_conditioning, P.P2_intersection, P.P3_mixture):
        report = falsify_property(
            prop,
            seeded_rule_policy("eu_max"),
            config=CORPUS_CONFIG,
            budget=1000,
            seed=SEED,
        )
        assert report.verdict == "corroborated", (prop, report.witness)
        assert report.instances_checked == 1000
    for index, tree in enumerate(acceptance_corpus):
        rule = rule_for(tree, "eu_max", index)
        perfection = check_subtree_perfectness(tree, rule)
        assert perfection.perfect, f"violation on corpus tree {index}"


@criterion("backward-induction-suite")
def test_backward_induction_suite(acceptance_corpus):
    for name in ("eu_max", "pointwise_dominance", "maximality", "e_admissibility"):
        for index, tree in enumerate(acceptance_corpus):
            rule = rule_for(tree, name, index)
            backward = back_opt(tree, rule).solution
            normal = norm_opt(tree, rule).solution
            assert backward == normal, (name, index)


@criterion("falsification-suite")
def test_falsification_suite():
    p2 = falsify_property(
        P.P2_intersection,
        seeded_rule_policy("pointwise_dominance"),
        config=CORPUS_CONFIG,
        budget=1000,
        seed=SEED,
    )
    assert p2.violated and p2.instances_checked <= 1000
    assert len(p2.witness.instance.gambles) <= 3
    assert p2.witness.instance.space.size <= 2

    p6 = falsify_property(
        P.P6_total_preorder,
        seeded_rule_policy("maximality", credal_size=2),
        config=CORPUS_CONFIG,
        budget=1000,
        seed=SEED,
    )
    assert p6.violated
    detail = p6.witness.detail
    assert "intransitive_cycle" in detail or "incomparable_pair" in detail


@criterion("consistency-equivalents-suite")
def test_consistency_equivalents_suite():
    props = (
        P.P2_intersection,
        P.P4_strong_path_independence,
        P.P5_very_strong_path_independence,
        P.P6_total_preorder,
    )
    for name in ("eu_max", "pointwise_dominance", "maximality"):
        verdicts = {}
        witnesses = {}
        for prop in props:
            report = falsify_property(
                prop,
                seeded_rule_policy(name),
                config=CORPUS_CONFIG,
                budget=500,
                seed=SEED,
            )
            verdicts[prop] = report.verdict
            witnesses[prop] = report.witness
        distinct = set(verdicts.values())
        assert len(distinct) == 1, (name, verdicts)
        if distinct == {"violated"}:
            assert all(w is not None for w in witnesses.values())


@criterion("structural-law-suite")
def test_structural_law_suite(acceptance_corpus):
    # the gamble-set recursion is the oracle's: the library's `gamb` is the
    # strategy enumeration's own root pool (imported here, as the oracle's
    # module imports this one)
    from test_differential import literal_gamb

    for index, tree in enumerate(acceptance_corpus):
        members = nfd(tree)
        assert literal_gamb(tree) == GambleSet(m.gamble for m in members), index
        for name in ("eu_max", "pointwise_dominance", "maximality", "e_admissibility"):
            rule = rule_for(tree, name, index)
            report = norm_opt(tree, rule)
            assert induced_gambles(report.solution) == rule.select(
                gamb(tree), tree.root_event
            ), (name, index)
    for index, tree in enumerate(acceptance_corpus[:50]):
        rule = rule_for(tree, "eu_max", index)
        reference = induced_gambles(norm_opt(tree, rule).solution)
        for variant_index in range(10):
            variant = equivalent_rewrite(
                tree, seed=subseed("acceptance-rewrite", index, variant_index), steps=4
            )
            assert variant.root_event == tree.root_event
            assert induced_gambles(norm_opt(variant, rule).solution) == reference


@criterion("normal-extensive-equivalence")
def test_normal_extensive_equivalence(acceptance_corpus, cross_doc):
    for index, tree in enumerate(acceptance_corpus):
        rule = rule_for(tree, "eu_max", index)
        assert check_normal_extensive_equivalence(tree, rule), index

    members = {path_choices(m): m for m in nfd(cross_doc.tree)}
    injected = frozenset(
        (
            members[(((0,), 0), ((1,), 1))],
            members[(((0,), 1), ((1,), 0))],
        )
    )
    verdict = equivalence_for_solution(cross_doc.tree, injected)
    assert not verdict
    assert path_choices(verdict.witness) == (((0,), 0), ((1,), 0))
