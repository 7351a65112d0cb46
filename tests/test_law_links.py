"""Cross-checks tying the property verdicts to solver behavior on a shared
seeded corpus (smaller scale than the acceptance suite)."""

import pytest

from treechoice.generate import (
    GenConfig,
    reward_table_for_tree,
    rng_for,
    seeded_rule_policy,
    subseed,
    tree_corpus,
)
from treechoice.laws import check_subtree_perfectness, falsify_property
from treechoice.model import GambleSet
from treechoice.props import PropertyId
from treechoice.rules import ChoiceContext, make_rule
from treechoice.solve import (
    back_opt,
    check_normal_extensive_equivalence,
    induced_gambles,
    norm_opt,
)
from treechoice.trees import gamb, nfd, restrict_solution

from conftest import FussyPairsRule, equivalent_rewrite, load_context, load_doc

P = PropertyId
CORPUS_CONFIG = GenConfig(max_depth=3, omega_range=(2, 5), nfd_ceiling=120)
SEED = 2024


@pytest.fixture(scope="module")
def corpus():
    """The law links' own corpus: 25 trees, smaller than the acceptance ones."""
    return tree_corpus(CORPUS_CONFIG, SEED, 25)


def rule_for(tree, name, index):
    policy = seeded_rule_policy(name, credal_size=2)
    rewards = reward_table_for_tree(tree)
    return policy(tree.space, rewards, rng_for("link-rule", name, SEED, index))


def corroborates(name, prop, budget=150):
    report = falsify_property(
        prop, seeded_rule_policy(name), config=CORPUS_CONFIG, budget=budget, seed=SEED
    )
    return report.verdict == "corroborated"


def test_conditioning_property_for_dominance_and_eu():
    assert corroborates("pointwise_dominance", P.P1_conditioning)
    assert corroborates("eu_max", P.P1_conditioning)


def test_core_properties_imply_perfectness_for_eu(corpus):
    # P1, P2, P3 corroborated, so subtree perfectness must hold corpus-wide
    assert all(corroborates("eu_max", p) for p in (P.P1_conditioning, P.P2_intersection, P.P3_mixture))
    for i, tree in enumerate(corpus):
        report = check_subtree_perfectness(tree, rule_for(tree, "eu_max", i))
        assert report.perfect, f"joint counterexample at corpus tree {i}"


@pytest.mark.parametrize(
    "name", ["eu_max", "pointwise_dominance", "maximality", "e_admissibility"]
)
def test_backward_properties_imply_backward_induction(name, corpus):
    for prop in (
        P.P7_backward_conditioning,
        P.P8_insensitivity,
        P.P9_preservation,
        P.P10_backward_mixture,
    ):
        assert corroborates(name, prop), f"{name} unexpectedly violates {prop}"
    for i, tree in enumerate(corpus):
        rule = rule_for(tree, name, i)
        assert back_opt(tree, rule).solution == norm_opt(tree, rule).solution


PRODUCT = ("laws/product.tree", "laws/product_credal.ctx")


@pytest.mark.parametrize(
    "fixture, context, rule_name, verdicts, witness",
    [
        # the witness swaps two root members' arcs; each arc is the path
        # of its child, as reports print it
        ("laws/pd.tree", None, "pointwise_dominance", "sWeB", [(0,), (0, 0, 0), (0, 1, 1)]),
        (*PRODUCT, "maximality", "SWeB", [(0, 0), (1, 0)]),
        (*PRODUCT, "e_admissibility", "SWeB", [(0, 0), (1, 0)]),
        ("incomparable.tree", None, "pointwise_dominance", "sWEB", None),
    ],
)
def test_perfectness_and_equivalence_differ_on_one_tree(
    fixture, context, rule_name, verdicts, witness
):
    # S strong and W weak perfectness, E normal-extensive equivalence, B
    # backward induction equal to the normal form; upper case where it holds
    doc = load_doc(fixture)
    bound = ChoiceContext(doc.rewards) if context is None else load_context(context).bind(
        doc.space, doc.rewards
    )
    rule = make_rule(rule_name, bound)
    equivalence = check_normal_extensive_equivalence(doc.tree, rule)
    holds = (
        check_subtree_perfectness(doc.tree, rule).perfect,
        check_subtree_perfectness(doc.tree, rule, weak=True).perfect,
        equivalence.equal,
        back_opt(doc.tree, rule).solution == norm_opt(doc.tree, rule).solution,
    )
    assert "".join(c if h else c.lower() for c, h in zip("SWEB", holds)) == verdicts
    found = equivalence.witness
    assert (found and [doc.tree.path_of(arc) for arc in found.arcs]) == witness


def test_backward_properties_imply_weak_perfectness(corpus):
    for prop in (P.P7_backward_conditioning, P.P9_preservation, P.P10_backward_mixture):
        assert corroborates("pointwise_dominance", prop)
    for i, tree in enumerate(corpus):
        rule = rule_for(tree, "pointwise_dominance", i)
        assert check_subtree_perfectness(tree, rule, weak=True).perfect


@pytest.mark.parametrize("name", ["gamma_maximin", "interval_dominance"])
def test_backward_mixture_witness_converts_to_divergence(name):
    # the two rules not covered by the backward-induction result violate the
    # backward mixture property; the witness instance, replayed as a
    # two-branch tree, must then split back_opt from norm_opt
    from treechoice.laws import divergence_tree_for_mixture_witness

    report = falsify_property(
        P.P10_backward_mixture,
        seeded_rule_policy(name, credal_size=2),
        config=CORPUS_CONFIG,
        budget=1500,
        seed=SEED,
    )
    assert report.violated, f"{name} unexpectedly satisfies the backward mixture law"
    tree = divergence_tree_for_mixture_witness(report.witness.instance)
    rule = report.witness.rule
    assert back_opt(tree, rule).solution != norm_opt(tree, rule).solution
    # the same tree witnesses the loss of weak subtree perfectness: the
    # overall-optimal strategy restricts to a non-optimal one at the fan
    weak = check_subtree_perfectness(tree, rule, weak=True)
    assert any(tree.path_of(v.node) == (0,) for v in weak.violations())


def test_divergent_rule_also_violates_a_backward_property():
    # the pathological pair-picking rule diverges (see solver tests), so it
    # must also violate one of the backward properties
    def policy(space, rewards, rng):
        return FussyPairsRule(ChoiceContext(rewards))

    report = falsify_property(
        P.P9_preservation, policy, config=CORPUS_CONFIG, budget=300, seed=SEED
    )
    assert report.violated


def test_consistency_equivalents_agree_per_rule():
    props = (
        P.P2_intersection,
        P.P4_strong_path_independence,
        P.P5_very_strong_path_independence,
        P.P6_total_preorder,
    )
    for name, expect_violated in (
        ("eu_max", False),
        ("pointwise_dominance", True),
        ("maximality", True),
    ):
        verdicts = {
            prop: falsify_property(
                prop,
                seeded_rule_policy(name),
                config=CORPUS_CONFIG,
                budget=250,
                seed=SEED,
            ).violated
            for prop in props
        }
        assert all(v == expect_violated for v in verdicts.values()), (name, verdicts)


def test_p11_agrees_with_p8_and_p9():
    for name in ("eu_max", "pointwise_dominance", "maximality"):
        p8 = corroborates(name, P.P8_insensitivity)
        p9 = corroborates(name, P.P9_preservation)
        p11 = corroborates(name, P.P11_path_independence)
        assert p11 == (p8 and p9)


def test_solution_invariance_across_rewrites(corpus):
    for i, tree in enumerate(corpus[:10]):
        for name in ("eu_max", "maximality"):
            rule = rule_for(tree, name, i)
            reference = induced_gambles(norm_opt(tree, rule).solution)
            for variant_seed in range(3):
                variant = equivalent_rewrite(
                    tree, seed=subseed("thm1", i, variant_seed), steps=4
                )
                assert variant.root_event == tree.root_event
                variant_gambles = induced_gambles(norm_opt(variant, rule).solution)
                assert variant_gambles == reference


def test_structural_laws_on_corpus(corpus):
    for i, tree in enumerate(corpus):
        members = nfd(tree)
        assert gamb(tree) == GambleSet(m.gamble for m in members)
        rule = rule_for(tree, "pointwise_dominance", i)
        report = norm_opt(tree, rule)
        assert induced_gambles(report.solution) == rule.select(
            gamb(tree), tree.root_event
        )


def test_backward_members_restrict_into_subtree_backward_solutions(corpus):
    for i, tree in enumerate(corpus[:8]):
        rule = rule_for(tree, "pointwise_dominance", i)
        solution = back_opt(tree, rule).solution
        for v, _ in tree.nodes():
            through = [m for m in solution if m.contains_node(v)]
            if not through or not v:
                continue
            path = tree.path_of(v)
            sub_solution = back_opt(tree.subtree_at(path), rule).solution
            restricted = restrict_solution(through, path)
            assert restricted <= sub_solution


def test_plan_reduction_on_corpus(corpus):
    for i, tree in enumerate(corpus[:15]):
        rule = rule_for(tree, "eu_max", i)
        solution = norm_opt(tree, rule).solution
        chosen = induced_gambles(solution)
        for member in nfd(tree):
            assert (member in solution) == (member.gamble in chosen)
