import pytest

from treechoice import solve
from treechoice.errors import EmptySolution
from treechoice.generate import (
    GenConfig,
    random_consistent_tree,
    reward_table_for_tree,
    rng_for,
    seeded_rule_policy,
    subseed,
)
from treechoice.model import PossibilitySpace, RewardTable
from treechoice.rules import ChoiceContext, MassFunction, make_rule
from treechoice.solve import (
    back_opt,
    check_normal_extensive_equivalence,
    equivalence_for_solution,
    extract_extensive,
    induced_gambles,
    nfd_of_extensive,
    norm_opt,
)
from treechoice.trees import (
    Decision,
    DecisionTree,
    Leaf,
    NormalFormDecision,
    gamb,
    nfd,
    nfd_count,
)

from conftest import FussyPairsRule, over_cap_tree, path_choices


def values_of(report):
    return {g.values for g in report.induced}


def test_norm_opt_incomparable_dominance(incomparable_doc, incomparable_dominance):
    report = norm_opt(incomparable_doc.tree, incomparable_dominance)
    assert values_of(report) == {("m2", "p2"), ("z", "z")}
    assert report.stats["nfd_count"] == 3
    assert len(report.solution) == 2


def test_norm_opt_single_leaf(leaf_doc):
    rule = make_rule("pointwise_dominance", ChoiceContext(leaf_doc.rewards))
    report = norm_opt(leaf_doc.tree, rule)
    assert len(report.solution) == 1
    assert values_of(report) == {("zero",)}


def test_norm_opt_lake_eu_uniform_strategies(lake_doc, lake_eu):
    report = norm_opt(lake_doc.tree, lake_eu)
    # the two direct strategies: root arc 1, then either final option
    choice_maps = {path_choices(m) for m in report.solution}
    assert choice_maps == {
        (((), 1), ((1,), 0)),
        (((), 1), ((1,), 1)),
    }
    assert values_of(report) == {
        ("r10", "r10", "r15", "r15"),
        ("r5", "r5", "r20", "r20"),
    }


def test_norm_opt_satisfies_induced_gamble_equality(incomparable_doc, lake_doc, incomparable_dominance, lake_eu):
    for doc, rule in ((incomparable_doc, incomparable_dominance), (lake_doc, lake_eu)):
        report = norm_opt(doc.tree, rule)
        selected = rule.select(gamb(doc.tree), doc.tree.root_event)
        assert induced_gambles(report.solution) == selected


def test_plan_reduction_same_gamble_in_or_out(lake_doc, lake_eu):
    # craft duplicate-gamble strategies directly:
    space = lake_doc.space
    rewards = lake_doc.rewards
    dup = DecisionTree.over(
        space,
        Decision(
            (
                Leaf("r9"),
                Leaf("r9"),
                Leaf("r4"),
            )
        ),
    )
    rule = make_rule(
        "eu_max", ChoiceContext(rewards, probability=MassFunction.uniform(space))
    )
    report = norm_opt(dup, rule)
    # both r9 strategies induce the same optimal gamble: both stay
    assert len(report.solution) == 2
    assert values_of(report) == {("r9",) * 4}


def test_back_opt_incomparable_two_stage_trace(incomparable_doc, incomparable_dominance):
    report = back_opt(incomparable_doc.tree, incomparable_dominance)
    normal = norm_opt(incomparable_doc.tree, incomparable_dominance)
    assert report.solution == normal.solution
    stages = {tuple(s["node"]): s for s in report.stats["stages"]}
    # subtree stage keeps both incomparable gambles, the root stage drops X
    assert stages[(0,)]["candidates"] == 2 and stages[(0,)]["kept"] == 2
    assert stages[()]["candidates"] == 3 and stages[()]["kept"] == 2


def test_back_opt_single_leaf(leaf_doc):
    rule = make_rule("pointwise_dominance", ChoiceContext(leaf_doc.rewards))
    assert back_opt(leaf_doc.tree, rule).solution == norm_opt(leaf_doc.tree, rule).solution


def test_back_opt_lake_eu_equals_norm_opt(lake_doc, lake_eu):
    assert back_opt(lake_doc.tree, lake_eu).solution == norm_opt(lake_doc.tree, lake_eu).solution


def test_back_opt_divergence_for_pathological_rule():
    space = PossibilitySpace(("s",))
    rewards = RewardTable.from_literals(["1", "2", "3"])
    tree = DecisionTree.over(
        space,
        Decision(
            (
                Decision((Leaf("2"), Leaf("3"))),
                Decision((Leaf("1"), Leaf("2"), Leaf("3"))),
            )
        ),
    )
    rule = FussyPairsRule(ChoiceContext(rewards))
    normal = norm_opt(tree, rule)
    backward = back_opt(tree, rule)
    assert len(normal.solution) == 5
    assert len(backward.solution) == 4
    only_normal = normal.solution - backward.solution
    assert {path_choices(m) for m in only_normal} == {(((), 0), ((0,), 1))}


def test_norm_opt_expands_on_all_states_at_the_root():
    # given ev = {a, b}, the gambles (1, 2, 1) and (1, 2, 2) agree on ev; a
    # rule that keeps one of them must get back only its strategies
    from treechoice.trees import Chance

    space = PossibilitySpace(("a", "b", "c"))

    def split(first, second):
        return Chance(((space.event(first), Leaf("1")), (space.event(second), Leaf("2"))))

    fork = Decision((split(["a", "c"], ["b"]), split(["a"], ["b", "c"])))
    tree = DecisionTree.over(
        space, Decision((fork, split(["a", "c"], ["b"]))), space.event(["a", "b"])
    )
    rewards = RewardTable.from_literals(["1", "2"])
    report = norm_opt(tree, FussyPairsRule(ChoiceContext(rewards)))
    assert (report.stats["nfd_count"], report.stats["gamble_count"]) == (3, 2)
    assert len(report.induced) == 1
    assert induced_gambles(report.solution) == report.induced


def test_extract_extensive_full_solution_prunes_nothing(lake_doc):
    members = frozenset(nfd(lake_doc.tree))
    extensive = extract_extensive(lake_doc.tree, members)
    assert not extensive.pruned_arcs
    assert not extensive.unreachable
    assert nfd_of_extensive(extensive) == members


def test_extract_extensive_incomparable_dominance(incomparable_doc, incomparable_dominance):
    report = norm_opt(incomparable_doc.tree, incomparable_dominance)
    extensive = extract_extensive(incomparable_doc.tree, report.solution)
    # exactly the arc to the plain -1 leaf at N is pruned
    arc = incomparable_doc.tree.id_of((0, 0))
    assert extensive.pruned_arcs == {arc}
    assert arc in extensive.unreachable


def test_extract_extensive_empty_solution(incomparable_doc):
    with pytest.raises(EmptySolution):
        extract_extensive(incomparable_doc.tree, frozenset())


def test_cross_example_injected_solution_fails(cross_doc):
    members = {path_choices(m): m for m in nfd(cross_doc.tree)}
    injected = frozenset(
        (
            members[(((0,), 0), ((1,), 1))],  # d(1)[1] d(2)[2]
            members[(((0,), 1), ((1,), 0))],  # d(1)[2] d(2)[1]
        )
    )
    verdict = equivalence_for_solution(cross_doc.tree, injected)
    assert not verdict
    # all four arcs were kept, so the expansion contains the two diagonals
    assert len(verdict.extensive.pruned_arcs) == 0
    assert path_choices(verdict.witness) == (((0,), 0), ((1,), 0))  # d(1)[1] d(2)[1]


def test_an_equivalence_that_holds_lists_nothing(
    incomparable_doc, lake_doc, cross_doc, incomparable_eu, lake_eu, monkeypatch
):
    listed = []

    def counted_nfd_of_extensive(extensive):
        listed.append(extensive)
        return nfd_of_extensive(extensive)

    monkeypatch.setattr(solve, "nfd_of_extensive", counted_nfd_of_extensive)
    assert check_normal_extensive_equivalence(incomparable_doc.tree, incomparable_eu)
    assert check_normal_extensive_equivalence(lake_doc.tree, lake_eu)
    assert listed == []
    # a failing one lists the expansion once, to name its witness
    members = nfd(cross_doc.tree)
    verdict = equivalence_for_solution(cross_doc.tree, members[1:3])
    assert not verdict and listed == [verdict.extensive]


def test_normal_extensive_equivalence_for_eu(incomparable_doc, lake_doc, incomparable_eu, lake_eu):
    assert check_normal_extensive_equivalence(incomparable_doc.tree, incomparable_eu)
    assert check_normal_extensive_equivalence(lake_doc.tree, lake_eu)


def test_normal_extensive_equivalence_single_leaf(leaf_doc):
    rule = make_rule("pointwise_dominance", ChoiceContext(leaf_doc.rewards))
    assert check_normal_extensive_equivalence(leaf_doc.tree, rule)


def test_restriction_members_match_subtree_solution_types(incomparable_doc, incomparable_eu):
    report = norm_opt(incomparable_doc.tree, incomparable_eu)
    for member in report.solution:
        assert isinstance(member, NormalFormDecision)
        assert member.gamble in report.induced


def test_back_opt_selects_at_chance_stages_too():
    # Per-branch incomparable gambles whose glue is expectation-dominated:
    # the branch stages prune nothing, so only the chance-root stage can
    # remove the dominated glue. A decision-only variant would keep it.
    from fractions import Fraction

    from treechoice.model import Gamble
    from treechoice.trees import Chance, chance_expansion

    space = PossibilitySpace(("w1", "w2", "w3", "w4"))
    e1, e2 = space.event(["w1", "w2"]), space.event(["w3", "w4"])
    a = Gamble(space, ("4", "0", "4", "0"))
    b = Gamble(space, ("0", "3", "0", "3"))
    fan = Decision((chance_expansion(a), chance_expansion(b)))
    tree = DecisionTree.over(space, Chance(((e1, fan), (e2, fan))))
    rewards = RewardTable.from_literals(["0", "3", "4"])
    credal = (
        MassFunction.of(space, {"w1": Fraction(3, 8), "w2": Fraction(1, 8),
                                "w3": Fraction(1, 8), "w4": Fraction(3, 8)}),
        MassFunction.of(space, {"w1": Fraction(1, 8), "w2": Fraction(3, 8),
                                "w3": Fraction(3, 8), "w4": Fraction(1, 8)}),
    )
    rule = make_rule("maximality", ChoiceContext(rewards, credal=credal))

    backward = back_opt(tree, rule)
    assert backward.solution == norm_opt(tree, rule).solution
    # the all-b glue is dominated by the all-a glue under both credal points
    assert b not in backward.induced
    assert len(backward.induced) == 3
    root_stage = next(s for s in backward.stats["stages"] if s["node"] == [])
    assert root_stage["candidates"] == 4 and root_stage["kept"] == 3


def test_solving_conditions_on_the_root_event():
    # ev = {a, b}: the chance strategy pays 1 on a and 2 on b, the direct
    # leaf pays 3/2 everywhere, so conditionally they tie at 3/2
    from treechoice.model import PossibilitySpace
    from treechoice.textio import parse_tree_file

    doc = parse_tree_file(
        "omega a b c\n"
        "reward one = 1\n"
        "reward two = 2\n"
        "reward mid = 3/2\n"
        "event A = a\n"
        "event B = b c\n"
        "event AB = a b\n"
        "root_event AB\n"
        "tree = decision(chance(A: leaf(one), B: leaf(two)), leaf(mid))\n"
    )
    rule = make_rule(
        "eu_max",
        ChoiceContext(doc.rewards, probability=MassFunction.uniform(doc.space)),
    )
    report = norm_opt(doc.tree, rule)
    assert len(report.solution) == 2  # full argmax set on a tie
    assert back_opt(doc.tree, rule).solution == report.solution


def test_caps_propagate_through_both_solvers():
    from treechoice.errors import EnumerationLimitExceeded

    # every strategy has the one gamble, so both solutions hold all
    # 100,489 strategies: each solver refuses the chance node's product
    tree = over_cap_tree(["1"])
    rule = make_rule(
        "eu_max",
        ChoiceContext(RewardTable({"1": 1}), probability=MassFunction.uniform(tree.space)),
    )
    for solver in (norm_opt, back_opt):
        with pytest.raises(
            EnumerationLimitExceeded,
            match="^100489 glued candidates exceed the cap of 100000$",
        ):
            solver(tree, rule)


def test_solvers_agree_on_larger_trees():
    from treechoice.generate import (
        GenConfig,
        random_consistent_tree,
        reward_table_for_tree,
        rng_for,
        seeded_rule_policy,
        subseed,
    )

    config = GenConfig(max_depth=5, omega_range=(3, 8), nfd_ceiling=3000)
    policy = seeded_rule_policy("eu_max")
    for i in range(10):
        tree = random_consistent_tree(config, seed=subseed("big", i))
        rule = policy(tree.space, reward_table_for_tree(tree), rng_for("bigctx", i))
        assert back_opt(tree, rule).solution == norm_opt(tree, rule).solution


def chain_tree(link, depth):
    """`depth` nested nodes built by `link(child)` over one leaf."""
    space = PossibilitySpace(("a", "b"))
    node = Leaf("0")
    for _ in range(depth):
        node = link(space, node)
    return DecisionTree.over(space, node)


def solve_both(tree):
    rule = make_rule(
        "eu_max",
        ChoiceContext(
            RewardTable.from_literals(["0", "1"]),
            probability=MassFunction.uniform(tree.space),
        ),
    )
    return norm_opt(tree, rule), back_opt(tree, rule)


def test_solvers_reach_the_parser_depth_through_decisions():
    # as deep as the parser nests: each level offers the rest of the chain
    # or a leaf, so the count recursion runs to the bottom
    tree = chain_tree(lambda space, child: Decision((child, Leaf("1"))), 496)
    normal, backward = solve_both(tree)
    assert normal.stats["nfd_count"] == 497
    assert normal.stats["gamble_count"] == 2
    assert normal.solution == backward.solution
    assert len(normal.solution) == 496  # every strategy that takes a "1" leaf


def test_solvers_reach_the_parser_depth_through_chance_nodes():
    # one strategy: solution members are hashed without walking the tree
    from treechoice.trees import Chance

    tree = chain_tree(lambda space, child: Chance(((space.omega, child),)), 496)
    normal, backward = solve_both(tree)
    assert normal.solution == backward.solution
    assert [m.choices for m in normal.solution] == [()]


@pytest.mark.parametrize("name", ["pointwise_dominance", "maximality"])
def test_backward_exact_rules_agree_on_a_2k_strategy_tree(name):
    # the smallest rung of the benchmark ladder: 420 distinct gambles
    config = GenConfig(max_depth=6, max_children=3, omega_range=(6, 10), nfd_ceiling=100_000)
    tree = random_consistent_tree(config, subseed(20110916, "ladder", 45))
    assert 1_500 <= nfd_count(tree) <= 2_500
    rewards = reward_table_for_tree(tree)
    rule = seeded_rule_policy(name)(tree.space, rewards, rng_for("scale", name))
    normal = norm_opt(tree, rule)
    assert normal.stats["gamble_count"] == 420
    assert normal.solution == back_opt(tree, rule).solution
