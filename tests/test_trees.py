import re
import sys
import tracemalloc

import pytest

from treechoice.errors import (
    EmptySubtreeEvent,
    EnumerationLimitExceeded,
    NotAPartition,
    UnknownNode,
)
from treechoice.laws import check_subtree_perfectness
from treechoice.model import (
    Gamble,
    GambleSet,
    PossibilitySpace,
    RewardTable,
    check_a_consistency,
    require_partition,
)
from treechoice.rules import ChoiceContext, make_rule
from treechoice.solve import extract_extensive
from treechoice.textio import document_for, export_dot
from treechoice.trees import (
    Chance,
    Decision,
    DecisionTree,
    Leaf,
    NormalFormDecision,
    consistent_tree_for,
    gamb,
    nfd,
    nfd_count,
    restrict_solution,
    strategically_equivalent,
    validate,
)

from conftest import over_cap_tree, same_up_to_chance_order

W2 = PossibilitySpace(("a1", "a2"))
A = W2.event(["a1"])
AC = W2.event(["a2"])


def incomparable_tree():
    inner = Decision((Leaf("m1"), Chance(((A, Leaf("m2")), (AC, Leaf("p2"))))))
    return DecisionTree.over(W2, Decision((inner, Leaf("z"))))


def test_validate_fixtures(incomparable_doc, lake_doc, cross_doc, leaf_doc):
    for doc in (incomparable_doc, lake_doc, cross_doc, leaf_doc):
        assert validate(doc.tree) is doc.tree


def test_single_leaf_is_consistent():
    tree = DecisionTree.over(W2, Leaf("z"))
    assert validate(tree) is tree


def test_duplicate_branch_event_is_not_a_partition():
    with pytest.raises(NotAPartition) as err:
        DecisionTree.over(W2, Chance(((A, Leaf("x")), (A, Leaf("y")))))
    assert err.value.node_id == ()
    assert str(err.value) == "chance branch events must partition the space at node []"


def test_a_partition_error_names_its_node_when_it_has_one():
    broken = Chance(((A, Leaf("x")), (A, Leaf("y"))))
    with pytest.raises(NotAPartition) as err:
        DecisionTree.over(W2, Decision((Leaf("z"), broken)))
    assert err.value.node_id == (1,)
    assert str(err.value) == "chance branch events must partition the space at node [1]"
    with pytest.raises(NotAPartition) as err:
        require_partition([A, A])  # a model-level check has no node
    assert err.value.node_id is None
    assert str(err.value) == "events must be non-empty, disjoint, and cover the space"


def test_empty_history_rejected_with_node():
    # the A-branch then an inner chance node reachable only on AC
    inner = Chance(((A, Leaf("x")), (AC, Leaf("y"))))
    with pytest.raises(EmptySubtreeEvent) as err:
        DecisionTree(W2, Chance(((A, inner), (AC, Leaf("z")))), W2.omega)
    assert err.value.node_id == (0, 1)  # AC-branch under the A-branch


def test_empty_root_event_rejected():
    with pytest.raises(EmptySubtreeEvent):
        DecisionTree(W2, Leaf("z"), W2.empty_event)


def test_subtree_at_root_is_identity(incomparable_doc):
    assert incomparable_doc.tree.subtree_at(()) == incomparable_doc.tree


def test_subtree_at_lake_newspaper_branch(lake_doc):
    # the subtree after the first signal branch carries ev = S1
    sub = lake_doc.tree.subtree_at((0, 0))
    assert sub.root_event == lake_doc.event_named("S1")
    assert isinstance(sub.root, Decision) and len(sub.root.children) == 2


def test_subtree_at_incomparable_node_n(incomparable_doc):
    sub = incomparable_doc.tree.subtree_at((0,))
    assert {g.values for g in gamb(sub)} == {("m1", "m1"), ("m2", "p2")}


def test_subtree_unknown_node(incomparable_doc):
    tree = incomparable_doc.tree
    # the root has no child 5; the node at (0, 0) is a leaf
    for path in ((5,), (0, 0, 0)):
        message = re.escape(f"no node at path {list(path)}")
        with pytest.raises(UnknownNode, match=message):
            tree.subtree_at(path)
        with pytest.raises(UnknownNode, match=message):
            restrict_solution(nfd(tree), path)


def test_subtree_composes(lake_doc):
    outer = lake_doc.tree.subtree_at((0,))
    assert outer.subtree_at((0,)) == lake_doc.tree.subtree_at((0, 0))


def test_nfd_leaf(leaf_doc):
    assert nfd_count(leaf_doc.tree) == 1
    members = nfd(leaf_doc.tree)
    assert len(members) == 1
    assert members[0].gamble.values == ("zero",)


def test_nfd_lake_count_matches_recursion_oracle(lake_doc):
    # oracle: product over chance branches, sum over decision children
    # buy branch: 2 * 2 = 4; direct branch: 1 + 1 = 2; root: 4 + 2 = 6
    assert nfd_count(lake_doc.tree) == 6
    assert len(nfd(lake_doc.tree)) == 6


def test_nfd_incomparable_three_strategies(incomparable_doc):
    members = nfd(incomparable_doc.tree)
    assert len(members) == 3
    assert {m.gamble.values for m in members} == {
        ("m1", "m1"),
        ("m2", "p2"),
        ("z", "z"),
    }


def test_nfd_cap():
    # the one walk that lists every strategy counts them up front
    with pytest.raises(
        EnumerationLimitExceeded, match="^100489 normal form decisions exceed the cap of 100000$"
    ):
        nfd(over_cap_tree(["a", "b", "c"]))


def test_gamb_equals_union_over_nfd(incomparable_doc, lake_doc, cross_doc):
    for doc in (incomparable_doc, lake_doc, cross_doc):
        direct = gamb(doc.tree)
        via_members = GambleSet(m.gamble for m in nfd(doc.tree))
        assert direct == via_members
        assert len(direct) <= nfd_count(doc.tree)


def test_unary_decision_prefix_is_neutral():
    base = incomparable_tree()
    wrapped = DecisionTree(W2, Decision((base.root,)), base.root_event)
    verdict = strategically_equivalent(base, wrapped)
    assert verdict and verdict.ev_equal


def test_flattening_nested_decisions_is_neutral():
    t1, t2, t3 = Leaf("m1"), Leaf("m2"), Leaf("z")
    nested = DecisionTree.over(W2, Decision((Decision((t1, t2)), t3)))
    flat = DecisionTree.over(W2, Decision((t1, t2, t3)))
    # oracle: both gamble sets by brute-force union over the leaves
    assert {g.values for g in gamb(nested)} == {g.values for g in gamb(flat)}
    assert strategically_equivalent(nested, flat)


def test_tree_equals_itself_strategically(incomparable_doc):
    assert strategically_equivalent(incomparable_doc.tree, incomparable_doc.tree)


def test_restrict_solution_at_root(incomparable_doc):
    members = frozenset(nfd(incomparable_doc.tree))
    assert restrict_solution(members, ()) == members


def test_restrict_solution_incomparable(incomparable_doc, incomparable_dominance):
    from treechoice.solve import induced_gambles, norm_opt

    solution = norm_opt(incomparable_doc.tree, incomparable_dominance).solution
    restricted = restrict_solution(solution, (0,))
    assert {g.values for g in induced_gambles(restricted)} == {("m2", "p2")}


def test_restrict_solution_disjoint_node_is_empty(incomparable_doc):
    members = [m for m in nfd(incomparable_doc.tree) if m.choice_map[0] == 1]
    assert restrict_solution(members, (0,)) == frozenset()


def test_contains_node(incomparable_doc):
    tree = incomparable_doc.tree
    z_member = next(m for m in nfd(tree) if m.gamble.values == ("z", "z"))
    assert z_member.contains_node(tree.id_of(()))
    assert z_member.contains_node(tree.id_of((1,)))
    assert not z_member.contains_node(tree.id_of((0,)))
    assert not z_member.contains_node(tree.id_of((0, 1, 0)))


def test_consistency_characterizations_agree():
    # inverse-map acceptance must match representability by the
    # constructive tree: same event, same gamble set, consistent
    space = PossibilitySpace(("x", "y", "z"))
    a = space.event(["x", "y"])
    good = GambleSet(
        [Gamble(space, ("1", "2", "1")), Gamble(space, ("2", "2", "2"))]
    )
    assert check_a_consistency(good, a)
    tree = consistent_tree_for(good, a)
    assert validate(tree) is tree
    assert tree.root_event == a
    assert gamb(tree) == good


def test_consistency_constructive_tree_on_fixture_sets(lake_doc):
    pool = gamb(lake_doc.tree)
    tree = consistent_tree_for(pool, lake_doc.space.omega)
    assert gamb(tree) == pool


def test_same_up_to_chance_order():
    t = Chance(((A, Leaf("x")), (AC, Leaf("y"))))
    s = Chance(((AC, Leaf("y")), (A, Leaf("x"))))
    assert same_up_to_chance_order(
        DecisionTree.over(W2, t), DecisionTree.over(W2, s)
    )
    assert DecisionTree.over(W2, t) != DecisionTree.over(W2, s)


def test_consistency_is_hereditary():
    from treechoice.generate import GenConfig, random_consistent_tree, subseed

    for i in range(30):
        tree = random_consistent_tree(GenConfig(max_depth=3), seed=subseed("her", i))
        for v, _ in tree.nodes():
            sub = tree.subtree_of(v)
            assert validate(sub) is sub


def test_nfd_cardinality_recursion_oracle():
    from treechoice.generate import GenConfig, random_consistent_tree, subseed

    def oracle(node):
        if isinstance(node, Leaf):
            return 1
        if isinstance(node, Chance):
            total = 1
            for _, child in node.branches:
                total *= oracle(child)
            return total
        return sum(oracle(c) for c in node.children)

    for i in range(30):
        tree = random_consistent_tree(GenConfig(max_depth=3), seed=subseed("card", i))
        assert nfd_count(tree) == oracle(tree.root) == len(nfd(tree))


def test_a_consistency_characterizations_agree_on_batch():
    # acceptance by the inverse-map test must coincide with representability
    # by the constructive tree, across generated instances
    from treechoice.generate import GenConfig, random_gamble_instance, subseed
    from treechoice.props import PropertyId

    for i in range(100):
        inst = random_gamble_instance(
            PropertyId.P1_conditioning, GenConfig(), seed=subseed("char", i)
        )
        assert check_a_consistency(inst.gambles, inst.given)
        tree = consistent_tree_for(inst.gambles, inst.given)
        assert validate(tree) is tree
        assert tree.root_event == inst.given
        assert gamb(tree) == inst.gambles


def deep_chain(depth, level, bottom):
    node = bottom
    for _ in range(depth):
        node = level(node)
    return DecisionTree.over(W2, node)


def test_every_tree_reader_walks_a_5000_deep_chain():
    # each level: a decision between a leaf and the next level
    depth = 5000
    tree = deep_chain(depth, lambda node: Decision((Leaf("0"), node)), Leaf("1"))
    assert validate(tree) is tree
    assert len(tree.index.nodes) == 2 * depth + 1
    assert tree.path_of(2 * depth) == (1,) * depth
    assert tree.id_of((1,) * depth) == 2 * depth
    assert tree.node_counts() == {"decision": depth, "chance": 0, "leaf": depth + 1}
    assert tree.leaf_rewards() == ("0", "1")
    document = document_for(tree)
    assert document.events == () and document.reward_order == ("0", "1")
    assert document.serialize().endswith(
        "tree = " + "decision(leaf(0), " * depth + "leaf(1)" + ")" * depth + "\n"
    )
    # take the leaf at the root: everything below the other arc is unreachable
    leaf_first = NormalFormDecision.of(tree, {(): 0})
    extensive = extract_extensive(tree, [leaf_first])
    assert (extensive.kept_arcs, extensive.pruned_arcs) == ({1}, {2})
    assert len(extensive.unreachable) == 2 * depth - 1
    assert nfd_count(tree) == depth + 1
    assert {g.values for g in gamb(tree)} == {("0", "0"), ("1", "1")}
    other = deep_chain(depth, lambda node: Decision((Leaf("0"), node)), Leaf("2"))
    assert not same_up_to_chance_order(tree, other)


def traced_peak_mb(call):
    """The peak of the memory Python allocates while `call()` runs, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_node_ids_keep_memory_linear_on_a_deep_first_chain():
    # each level: a decision between the next level and a leaf, so the
    # chain-following strategy keeps the first arc everywhere
    peaks = {}
    for depth in (2500, 5000):
        root = deep_chain(depth, lambda node: Decision((node, Leaf("0"))), Leaf("1")).root
        tree = DecisionTree.over(W2, root)
        member = NormalFormDecision(
            tree, tuple((v, 0) for v, node in tree.nodes() if isinstance(node, Decision))
        )
        peaks[depth] = [
            traced_peak_mb(lambda: DecisionTree.over(W2, root)),
            traced_peak_mb(lambda: extract_extensive(tree, [member])),
        ]
    # path tuples made both of these grow 4x when the depth doubled, to
    # 96 and 385 MB at depth 5,000
    for small, large in zip(peaks[2500], peaks[5000]):
        assert large <= 2.5 * small and large < 10, peaks


def test_a_perfectness_report_keeps_memory_linear_on_a_deep_chance_chain():
    # each level: a chance node with one branch over the whole space, so
    # every node is reached and compared
    rule = make_rule("pointwise_dominance", ChoiceContext(RewardTable({"0": 0})))
    peaks = {}
    for depth in (2500, 5000):
        tree = deep_chain(depth, lambda node: Chance(((W2.omega, node),)), Leaf("0"))
        peaks[depth] = traced_peak_mb(lambda: check_subtree_perfectness(tree, rule))
    # a path tuple per reached node made it grow 4x when the depth doubled,
    # to about 100 MB at depth 5,000
    assert peaks[5000] <= 2.5 * peaks[2500] and peaks[5000] < 10, peaks


def test_the_strategy_readers_walk_a_5000_deep_chance_chain():
    # each level: a chance node with one branch over the whole space, so
    # the one strategy has no choices to carry down the chain
    depth = 5000
    split = Chance(((A, Leaf("x")), (AC, Leaf("y"))))
    tree = deep_chain(depth, lambda node: Chance(((W2.omega, node),)), split)
    (member,) = nfd(tree)
    assert member.choices == () and member.gamble.values == ("x", "y")
    assert {g.values for g in gamb(tree)} == {("x", "y")}
    swapped = Chance(((AC, Leaf("y")), (A, Leaf("x"))))
    reordered = deep_chain(depth, lambda node: Chance(((W2.omega, node),)), swapped)
    assert same_up_to_chance_order(tree, reordered)


def test_export_dot_draws_a_chain_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 1
    tree = deep_chain(depth, lambda node: Decision((Leaf("0"), node)), Leaf("1"))
    lines = export_dot(tree).splitlines()
    # a node line for each of the 2 * depth + 1 nodes, an edge line for each
    # but the root, and the three framing lines
    assert len(lines) == 4 * depth + 4
    assert lines[2:5] == [
        '  n [shape=box, label=""];',
        '  n -> n0 [label="1"];',
        '  n0 [shape=plaintext, label="0"];',
    ]
    deepest = "n" + "_".join(["1"] * depth)
    assert lines[-3:] == [
        f'  {deepest[:-2]} -> {deepest} [label="2"];',
        f"  {deepest} [shape=plaintext, label=\"1\"];",
        "}",
    ]
