import gc
from collections import Counter
from fractions import Fraction

import pytest

from treechoice.errors import (
    DuplicateDefinition,
    TreeSyntaxError,
    UnknownReference,
)
from treechoice.generate import GenConfig, random_consistent_tree, subseed
from treechoice.solve import norm_opt
from treechoice.textio import (
    document_for,
    export_dot,
    gamble_set_json,
    instance_json,
    jsonable,
    parse_context_file,
    parse_tree_file,
    serialize_context,
    solution_json,
)
from treechoice.trees import gamb

from conftest import FIXTURES


FIXTURE_NAMES = ["incomparable.tree", "lake.tree", "cross.tree", "leaf.tree"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trip_bit_exact(name):
    text = (FIXTURES / name).read_text()
    assert parse_tree_file(text).serialize() == text


def test_parsing_leaves_no_closure_for_the_cyclic_collector():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name in FIXTURE_NAMES:
            parse_tree_file((FIXTURES / name).read_text())
        gc.collect()
        kinds = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kinds["function"] == kinds["cell"] == 0, kinds


def test_parse_incomparable_semantics(incomparable_doc):
    assert incomparable_doc.space.states == ("a1", "a2")
    assert incomparable_doc.rewards.utility("m2") == -2
    assert {g.values for g in gamb(incomparable_doc.tree)} == {
        ("m1", "m1"),
        ("m2", "p2"),
        ("z", "z"),
    }


def test_parse_accepts_comments_and_blank_lines():
    doc = parse_tree_file(
        "# a comment\n\nomega a b # trailing\nreward one = 1\n\ntree = leaf(one)\n"
    )
    assert doc.tree.root.reward == "one"


def test_parse_root_event():
    doc = parse_tree_file(
        "omega a b\nreward one = 1\nevent A = a\nroot_event A\ntree = leaf(one)\n"
    )
    assert doc.tree.root_event == doc.space.event(["a"])
    assert doc.serialize().splitlines()[-2] == "root_event A"


def test_parse_rational_rewards():
    doc = parse_tree_file("omega a\nreward half = 1/2\ntree = leaf(half)\n")
    assert doc.rewards.utility("half") == Fraction(1, 2)


def test_empty_tree_expression_is_syntax_error():
    with pytest.raises(TreeSyntaxError):
        parse_tree_file("omega a\nreward one = 1\ntree = \n")


def test_syntax_error_carries_position():
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree_file("omega a\nreward one = 1\ntree = leaf(one\n")
    assert err.value.line == 3
    assert err.value.col > 0


def test_unknown_reward_reference():
    with pytest.raises(UnknownReference):
        parse_tree_file("omega a\ntree = leaf(ghost)\n")


def test_unknown_event_reference():
    with pytest.raises(UnknownReference):
        parse_tree_file(
            "omega a b\nreward one = 1\ntree = chance(E: leaf(one), F: leaf(one))\n"
        )


def test_duplicate_definitions_rejected():
    with pytest.raises(DuplicateDefinition):
        parse_tree_file(
            "omega a\nreward one = 1\nreward one = 2\ntree = leaf(one)\n"
        )
    with pytest.raises(DuplicateDefinition):
        parse_tree_file(
            "omega a b\nreward one = 1\nevent A = a\nevent A = b\ntree = leaf(one)\n"
        )


def test_unknown_directive_rejected():
    with pytest.raises(TreeSyntaxError):
        parse_tree_file("omega a\nblorp x\ntree = leaf(x)\n")


def test_generated_trees_round_trip():
    for i in range(25):
        tree = random_consistent_tree(GenConfig(max_depth=3), seed=subseed("io", i))
        doc = document_for(tree)
        text = doc.serialize()
        again = parse_tree_file(text)
        assert again.tree == doc.tree
        assert again.serialize() == text


def test_document_for_names_a_proper_root_event():
    from treechoice.trees import DecisionTree, validate

    base = random_consistent_tree(GenConfig(max_depth=2), seed=subseed("re", 0))
    conditioned = validate(
        DecisionTree(base.space, base.root, base.space.event(base.space.states[:1]))
    )
    doc = document_for(conditioned)
    text = doc.serialize()
    assert "root_event" in text
    assert parse_tree_file(text).tree == conditioned


def test_context_round_trip():
    text = (FIXTURES / "incomparable_credal.ctx").read_text()
    ctx = parse_context_file(text)
    assert ctx.credal is not None and len(ctx.credal) == 2
    assert ctx.credal[0]["a1"] == Fraction(3, 4)
    reparsed = parse_context_file(serialize_context(ctx))
    assert reparsed == ctx


def test_context_binding_requires_full_cover(incomparable_doc):
    ctx = parse_context_file("prob a1 = 1\n")
    with pytest.raises(UnknownReference):
        ctx.bind(incomparable_doc.space, incomparable_doc.rewards)
    ctx2 = parse_context_file("prob a1 = 1/2\nprob zz = 1/2\n")
    with pytest.raises(UnknownReference):
        ctx2.bind(incomparable_doc.space, incomparable_doc.rewards)


def test_context_unterminated_block():
    with pytest.raises(TreeSyntaxError):
        parse_context_file("credal {\nprob a1 = 1\n")


def test_dot_counts_lake(lake_doc):
    # oracle: count node kinds programmatically from the fixture
    counts = lake_doc.tree.node_counts()
    assert counts == {"decision": 4, "chance": 7, "leaf": 12}
    dot = export_dot(lake_doc.tree, rewards=lake_doc.rewards)
    assert dot.count("shape=box") == counts["decision"]
    assert dot.count("shape=circle") == counts["chance"]
    assert dot.count("shape=plaintext") == counts["leaf"]


def test_dot_single_leaf(leaf_doc):
    dot = export_dot(leaf_doc.tree, rewards=leaf_doc.rewards)
    assert dot.count("shape=") == 1
    assert "->" not in dot


def test_dot_incomparable_solution_dashes_one_arc(incomparable_doc, incomparable_dominance):
    solution = norm_opt(incomparable_doc.tree, incomparable_dominance).solution
    dot = export_dot(incomparable_doc.tree, rewards=incomparable_doc.rewards, solution=solution)
    assert dot.count("style=dashed") == 1


def test_dot_labels_carry_utilities(incomparable_doc):
    dot = export_dot(incomparable_doc.tree, rewards=incomparable_doc.rewards)
    assert 'label="m2 = -2"' in dot


def test_dot_escapes_quotes_and_backslashes_in_labels():
    doc = parse_tree_file(
        'omega w"1 w\\2\n'
        'reward x"y = 1\n'
        'reward a\\b = 2\n'
        'event E = w"1\n'
        'event F = w\\2\n'
        'tree = chance(E: leaf(x"y), F: leaf(a\\b))\n'
    )
    dot = export_dot(doc.tree, rewards=doc.rewards)
    assert 'label="{w\\"1}"' in dot
    assert 'label="x\\"y = 1"' in dot
    assert 'label="{w\\\\2}"' in dot
    assert 'label="a\\\\b = 2"' in dot


def test_solution_json_is_sorted_arc_lists(incomparable_doc, incomparable_dominance):
    solution = norm_opt(incomparable_doc.tree, incomparable_dominance).solution
    payload = solution_json(solution)
    assert payload == [[[0], [0, 1]], [[1]]]


def test_jsonable_fraction_and_sets(incomparable_doc):
    pool = gamb(incomparable_doc.tree)
    assert jsonable(Fraction(4, 2)) == "2"
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(pool) == gamble_set_json(pool)
    assert jsonable({"k": (1, 2)}) == {"k": [1, 2]}


def test_instance_json_shapes(incomparable_doc):
    from treechoice.props import SubsetInstance

    pool = gamb(incomparable_doc.tree)
    inst = SubsetInstance(pool, pool, incomparable_doc.space.omega)
    payload = instance_json(inst)
    assert payload["shape"] == "subset"
    assert payload["space"] == ["a1", "a2"]
