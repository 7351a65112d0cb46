"""Differential checks: each production function against one oracle, the
definition it implements written plainly.

The play-out oracle computes a strategy's gamble by simulating each state
of the world through the tree (follow the kept arc at decision nodes, the
branch containing the state at chance nodes). It shares no code path with
the library's gamble algebra.

The literal oracle is the enumeration written once per operator, as the
definitions read: strategies as merged choice dicts, the gamble set as
constants at leaves, unions at decision nodes and set sums at chance
nodes, backward induction as its own recursion. The library derives all of
these from one bottom-up enumerator, `trees.strategies`, whose hooks are
checked through them: no hook by `nfd`, `select` by `back_opt` and `gamb`,
`keep_arc` by `nfd_of_extensive`.

The literal conditional expectation sums p(ω)u(g(ω)) and p(ω) over the
event's states on every call, in `Fraction`s. The library builds each
event's integer columns (the weights p(ω)/P(A) of its states under one
scale S shared by the event's columns) once per event under a score
table, and computes each row entry as one integer dot product with the
gamble's utilities times L, the table's common denominator: the entry is
S·L times the literal expectation.

The `Fraction` mass function holds one `Fraction` per state, renormalizes
by dividing them, and builds an event's columns from the conditional
weights as `Fraction`s, S being the lcm of their denominators. The library
holds whole-number weights in lowest terms and finds the same columns from
them in integers.

The literal rules compare every pair of gambles, recomputing conditional
expectations or utilities for each pair, as maximality, pointwise
dominance and interval dominance read. The library scores each gamble
once, sweeps against the undominated front (`rules.undominated`) and keeps
an interval-dominance gamble iff its upper bound reaches the greatest
lower bound.

The plain-`select` checks run a property's checker on the rule itself, and
each `select` of a scored check on a copy of the rule with no tables. The
library shares one score table between all `select` calls of an instance
check and answers a repeated (gamble set, event) from it.

The literal instance schema names every property-instance shape: one
restriction per shape, and witness JSON as an `isinstance` chain. The
library reads each shape's dataclass fields instead (`props.InstanceShape`).
The tests list an instance's gambles by the same kind of chain.

The literal falsifier instance path checks A-consistency through one
preimage event per attained reward, draws each reward pool as rationals,
re-validates every generated instance and values each reward literal as
the rational it spells. The library collects each gamble's rewards on the
event in one pass, spells reduced integer pairs, leaves validation to
`check_property_instance` and parses each literal once per process.

The literal node walks and folds are the recursions the tree readers and
builders were written as: preorder, consistency with the accumulated event
passed down, reachability, event naming, the strategy count, the DOT text
and the path replacement of the tests' rewrite generator. The library
reads one iterative walk, `DecisionTree.nodes`, and folds on one explicit
stack, `DecisionTree.fold`. The nested-string fold writes a document's
tree expression by copying each child's text into its parent's; the
library writes the pieces into one list.

The literal reader parses a tree expression by recursive descent into a
tuple AST and builds the nodes from it by recursion, once a level each,
and reads context lines in two branches, inside and outside a credal
block. The library checks the expression's syntax in one loop over its
tokens, with an explicit stack of what must follow, and builds the nodes
from their preorder listing in a second loop.

Consistency is checked by the `DecisionTree` constructor, so the literal
consistency recursion reads a tree's parts, and the crafted and broken
trees are (space, root, root_event) parts that construction must reject
exactly as it does. The member-by-member restriction restricts each member
of a solution on its own, with its own copy of the subtree; the library
cuts the subtree once per call.

The literal perfectness check solves the subtree copy of every node the
root solution reaches and restricts the root solution to it. The library
decides each node from the gamble pools of one walk and lists member sets
only at a failing node.
"""

import functools
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from treechoice import generate, laws, props, rules, solve
from treechoice.errors import (
    DuplicateDefinition,
    EmptyEvent,
    EmptySet,
    EmptySubtreeEvent,
    EnumerationLimitExceeded,
    GenerationRetryExhausted,
    InconsistentSet,
    MalformedInstance,
    NotAPartition,
    SpaceMismatch,
    TreechoiceError,
    TreeSyntaxError,
    UnknownReference,
)
from treechoice.generate import (
    GenConfig,
    random_consistent_tree,
    random_gamble_instance,
    reward_table_for_instance,
    reward_table_for_tree,
    rng_for,
    seeded_rule_policy,
    subseed,
)
from treechoice.cli import run_command
from treechoice.laws import check_property_instance, check_subtree_perfectness
from treechoice.model import (
    ConsistencyVerdict,
    Event,
    Gamble,
    GambleSet,
    PossibilitySpace,
    RewardTable,
    check_a_consistency,
    combine_on_partition,
    gamble_set_sum,
    is_partition,
)
from treechoice.props import (
    INSTANCE_SHAPES,
    BackwardConditioningInstance,
    ConditioningInstance,
    FamilyInstance,
    MixtureInstance,
    PropertyId,
    SetSumInstance,
    SubsetInstance,
)
from treechoice.rules import (
    RULES,
    ChoiceContext,
    EuMax,
    IntervalDominance,
    MassFunction,
    Maximality,
    PointwiseDominance,
)
from treechoice.solve import (
    ExtensiveSolution,
    back_opt,
    equivalence_for_solution,
    extract_extensive,
    induced_gambles,
    nfd_of_extensive,
    norm_opt,
)
from treechoice.trees import (
    Chance,
    Decision,
    DecisionTree,
    Leaf,
    NodeIndex,
    NormalFormDecision,
    chance,
    decision,
    gamb,
    nfd,
    nfd_count,
    restrict_solution,
    strategies,
    validate,
)
from treechoice.textio import (
    MAX_TREE_DEPTH,
    ContextDocument,
    TreeDocument,
    document_for,
    event_json,
    export_dot,
    gamble_json,
    gamble_set_json,
    instance_json,
    jsonable,
    parse_context_file,
    parse_tree_file,
    serialize_context,
    solution_json,
)

from conftest import FIXTURES, FussyPairsRule, over_cap_tree, path_choices, replace_node
from test_acceptance import rule_for

CONFIG = GenConfig(max_depth=4, omega_range=(2, 6), nfd_ceiling=250)


def path_map(member):
    """A strategy's kept child index per decision node path."""
    return dict(path_choices(member))


def arc_paths(member):
    """A strategy's kept decision arcs, each as the path of its child."""
    return sorted(q + (i,) for q, i in path_choices(member))


def play_out(tree, choices, state_index):
    node = tree.root
    path = ()
    while not isinstance(node, Leaf):
        if isinstance(node, Decision):
            index = choices[path]
            node = node.children[index]
        else:
            index = next(
                i
                for i, (event, _) in enumerate(node.branches)
                if event.contains_index(state_index)
            )
            node = node.branches[index][1]
        path = path + (index,)
    return node.reward


def oracle_gamble(tree, member):
    """A strategy's gamble: the reward each state plays out to."""
    choices = path_map(member)
    return Gamble(tree.space, tuple(play_out(tree, choices, i) for i in range(tree.space.size)))


def oracle_eu_solution(tree, members, probability, utilities):
    given = tree.root_event
    weight = sum(probability.masses[i] for i in given.indices())
    scores = {}
    for member in members:
        values = oracle_gamble(tree, member).values
        scores[member] = sum(
            (
                probability.masses[i] * utilities.utility(values[i])
                for i in given.indices()
            ),
            Fraction(0),
        ) / weight
    best = max(scores.values())
    return {m for m, s in scores.items() if s == best}


def literal_nfd(tree, kept=None):
    """All strategies, enumerated as merged choice dicts and sorted; given
    `kept`, a set of arc paths, only those whose every decision arc is in
    it."""

    def enumerate_node(node, path):
        if isinstance(node, Leaf):
            return [{}]
        if isinstance(node, Decision):
            return [
                {path: i, **sub}
                for i, child in enumerate(node.children)
                if kept is None or path + (i,) in kept
                for sub in enumerate_node(child, path + (i,))
            ]
        per_branch = [
            enumerate_node(child, path + (i,))
            for i, (_, child) in enumerate(node.branches)
        ]
        out = []
        for combo in itertools.product(*per_branch):
            merged = {}
            for sub in combo:
                merged.update(sub)
            out.append(merged)
        return out

    decisions = [NormalFormDecision.of(tree, c) for c in enumerate_node(tree.root, ())]
    return tuple(sorted(decisions, key=path_choices))


def literal_norm_opt(tree, rule):
    """Solution, induced gambles and stats of the normal form operator."""
    validate(tree)
    members = literal_nfd(tree)
    pool = gamb(tree)
    chosen = rule.select(pool, tree.root_event)
    solution = frozenset(m for m in members if oracle_gamble(tree, m) in chosen)
    stats = {
        "nodes": tree.node_counts(),
        "nfd_count": len(members),
        "gamble_count": len(pool),
        "solution_count": len(solution),
    }
    return solution, chosen, stats


def literal_back_opt(tree, rule):
    """Solution, induced gambles and stats of backward induction."""
    validate(tree)
    stages = []

    def solve(node, path, ev):
        if isinstance(node, Leaf):
            return [({}, Gamble.constant(tree.space, node.reward))]
        if isinstance(node, Decision):
            candidates = [
                ({path: i, **choices}, gamble)
                for i, child in enumerate(node.children)
                for choices, gamble in solve(child, path + (i,), ev)
            ]
        else:
            per_branch = [
                (event, solve(child, path + (i,), ev & event))
                for i, (event, child) in enumerate(node.branches)
            ]
            candidates = []
            for combo in itertools.product(*(sols for _, sols in per_branch)):
                merged = {}
                parts = []
                for (event, _), (choices, gamble) in zip(per_branch, combo):
                    merged.update(choices)
                    parts.append((event, gamble))
                candidates.append((merged, combine_on_partition(parts)))
        chosen = rule.select(GambleSet(g for _, g in candidates), ev)
        kept = [(c, g) for c, g in candidates if g in chosen]
        stages.append(
            {"node": list(path), "candidates": len(candidates), "kept": len(kept)}
        )
        return kept

    survivors = solve(tree.root, (), tree.root_event)
    solution = frozenset(NormalFormDecision.of(tree, c) for c, _ in survivors)
    stats = {
        "nodes": tree.node_counts(),
        "stages": stages,
        "solution_count": len(solution),
    }
    return solution, GambleSet(g for _, g in survivors), stats


def literal_nfd_of_extensive(extensive):
    """The strategies of the source tree whose every arc is kept."""
    kept = {extensive.tree.path_of(arc) for arc in extensive.kept_arcs}
    return frozenset(literal_nfd(extensive.tree, kept))


class LiteralPointwiseDominance(PointwiseDominance):
    """Pointwise dominance as it reads: every pair, every state."""

    def _u(self, gamble, index):
        return self.context.utilities.utility(gamble.values[index])

    def _dominates(self, y, x, given):
        strict = False
        for i in given.indices():
            uy, ux = self._u(y, i), self._u(x, i)
            if uy < ux:
                return False
            if uy > ux:
                strict = True
        return strict

    def _select(self, gambles, given):
        return [
            x
            for x in gambles
            if not any(self._dominates(y, x, given) for y in gambles)
        ]


def literal_conditional_expectation(p, gamble, event, utilities):
    """Σ_{ω∈A} p(ω)u(g(ω)) / Σ_{ω∈A} p(ω), as the definition reads."""
    states = [i for i in range(event.space.size) if event.contains_index(i)]
    numerator = sum(p.masses[i] * utilities.utility(gamble.values[i]) for i in states)
    return numerator / sum(p.masses[i] for i in states)


class LiteralMaximality(Maximality):
    """Maximality as it reads: every pair, every mass function."""

    def _select(self, gambles, given):
        credal, utilities = self.context.credal, self.context.utilities

        def exp(p, g):
            return literal_conditional_expectation(p, g, given, utilities)

        def dominated(x):
            return any(
                all(exp(p, y) > exp(p, x) for p in credal) for y in gambles
            )

        return [x for x in gambles if not dominated(x)]


class LiteralIntervalDominance(IntervalDominance):
    """Interval dominance as it reads: both bounds of every gamble, then
    every pair of bounds."""

    def _select(self, gambles, given):
        credal, utilities = self.context.credal, self.context.utilities

        def exp(p, g):
            return literal_conditional_expectation(p, g, given, utilities)

        lower = {g: min(exp(p, g) for p in credal) for g in gambles}
        upper = {g: max(exp(p, g) for p in credal) for g in gambles}
        return [
            x for x in gambles if not any(lower[y] > upper[x] for y in gambles)
        ]


LITERAL_RULES = {
    "pointwise_dominance": LiteralPointwiseDominance,
    "maximality": LiteralMaximality,
    "interval_dominance": LiteralIntervalDominance,
}


def checked_rule(rule, sizes):
    """The rule, with every `select` call compared against the literal rule
    on the same context; `sizes` collects each call's gamble count."""
    literal = LITERAL_RULES[rule.name](rule.context)
    fast = rule._select

    def compare(gambles, given):
        chosen = fast(gambles, given)
        assert GambleSet(chosen) == literal.select(gambles, given), (gambles, given)
        sizes.append(len(gambles))
        return chosen

    rule._select = compare
    return rule


def test_enumeration_matches_literal_oracle(acceptance_corpus):
    for index, tree in enumerate(acceptance_corpus):
        members = nfd(tree)
        expected = literal_nfd(tree)
        assert [m.choices for m in members] == [m.choices for m in expected], index
        assert members == expected, index
        assert [m.gamble for m in members] == [oracle_gamble(tree, m) for m in expected], index
        extensive = extract_extensive(tree, members[::2])
        assert nfd_of_extensive(extensive) == literal_nfd_of_extensive(extensive), index


@pytest.mark.parametrize("name", sorted(RULES))
def test_solvers_match_literal_oracle(acceptance_corpus, name, monkeypatch):
    walks = []  # enumerator walks of the current norm_opt call

    def counted_strategies(*args, **kwargs):
        walks.append(kwargs)
        return strategies(*args, **kwargs)

    monkeypatch.setattr(solve, "strategies", counted_strategies)
    calls_by_walks = Counter()

    def check_normal_form(tree, rule, where):
        walks.clear()
        normal = norm_opt(tree, rule)
        calls_by_walks[len(walks)] += 1
        assert (normal.solution, normal.induced, normal.stats) == literal_norm_opt(
            tree, rule
        ), where
        return normal

    for index, tree in enumerate(acceptance_corpus):
        rule = rule_for(tree, name, index)
        normal = check_normal_form(tree, rule, index)
        # the reached subtrees, each solved under its own event
        for v, _ in tree.nodes():
            if v and any(m.contains_node(v) for m in normal.solution):
                check_normal_form(tree.subtree_of(v), rule, (index, v))
        backward = back_opt(tree, rule)
        assert (
            backward.solution,
            backward.induced,
            backward.stats,
        ) == literal_back_opt(tree, rule), index
        for solution in (normal.solution, backward.solution):
            extensive = extract_extensive(tree, solution)
            assert nfd_of_extensive(extensive) == literal_nfd_of_extensive(
                extensive
            ), index
    # one walk for the gamble pool, one to expand the chosen gambles
    assert set(calls_by_walks) == {2}, calls_by_walks


def test_enumeration_caps_keep_their_messages():
    tree = over_cap_tree(["1"])
    nodes, parent = tree.index.nodes, tree.index.parent
    every_arc = frozenset(
        v for v in range(1, len(nodes)) if isinstance(nodes[parent[v]], Decision)
    )
    full = ExtensiveSolution(tree, every_arc, frozenset(), frozenset())
    with pytest.raises(
        EnumerationLimitExceeded, match="^100489 strategies exceed the cap of 100000$"
    ):
        nfd_of_extensive(full)
    # 317 distinct rewards per branch: the distinct pool itself is over the
    # cap, and the walk that builds it refuses at the chance node
    rewards = [str(i) for i in range(317)]
    tree = over_cap_tree(rewards)
    rule = EuMax(
        ChoiceContext(
            RewardTable.from_literals(rewards), probability=MassFunction.uniform(tree.space)
        )
    )
    for walk in (gamb, lambda tree: norm_opt(tree, rule)):
        with pytest.raises(
            EnumerationLimitExceeded,
            match="^100489 glued candidates exceed the cap of 100000$",
        ):
            walk(tree)


def test_the_normal_form_walks_past_the_strategy_cap():
    # 100,489 strategies over 9 distinct gambles: neither solver holds them all
    tree = over_cap_tree(["a", "b", "c"])
    rewards = RewardTable({"a": 2, "b": 1, "c": 0})
    rule = EuMax(ChoiceContext(rewards, probability=MassFunction.uniform(tree.space)))
    normal = norm_opt(tree, rule)
    assert (normal.solution, normal.induced, normal.stats) == literal_norm_opt(tree, rule)
    assert normal.stats["nfd_count"] == 100489 and len(normal.solution) == 106 * 106
    assert back_opt(tree, rule).solution == normal.solution


@pytest.mark.parametrize("index", range(60))
def test_gambles_match_play_out_oracle(index):
    tree = random_consistent_tree(CONFIG, seed=subseed("diff", index))
    for member in nfd(tree):
        assert member.gamble == oracle_gamble(tree, member)


@pytest.mark.parametrize("index", range(40))
def test_eu_solutions_match_play_out_oracle(index):
    tree = random_consistent_tree(CONFIG, seed=subseed("diff-eu", index))
    rewards = reward_table_for_tree(tree)
    rule = seeded_rule_policy("eu_max")(tree.space, rewards, rng_for("diff-eu", index))
    expected = oracle_eu_solution(
        tree, nfd(tree), rule.context.probability, rewards
    )
    assert norm_opt(tree, rule).solution == expected


@pytest.mark.parametrize("index", range(40))
def test_dominance_solutions_match_play_out_oracle(index):
    tree = random_consistent_tree(CONFIG, seed=subseed("diff-dom", index))
    rewards = reward_table_for_tree(tree)
    rule = seeded_rule_policy("pointwise_dominance")(
        tree.space, rewards, rng_for("diff-dom", index)
    )
    solution, _, _ = literal_norm_opt(tree, LiteralPointwiseDominance(rule.context))
    assert norm_opt(tree, rule).solution == solution


@pytest.mark.parametrize("name", sorted(LITERAL_RULES))
def test_sweep_rules_match_literal_rules_on_corpus(acceptance_corpus, name):
    sizes = []
    for index, tree in enumerate(acceptance_corpus):
        rule = checked_rule(rule_for(tree, name, index), sizes)
        norm_opt(tree, rule)
        back_opt(tree, rule)
        check_subtree_perfectness(tree, rule)
    assert len(sizes) > 1000 and max(sizes) > 50, (len(sizes), max(sizes))


@pytest.mark.parametrize(
    "name, credal_size",
    [
        ("maximality", 1),
        ("maximality", 2),
        ("maximality", 3),
        ("pointwise_dominance", 1),
        ("interval_dominance", 1),
        ("interval_dominance", 2),
        ("interval_dominance", 3),
    ],
)
def test_sweep_rules_match_literal_rules_on_instances(name, credal_size):
    policy = seeded_rule_policy(name, credal_size=credal_size)
    sizes = []
    for prop in PropertyId:
        for index in range(25):
            instance = random_gamble_instance(
                prop, GenConfig(), seed=subseed("diff-sweep", prop.value, index)
            )
            rule = policy(
                instance.space,
                reward_table_for_instance(instance),
                rng_for("diff-sweep", name, credal_size, prop.value, index),
            )
            check_property_instance(prop, checked_rule(rule, sizes), instance)
    assert len(sizes) > 12 * 25


W3 = PossibilitySpace(("w1", "w2", "w3"))
TIES = RewardTable({"a": 0, "b": 2, "c": 1, "d": 3, "e": 2, "f": 4})
INNER = W3.event(["w1", "w2"])


def tie_gambles(*rows):
    return GambleSet(Gamble(W3, tuple(row)) for row in rows)


def mass(*weights):
    return MassFunction.from_weights(W3, weights)


def assert_sweeps_as_literal(rule, gambles, given, expected):
    literal = LITERAL_RULES[rule.name](rule.context)
    chosen = rule.select(gambles, given)
    assert chosen == literal.select(gambles, given)
    assert {g.values for g in chosen} == expected


def test_maximality_ties_on_the_first_mass_function():
    # bac, ccc and cab all score 1 under the first mass function and 1, 1
    # and 3/2 under the second: cab's row is >= the others', yet none of the
    # three dominates another; aaa (0, 0) is dominated by all of them
    rule = Maximality(ChoiceContext(TIES, credal=(mass(1, 1, 1), mass(1, 1, 4))))
    gambles = tie_gambles("bac", "ccc", "cab", "aaa")
    assert_sweeps_as_literal(
        rule, gambles, W3.omega, {("b", "a", "c"), ("c", "c", "c"), ("c", "a", "b")}
    )


@pytest.mark.parametrize("credal", [(mass(2, 1, 1),), (mass(2, 1, 1), mass(2, 1, 1))])
def test_maximality_with_one_distinct_mass_function_is_eu_max(credal):
    # expectations 7/4, 7/4, 2, 3/4 and 2: two ties, one of them on top
    gambles = tie_gambles("dac", "cdb", "bbb", "cca", "ebe")
    rule = Maximality(ChoiceContext(TIES, credal=credal))
    eu = EuMax(ChoiceContext(TIES, probability=credal[0]))
    assert rule.select(gambles, W3.omega) == eu.select(gambles, W3.omega)
    assert_sweeps_as_literal(
        rule, gambles, W3.omega, {("b", "b", "b"), ("e", "b", "e")}
    )


@pytest.mark.parametrize("name", ["maximality", "pointwise_dominance"])
def test_gambles_equal_on_the_event_stay_or_go_together(name):
    # on INNER, bdb and bdd agree, and ede has the same utilities (2, 3)
    # through other symbols; dad (3, 0) is incomparable with them
    context = ChoiceContext(TIES, credal=(mass(1, 2, 1), mass(9, 1, 1)))
    rule = RULES[name](context)
    equal = {("b", "d", "b"), ("b", "d", "d"), ("e", "d", "e")}
    kept = tie_gambles("bdb", "bdd", "ede", "dad")
    assert_sweeps_as_literal(rule, kept, INNER, equal | {("d", "a", "d")})
    # bfb (2, 4) dominates all three under both rules, but not dad
    dropped = tie_gambles("bdb", "bdd", "ede", "dad", "bfb")
    assert_sweeps_as_literal(
        rule, dropped, INNER, {("d", "a", "d"), ("b", "f", "b")}
    )


def test_interval_dominance_keeps_an_upper_bound_equal_to_the_greatest_lower_bound():
    # given INNER the two mass functions weigh (w1, w2) as (3/4, 1/4) and
    # (1/4, 3/4). Bounds: cdc [3/2, 5/2] (the greatest lower bound), aba
    # [1/2, 3/2], faf [1, 3], ccc [1, 1] and aca [1/4, 3/4]. aba's upper
    # bound equals the greatest lower bound, so no lower bound strictly
    # exceeds it and it is kept
    context = ChoiceContext(TIES, credal=(mass(3, 1, 1), mass(1, 3, 1)))
    gambles = tie_gambles("cdc", "aba", "faf", "ccc", "aca")
    bounds = {
        g.values: [literal_conditional_expectation(p, g, INNER, TIES) for p in context.credal]
        for g in gambles
    }
    assert max(bounds[("a", "b", "a")]) == Fraction(3, 2) == min(bounds[("c", "d", "c")])
    chosen = IntervalDominance(context).select(gambles, INNER)
    assert chosen == LiteralIntervalDominance(context).select(gambles, INNER)
    assert {g.values for g in chosen} == {("c", "d", "c"), ("a", "b", "a"), ("f", "a", "f")}


# ---------------------------------------------------------------------------
# The literal instance schema: every shape named where it is used


def _map_space(space, kept):
    return PossibilitySpace(tuple(space.states[i] for i in kept))


def _map_event(event, space, kept):
    bits = 0
    for new_index, old_index in enumerate(kept):
        if event.contains_index(old_index):
            bits |= 1 << new_index
    return Event(space, bits)


def _map_gamble(g, space, kept):
    return Gamble(space, tuple(g.values[i] for i in kept))


def _map_set(s, space, kept):
    return GambleSet(_map_gamble(g, space, kept) for g in s)


def literal_restricted(instance, kept):
    """Each shape's own re-mapping onto the states at indices `kept`."""
    space = _map_space(instance.given.space, kept)
    if isinstance(instance, ConditioningInstance):
        return ConditioningInstance(
            _map_set(instance.gambles, space, kept),
            _map_event(instance.given, space, kept),
        )
    if isinstance(instance, SubsetInstance):
        return SubsetInstance(
            _map_set(instance.gambles, space, kept),
            _map_set(instance.subset, space, kept),
            _map_event(instance.given, space, kept),
        )
    if isinstance(instance, MixtureInstance):
        return MixtureInstance(
            _map_set(instance.gambles, space, kept),
            _map_gamble(instance.other, space, kept),
            _map_event(instance.part, space, kept),
            _map_event(instance.given, space, kept),
        )
    if isinstance(instance, FamilyInstance):
        return FamilyInstance(
            tuple(_map_set(p, space, kept) for p in instance.parts),
            _map_event(instance.given, space, kept),
        )
    if isinstance(instance, BackwardConditioningInstance):
        return BackwardConditioningInstance(
            _map_set(instance.gambles, space, kept),
            _map_event(instance.part, space, kept),
            _map_event(instance.given, space, kept),
            _map_set(instance.others, space, kept),
        )
    assert isinstance(instance, SetSumInstance)
    return SetSumInstance(
        tuple(_map_event(e, space, kept) for e in instance.partition),
        tuple(_map_set(p, space, kept) for p in instance.parts),
        _map_event(instance.given, space, kept),
    )


def instance_gambles(instance):
    """Every gamble mentioned anywhere in the instance."""
    if isinstance(instance, (ConditioningInstance, SubsetInstance)):
        return instance.gambles
    if isinstance(instance, MixtureInstance):
        return instance.gambles.union(GambleSet([instance.other]))
    if isinstance(instance, FamilyInstance):
        return instance.union()
    if isinstance(instance, BackwardConditioningInstance):
        return instance.gambles.union(instance.others)
    assert isinstance(instance, SetSumInstance)
    out = GambleSet([])
    for part in instance.parts:
        out = out.union(part)
    return out


def instance_symbols(instance):
    """The reward symbols of every gamble in the instance, repeats kept."""
    return [v for g in instance_gambles(instance) for v in g.values]


def literal_instance_json(instance):
    out = {"space": list(instance.given.space.states)}
    if isinstance(instance, ConditioningInstance):
        out["shape"] = "conditioning"
        out["gambles"] = gamble_set_json(instance.gambles)
        out["given"] = event_json(instance.given)
    elif isinstance(instance, SubsetInstance):
        out["shape"] = "subset"
        out["gambles"] = gamble_set_json(instance.gambles)
        out["subset"] = gamble_set_json(instance.subset)
        out["given"] = event_json(instance.given)
    elif isinstance(instance, MixtureInstance):
        out["shape"] = "mixture"
        out["gambles"] = gamble_set_json(instance.gambles)
        out["other"] = gamble_json(instance.other)
        out["part"] = event_json(instance.part)
        out["given"] = event_json(instance.given)
    elif isinstance(instance, FamilyInstance):
        out["shape"] = "family"
        out["parts"] = [gamble_set_json(p) for p in instance.parts]
        out["given"] = event_json(instance.given)
    elif isinstance(instance, BackwardConditioningInstance):
        out["shape"] = "backward_conditioning"
        out["gambles"] = gamble_set_json(instance.gambles)
        out["part"] = event_json(instance.part)
        out["given"] = event_json(instance.given)
        out["others"] = gamble_set_json(instance.others)
    else:
        assert isinstance(instance, SetSumInstance)
        out["shape"] = "setsum"
        out["partition"] = [event_json(e) for e in instance.partition]
        out["parts"] = [gamble_set_json(p) for p in instance.parts]
        out["given"] = event_json(instance.given)
    return out


@pytest.mark.parametrize("prop", list(PropertyId), ids=lambda p: p.value)
def test_instance_schema_matches_literal_shapes(prop):
    restrictions = 0
    for index in range(25):
        instance = random_gamble_instance(
            prop, GenConfig(), seed=subseed("diff-shape", prop.value, index)
        )
        size = instance.space.size
        checked = [instance]
        for drop in range(size if size > 1 else 0):
            kept = tuple(i for i in range(size) if i != drop)
            restricted = instance.restricted(kept)
            expected = literal_restricted(instance, kept)
            assert type(restricted) is type(expected) and restricted == expected
            checked.append(restricted)
        restrictions += len(checked) - 1
        for each in checked:
            # as text, so the key order counts
            assert json.dumps(instance_json(each)) == json.dumps(literal_instance_json(each))
    assert restrictions > 25


def test_every_shape_has_a_distinct_name_and_a_given_field():
    shapes = set(INSTANCE_SHAPES.values())
    assert len({shape.shape for shape in shapes}) == len(shapes) == 6
    for shape in shapes:
        assert "given" in [f.name for f in fields(shape)], shape


def test_instance_json_rejects_a_non_instance():
    with pytest.raises(TreechoiceError):
        instance_json(object())


# ---------------------------------------------------------------------------
# The literal falsifier instance path: A-consistency through one preimage
# event per attained reward, reward pools drawn as rationals, and every
# generated instance re-validated before release


def literal_check_a_consistency(gambles, event):
    if event.is_empty:
        raise EmptyEvent("A-consistency is defined for non-empty events only")
    for gamble in gambles:
        if gamble.space != event.space:
            raise SpaceMismatch("values over different spaces")
        for reward in gamble.attained_rewards():
            if (gamble.preimage(reward) & event).is_empty:
                return ConsistencyVerdict(False, event, (gamble, reward))
    return ConsistencyVerdict(True, event)


def literal_reward_pool(rng, config):
    """The pool as rationals, sorted, then spelled with `str`."""
    pool = {
        Fraction(rng.randint(*config.value_range), rng.randint(1, config.max_denominator))
        for _ in range(config.reward_pool_size)
    }
    return [str(value) for value in sorted(pool)]


def literal_random_gamble_instance(prop, config, seed):
    """Instances built from literal pools (`generate._reward_pool` must be
    patched to `literal_reward_pool`), each validated before release."""
    for attempt in range(config.retries):
        rng = rng_for("instance", prop.value, seed, attempt)
        try:
            instance = generate._build_instance(prop, config, rng)
            instance.validate()
            return instance
        except (MalformedInstance, GenerationRetryExhausted):
            continue
    raise GenerationRetryExhausted(prop.value)


def with_shrink_candidates(rule, instance):
    """The instance and the shrinker's candidates, each with its rule: one
    per dropped gamble, then one per dropped state (rule rebound to the
    restricted context). Some candidates fail their preconditions."""
    candidates = [(rule, instance)]
    candidates += [(rule, c) for c in instance.drop_gamble_candidates()]
    size = instance.space.size
    for drop in range(size if size > 1 else 0):
        kept = tuple(i for i in range(size) if i != drop)
        restricted = instance.restricted(kept)
        context = rule.context.restricted(restricted.space, kept)
        candidates.append((rule.rebind(context), restricted))
    return candidates


def compared_a_consistency(monkeypatch):
    """Route every A-consistency check of `select` and instance `validate`
    through a comparison with the literal check; returns the verdicts seen."""
    verdicts = []

    def check(gambles, event):
        gambles = list(gambles)
        verdict = check_a_consistency(gambles, event)
        # equal verdicts: the same ok, event and (gamble, reward) witness
        assert verdict == literal_check_a_consistency(gambles, event), (gambles, event)
        verdicts.append(verdict.ok)
        return verdict

    monkeypatch.setattr(rules, "check_a_consistency", check)
    monkeypatch.setattr(props, "check_a_consistency", check)
    return verdicts


@pytest.mark.parametrize("name", sorted(RULES))
def test_a_consistency_matches_literal_on_corpus(acceptance_corpus, name, monkeypatch):
    verdicts = compared_a_consistency(monkeypatch)
    for index, tree in enumerate(acceptance_corpus):
        rule = rule_for(tree, name, index)
        norm_opt(tree, rule)
        back_opt(tree, rule)
        check_subtree_perfectness(tree, rule)
    assert len(verdicts) > 1000 and all(verdicts)


def test_a_consistency_matches_literal_on_instances(monkeypatch):
    verdicts = compared_a_consistency(monkeypatch)
    policy = seeded_rule_policy("maximality")
    for prop in PropertyId:
        for index in range(25):
            instance = random_gamble_instance(
                prop, GenConfig(), seed=subseed("diff-consistency", prop.value, index)
            )
            rule = policy(
                instance.space,
                reward_table_for_instance(instance),
                rng_for("diff-consistency", prop.value, index),
            )
            for candidate_rule, candidate in with_shrink_candidates(rule, instance):
                try:
                    check_property_instance(prop, candidate_rule, candidate)
                except MalformedInstance:
                    pass
    assert verdicts.count(True) > 12 * 25 and verdicts.count(False) > 100


S3 = PossibilitySpace(("s1", "s2", "s3"))


@pytest.mark.parametrize(
    "rows, labels, witness",
    [
        # "10" and "9" are both missing: "10" sorts first as a string
        ([("9", "10", "1")], ["s3"], (0, "10")),
        # the first gamble is consistent, the second is not
        ([("1", "1", "2"), ("3", "1", "2")], ["s2", "s3"], (1, "3")),
        ([("1", "2", "2"), ("2", "2", "1"), ("5", "6", "5")], ["s1", "s2"], (1, "1")),
        # every gamble is consistent with the whole space
        ([("9", "10", "1"), ("1", "1", "1")], ["s1", "s2", "s3"], None),
        # a single-state event: only constant gambles pass
        ([("2", "2", "2"), ("2", "2", "3")], ["s2"], (1, "3")),
        ([("2", "2", "2")], ["s2"], None),
    ],
)
def test_a_consistency_matches_literal_on_crafted_cases(rows, labels, witness):
    gambles = [Gamble(S3, row) for row in rows]
    event = S3.event(labels)
    verdict = check_a_consistency(gambles, event)
    assert verdict == literal_check_a_consistency(gambles, event)
    assert verdict.event == event
    if witness is None:
        assert verdict.ok and verdict.witness is None
    else:
        assert not verdict.ok
        assert verdict.witness == (gambles[witness[0]], witness[1])


@pytest.mark.parametrize(
    "config",
    [
        GenConfig(),
        GenConfig(value_range=(-30, 30), max_denominator=12, reward_pool_size=9),
        GenConfig(value_range=(0, 0), max_denominator=5),
        GenConfig(value_range=(-2, 3), max_denominator=1, reward_pool_size=8),
    ],
)
def test_reward_pools_match_literal_pools(config):
    for seed in range(200):
        rngs = [rng_for("diff-pool", seed) for _ in range(2)]
        assert generate._reward_pool(rngs[0], config) == literal_reward_pool(rngs[1], config)
        assert rngs[0].getstate() == rngs[1].getstate()


@pytest.mark.parametrize("prop", list(PropertyId), ids=lambda p: p.value)
def test_generated_instances_match_literal_generator(prop, monkeypatch):
    seeds = [subseed("diff-generate", prop.value, index) for index in range(50)]
    instances = [random_gamble_instance(prop, GenConfig(), seed) for seed in seeds]
    with monkeypatch.context() as patched:
        patched.setattr(generate, "_reward_pool", literal_reward_pool)
        expected = [literal_random_gamble_instance(prop, GenConfig(), s) for s in seeds]
    for instance, literal in zip(instances, expected):
        # as text, so the order of every list counts
        assert json.dumps(instance_json(instance)) == json.dumps(instance_json(literal))
        table = reward_table_for_instance(instance)
        assert table == literal_from_literals(instance_symbols(literal))


def test_mass_sum_check_matches_fraction_sum():
    rng = rng_for("diff-mass")
    accepted = rejected = 0
    for _ in range(500):
        size = rng.randint(1, 6)
        weights = [rng.randint(1, 12) for _ in range(size)]
        total = sum(weights) + rng.choice((0, 0, 1, -1))
        masses = tuple(Fraction(w, max(total, 1)) for w in weights)
        space = PossibilitySpace(tuple(f"w{i}" for i in range(size)))
        try:
            MassFunction(space, masses)
            ok = True
        except ValueError as exc:
            assert str(exc) == "masses must sum to one"
            ok = False
        assert ok == (sum(masses) == 1), masses
        accepted += ok
        rejected += not ok
    assert accepted > 100 and rejected > 100


# ---------------------------------------------------------------------------
# A rule's tables over its whole life, against the table-free `select`


def unmemoized_select(rule, gambles, given):
    """The table-free select: the contract checks and `_select`, on a fresh
    rebind of the rule for each call."""
    fresh = rule.rebind(rule.context)
    if len(gambles) == 0:
        raise EmptySet("cannot select from an empty gamble set")
    if given.is_empty:
        raise EmptyEvent("cannot select conditional on the empty event")
    verdict = check_a_consistency(gambles, given)
    if not verdict:
        raise InconsistentSet(
            "gamble set is not consistent with the conditioning event",
            witness=verdict.witness,
        )
    chosen = GambleSet(fresh._select(gambles, given))
    assert 0 < len(chosen) and chosen.issubset(gambles)
    return chosen


def plain_check(prop, rule, instance):
    """The property's checker on a rule whose `select` is the table-free one:
    it shares no table with `rule`."""
    instance.validate()
    plain = SimpleNamespace(select=functools.partial(unmemoized_select, rule))
    return laws._CHECKERS[prop](plain, instance)


def check_as_text(check):
    return (check.prop, check.holds, check.vacuous, json.dumps(jsonable(check.witness)))


@functools.cache
def score_table_sweep(name):
    """One sweep, 25 instances per property, for both score-table tests: each
    check against the plain checker, and each of its selects against the
    table-free select. A rule serves an instance and its shrink candidates,
    bar the rebound ones. Returns the mismatches and counts they assert."""
    sweep = SimpleNamespace(
        check_mismatches=[],
        verdicts=Counter(),
        select_mismatches=[],
        selects=Counter(),
        repeats=Counter(),
    )
    answers = {}  # rule -> {(gamble set, event): its first answer}
    memoized = rules.ChoiceRule.select

    def compared(self, gambles, given):
        chosen = memoized(self, gambles, given)
        table = answers.setdefault(self, {})
        sweep.repeats[prop] += (gambles, given) in table
        fresh = unmemoized_select(self, gambles, given)
        # a repeat within the rule's life is answered from the table, which
        # has one entry per pair
        first = table.setdefault((gambles, given), chosen)
        if chosen != fresh or first is not chosen or len(self.selections) != len(table):
            sweep.select_mismatches.append((prop, index, gambles, given))
        sweep.selects[prop] += 1
        return chosen

    policy = seeded_rule_policy(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rules.ChoiceRule, "select", compared)
        for prop in PropertyId:
            for index in range(25):
                instance = random_gamble_instance(
                    prop, GenConfig(), seed=subseed("diff-table", prop.value, index)
                )
                rule = policy(
                    instance.space,
                    reward_table_for_instance(instance),
                    rng_for("diff-table", name, prop.value, index),
                )
                answers.clear()
                for candidate_rule, candidate in with_shrink_candidates(rule, instance):
                    try:
                        expected = plain_check(prop, candidate_rule, candidate)
                    except MalformedInstance:
                        try:
                            check_property_instance(prop, candidate_rule, candidate)
                        except MalformedInstance:
                            continue
                        sweep.check_mismatches.append((prop, index, "not malformed"))
                        continue
                    check = check_property_instance(prop, candidate_rule, candidate)
                    if check_as_text(check) != check_as_text(expected):
                        sweep.check_mismatches.append((prop, index, check_as_text(check)))
                    sweep.verdicts[check.holds, check.vacuous] += 1
    return sweep


@pytest.mark.parametrize("name", sorted(RULES))
def test_score_table_keeps_every_instance_check(name):
    sweep = score_table_sweep(name)
    assert sweep.check_mismatches == []
    verdicts = sweep.verdicts
    assert verdicts[True, False] > 100 and verdicts[True, True] > 10, verdicts


@pytest.mark.parametrize("name", sorted(RULES))
def test_every_scored_select_equals_a_fresh_unscored_select(name):
    sweep = score_table_sweep(name)
    assert sweep.select_mismatches == []
    assert set(sweep.selects) == set(PropertyId), sweep.selects
    assert sum(sweep.repeats.values()) > 100, sweep.repeats


def literal_from_literals(symbols):
    """Each symbol valued as the rational it spells."""
    return RewardTable({s: Fraction(s) for s in set(symbols)})


def table_or_error(build, symbols):
    try:
        table = build(symbols)
    except Exception as exc:
        return type(exc), str(exc)
    return [(s, v, type(v)) for s, v in table.items()], repr(table)


@pytest.mark.parametrize("prop", list(PropertyId), ids=lambda p: p.value)
def test_literal_reward_tables_match_the_twice_parsed_tables(prop):
    for index in range(50):
        instance = random_gamble_instance(
            prop, GenConfig(), seed=subseed("diff-literals", prop.value, index)
        )
        symbols = instance_symbols(instance)
        table = table_or_error(RewardTable.from_literals, symbols)
        assert table == table_or_error(literal_from_literals, symbols)
        assert reward_table_for_instance(instance) == literal_from_literals(symbols)


def test_trees_read_without_a_reward_table_match_the_twice_parsed_tables(acceptance_corpus):
    fixture_trees = [
        parse_tree_file(path.read_text()).tree for path in sorted(FIXTURES.glob("*.tree"))
    ]
    outcomes = Counter()
    for index, tree in enumerate(fixture_trees + acceptance_corpus):
        symbols = tree.leaf_rewards()
        table = table_or_error(RewardTable.from_literals, symbols)
        # a bad literal raises the same error
        assert table == table_or_error(literal_from_literals, symbols), index
        outcomes[table[0] is ValueError] += 1
        try:
            document = document_for(tree)
        except ValueError as exc:
            assert (ValueError, str(exc)) == table
        else:
            assert document.rewards == literal_from_literals(symbols)
    for literal in ("-3/2", "09", " 7 ", "1/0", "x"):
        assert table_or_error(RewardTable.from_literals, [literal]) == table_or_error(
            literal_from_literals, [literal]
        ), literal
    # the fixtures' names are bad literals, the corpus's rewards good ones
    assert outcomes[True] == len(fixture_trees) >= 4 and outcomes[False] == 200, outcomes


# ---------------------------------------------------------------------------
# Per-event columns, against the literal sum


NUMERIC_RULES = ["e_admissibility", "eu_max", "gamma_maximin", "interval_dominance", "maximality"]


@pytest.fixture
def literal_rows(monkeypatch):
    """Every `_rows` entry is compared with the literal sum. All columns of
    the event sum to one positive scale S, and each entry is an `int`, S·L
    times the literal conditional expectation, where L is the least common
    multiple of the reward table's denominators. The list collects the
    number of rows of each call."""
    sizes = []
    fast = rules.ChoiceRule._rows

    def compared(self, gambles, given, masses):
        rows = fast(self, gambles, given, masses)
        distinct = list(dict.fromkeys(masses))
        utilities = self.context.utilities
        columns, _ = self.scores[given]
        (scale,) = {sum(column) for column in columns}
        assert scale > 0 and len(columns) == len(distinct), given
        scale *= math.lcm(*(u.denominator for _, u in utilities.items()))
        assert list(rows) == list(gambles), given
        for g, row in rows.items():
            literal = [
                scale * literal_conditional_expectation(p, g, given, utilities)
                for p in distinct
            ]
            assert all(type(entry) is int for entry in row), (g, given)
            assert list(row) == literal, (g, given)
        sizes.append(len(rows))
        return rows

    monkeypatch.setattr(rules.ChoiceRule, "_rows", compared)
    return sizes


@pytest.mark.parametrize("name", NUMERIC_RULES)
def test_rows_of_every_corpus_root_select_equal_the_literal_sum(
    acceptance_corpus, literal_rows, name
):
    for index, tree in enumerate(acceptance_corpus):
        gambles = gamb(tree)
        rule_for(tree, name, index).select(gambles, tree.root_event)
        assert literal_rows[-1] == len(gambles), index
    assert len(literal_rows) == len(acceptance_corpus)


@pytest.mark.parametrize("name", NUMERIC_RULES)
def test_rows_of_falsifier_instances_equal_the_literal_sum(literal_rows, name):
    policy = seeded_rule_policy(name)
    for prop in PropertyId:
        before = len(literal_rows)
        for index in range(50):
            instance = random_gamble_instance(
                prop, GenConfig(), seed=subseed("diff-rows", prop.value, index)
            )
            rule = policy(
                instance.space,
                reward_table_for_instance(instance),
                rng_for("diff-rows", name, prop.value, index),
            )
            check_property_instance(prop, rule, instance)
        assert len(literal_rows) > before, prop


# ---------------------------------------------------------------------------
# Whole-number mass functions, against the `Fraction` ones


@dataclass(frozen=True)
class FractionMassFunction:
    """A mass function as one `Fraction` per state, conditioned by `Fraction`
    sums and divisions."""

    space: PossibilitySpace
    masses: tuple[Fraction, ...]

    def __post_init__(self):
        assert len(self.masses) == self.space.size and all(m > 0 for m in self.masses)
        assert sum(self.masses) == 1

    @classmethod
    def from_weights(cls, space, weights):
        total = sum(weights)
        return cls(space, tuple(Fraction(w, total) for w in weights))

    def restricted(self, space, kept):
        total = sum(self.masses[i] for i in kept)
        return FractionMassFunction(space, tuple(self.masses[i] / total for i in kept))


def fraction_event_columns(masses, event):
    """The weights p(ω)/P(event) as `Fraction`s, times the lcm S of all their
    denominators."""
    states = tuple(event.indices())
    totals = [sum(p.masses[i] for i in states) for p in masses]
    weights = [[p.masses[i] / total for i in states] for p, total in zip(masses, totals)]
    scale = math.lcm(*(w.denominator for column in weights for w in column))
    return [tuple(w.numerator * (scale // w.denominator) for w in c) for c in weights]


def assert_as_fraction_oracle(p, oracle):
    """`p` holds the oracle's masses, and reads equal to a mass function
    built from them."""
    assert p.masses == oracle.masses, (p, oracle)
    assert all(type(w) is int for w in p.weights) and math.gcd(*p.weights) == 1, p
    built = MassFunction(p.space, oracle.masses)
    assert built == p and hash(built) == hash(p) and built.weights == p.weights


@pytest.fixture
def fraction_oracle(monkeypatch):
    """Each mass function built by `from_weights` or `restricted` is checked
    against the `Fraction` mass function built the same way, and each
    `event_columns` call against the `Fraction` columns of those oracles.
    The counter tallies the calls checked."""
    oracles: dict = {}
    counts = Counter()
    from_weights = MassFunction.__dict__["from_weights"].__func__
    restricted = MassFunction.restricted
    columns = rules.event_columns

    def weighted(cls, space, weights):
        p = from_weights(cls, space, weights)
        oracle = oracles.setdefault(p, FractionMassFunction.from_weights(space, weights))
        assert_as_fraction_oracle(p, oracle)
        counts["from_weights"] += 1
        return p

    def cut(self, space, kept):
        q = restricted(self, space, kept)
        oracle = oracles[self].restricted(space, kept)
        assert_as_fraction_oracle(q, oracle)
        assert oracles[q] == oracle
        counts["restricted"] += 1
        return q

    def conditioned(masses, event):
        out = columns(masses, event)
        assert out == fraction_event_columns([oracles[p] for p in masses], event), event
        counts["event_columns"] += 1
        return out

    monkeypatch.setattr(MassFunction, "from_weights", classmethod(weighted))
    monkeypatch.setattr(MassFunction, "restricted", cut)
    monkeypatch.setattr(rules, "event_columns", conditioned)
    return counts


def test_columns_of_every_corpus_context_and_node_event(acceptance_corpus, fraction_oracle):
    for index, tree in enumerate(acceptance_corpus):
        events = list(dict.fromkeys(tree.event_of(v) for v, _ in tree.nodes()))
        for name in NUMERIC_RULES:
            context = rule_for(tree, name, index).context
            masses = context.credal or (context.probability,)
            for event in events:
                rules.event_columns(list(dict.fromkeys(masses)), event)
                for p in masses:
                    rules.event_columns([p], event)
    assert fraction_oracle["event_columns"] > 3 * len(acceptance_corpus) * len(NUMERIC_RULES)


def test_columns_of_every_falsifier_and_shrinker_context(capsys, fraction_oracle):
    props = ",".join(prop.value for prop in PropertyId)
    for name in sorted(RULES):
        code = run_command(["check-properties", "--rule", name, "--budget", "50", "--props", props])
        assert code in (0, 1), capsys.readouterr().out
    # five rules draw their mass functions afresh for each instance (about
    # 4,300 in all), and the shrinker renormalizes them onto the states it keeps
    assert fraction_oracle["from_weights"] > 4000
    assert fraction_oracle["restricted"] > 100
    assert fraction_oracle["event_columns"] > 3000


def test_columns_scale_one_shared_denominator_across_mass_functions():
    space = PossibilitySpace(("a", "b", "c", "d"))
    event = space.event(["a", "b", "c"])
    weights = ([2, 4, 6, 9], [1, 1, 1, 5], [3, 1, 2, 2])
    credal = [MassFunction.from_weights(space, w) for w in weights]
    oracle = [FractionMassFunction.from_weights(space, w) for w in weights]
    # conditional weights 1/6 2/6 3/6, 1/3 1/3 1/3 and 3/6 1/6 2/6: S = 6
    columns = rules.event_columns(credal, event)
    assert columns == fraction_event_columns(oracle, event) == [(1, 2, 3), (2, 2, 2), (3, 1, 2)]
    for size in (1, 3):  # one column, and one scale shared by three
        rng = rng_for("diff-columns", size)
        for _ in range(300):
            weights = [[rng.randint(1, 30) for _ in range(space.size)] for _ in range(size)]
            given = Event(space, rng.randint(1, 15))
            expected = fraction_event_columns(
                [FractionMassFunction.from_weights(space, w) for w in weights], given
            )
            credal = [MassFunction.from_weights(space, w) for w in weights]
            assert rules.event_columns(credal, given) == expected, (weights, given)


# ---------------------------------------------------------------------------
# One iterative node walk, against the recursions it replaced


def literal_children(node):
    if isinstance(node, Decision):
        return node.children
    if isinstance(node, Chance):
        return tuple(child for _, child in node.branches)
    return ()


def literal_nodes(tree):
    """All (path, node, accumulated event) triples in depth-first
    preorder, by recursion."""

    def walk(node, path, ev):
        yield path, node, ev
        for i, child in enumerate(literal_children(node)):
            event = node.branches[i][0] if isinstance(node, Chance) else ev
            yield from walk(child, path + (i,), ev & event)

    return walk(tree.root, (), tree.root_event)


def literal_validate(tree):
    """Consistency by recursion, the accumulated event passed down: the
    first offending node in preorder raises."""
    if tree.root_event.is_empty:
        raise EmptySubtreeEvent(())

    def walk(node, path, ev):
        if ev.is_empty:
            raise EmptySubtreeEvent(path)
        if isinstance(node, Chance):
            if not is_partition([event for event, _ in node.branches]):
                raise NotAPartition(
                    "chance branch events must partition the space", node_id=path
                )
            for i, (event, child) in enumerate(node.branches):
                walk(child, path + (i,), ev & event)
        elif isinstance(node, Decision):
            for i, child in enumerate(node.children):
                walk(child, path + (i,), ev)

    walk(tree.root, (), tree.root_event)
    return tree


def literal_gamb(tree):
    """The gamble set by its own recursion on the tree: constants at
    leaves, unions at decision nodes, partition set sums at chance nodes."""

    def build(node):
        if isinstance(node, Leaf):
            return GambleSet([Gamble.constant(tree.space, node.reward)])
        if isinstance(node, Decision):
            out = GambleSet([])
            for child in node.children:
                out = out.union(build(child))
            return out
        partition = [event for event, _ in node.branches]
        return gamble_set_sum(partition, [build(child) for _, child in node.branches])

    return build(tree.root)


def literal_extensive_arcs(tree, solution):
    """(kept, pruned, unreachable) arc paths, reachability passed down."""
    kept = {arc for member in solution for arc in arc_paths(member)}
    pruned, unreachable = set(), set()

    def walk(node, path, reachable):
        if not reachable and path:
            unreachable.add(path)
        if isinstance(node, Decision):
            for i, child in enumerate(node.children):
                arc = path + (i,)
                if reachable and arc not in kept:
                    pruned.add(arc)
                walk(child, arc, reachable and arc in kept)
        elif isinstance(node, Chance):
            for i, (_, child) in enumerate(node.branches):
                walk(child, path + (i,), reachable)

    walk(tree.root, (), True)
    return kept, pruned, unreachable


def literal_document_for(tree, rewards=None):
    """`document_for` with branch events named by a recursive visit."""
    table = rewards if rewards is not None else RewardTable.from_literals(tree.leaf_rewards())
    names, order = {}, []

    def name(event):
        if event.bits not in names:
            names[event.bits] = f"e{len(names) + 1}"
            order.append((names[event.bits], event))
        return names[event.bits]

    def visit(node):
        if isinstance(node, Chance):
            for event, _ in node.branches:
                name(event)
        for child in literal_children(node):
            visit(child)

    visit(tree.root)
    root_name = None if tree.root_event.is_omega else name(tree.root_event)
    return TreeDocument(
        space=tree.space,
        rewards=table,
        reward_order=tuple(table.symbols()),
        events=tuple(order),
        root_event_name=root_name,
        tree=tree,
    )


def node_walk_cases(acceptance_corpus):
    """Every fixture and corpus tree, each with every one of its subtrees,
    and the reward table its documents are written with."""
    docs = [parse_tree_file(path.read_text()) for path in sorted(FIXTURES.glob("*.tree"))]
    trees = [(doc.tree, doc.rewards) for doc in docs]
    trees += [(tree, None) for tree in acceptance_corpus]
    return [(tree.subtree_of(v), rewards) for tree, rewards in trees for v, _ in tree.nodes()]


def test_node_walk_matches_the_literal_recursions(acceptance_corpus):
    cases = node_walk_cases(acceptance_corpus)
    solutions = 0
    for index, (tree, rewards) in enumerate(cases):
        walked = [(tree.path_of(v), node, tree.event_of(v)) for v, node in tree.nodes()]
        assert walked == list(literal_nodes(tree)), index
        assert validate(tree) is literal_validate(tree) is tree
        assert gamb(tree) == literal_gamb(tree), index
        # each reward a strategy takes comes from a leaf it reaches, and
        # every state of that leaf's non-empty event inside the root event
        # reaches it: a solver's pool is consistent with its node's event
        assert check_a_consistency(gamb(tree), tree.root_event), index
        document = document_for(tree, rewards)
        literal = literal_document_for(tree, rewards)
        assert (document.events, document.root_event_name) == (
            literal.events,
            literal.root_event_name,
        ), index
        assert document.serialize() == literal.serialize(), index
        members = nfd(tree)
        for solution in (members, members[:1], members[-1:], members[::2]):
            extensive = extract_extensive(tree, solution)
            assert tuple(
                {tree.path_of(v) for v in ids}
                for ids in (extensive.kept_arcs, extensive.pruned_arcs, extensive.unreachable)
            ) == literal_extensive_arcs(tree, solution), index
            solutions += 1
    assert len(cases) == 3768 and solutions == 4 * len(cases), (len(cases), solutions)


def test_node_ids_number_the_nodes_in_path_order(acceptance_corpus):
    subtrees = 0
    for index, tree in enumerate(acceptance_corpus):
        ids = range(len(tree.index.nodes))
        paths = [tree.path_of(v) for v in ids]
        # ids are the preorder positions, and preorder is sorted path order
        assert paths == [path for path, _, _ in literal_nodes(tree)] == sorted(paths), index
        assert [tree.id_of(path) for path in paths] == list(ids), index
        for v, path in enumerate(paths):
            sub = tree.subtree_at(path)
            stop = tree.index.end[v]
            assert stop - v == len(list(literal_nodes(sub))), (index, path)
            # the subtree numbers its nodes as the tree's slice [v, end),
            # shifted by v
            shifted = [
                (node, up - v, i, end - v)
                for node, up, i, end in zip(*(column[v:stop] for column in tree.index[:4]))
            ]
            shifted[0] = (shifted[0][0], -1, 0) + shifted[0][3:]
            assert list(zip(*sub.index[:4])) == shifted, (index, path)
            # its index is that of a tree grown from its root, whose routed
            # bits start from the whole space
            assert sub.index == NodeIndex.of(tree.space, sub.root), (index, path)
            # and its root event carries the chance arcs above `v`
            for u in range(stop - v):
                assert sub.event_of(u) == tree.event_of(v + u), (index, path, u)
            subtrees += 1
    assert subtrees > 2000, subtrees


def inconsistent_trees():
    """Labelled (space, root, root_event) parts over {a, b, c} of trees that
    `validate` rejects, and of one it accepts."""
    abc, uv = PossibilitySpace(("a", "b", "c")), PossibilitySpace(("u", "v"))
    x, y, z = Leaf("x"), Leaf("y"), Leaf("z")
    a, b, c, ab, bc = (abc.event(labels) for labels in ("a", "b", "c", "ab", "bc"))
    u, v = uv.event("u"), uv.event("v")
    omega, nothing = abc.omega, abc.empty_event
    return {
        "overlapping events at the root": (abc, chance((ab, x), (bc, y)), omega),
        "overlapping events deep": (
            abc, decision(x, decision(y, chance((ab, x), (b, y), (c, z)))), omega
        ),
        "events that miss a state": (abc, chance((a, x), (b, y)), omega),
        "an empty branch event": (abc, chance((nothing, x), (omega, y)), omega),
        "an empty root event": (abc, decision(x, y), nothing),
        "an empty root event over a broken chance node": (
            abc, chance((a, x), (a, y)), nothing
        ),
        "an empty accumulated event deep": (
            abc,
            chance((a, decision(x, chance((a, y), (bc, decision(z, x))))), (bc, z)),
            omega,
        ),
        "an empty accumulated event under a narrow root event": (
            abc, decision(x, chance((a, y), (bc, z))), b
        ),
        "events over another space": (abc, chance((u, x), (v, y)), omega),
        "events over another space deep": (
            abc, chance((a, x), (bc, decision(y, chance((u, x), (v, z))))), omega
        ),
        "events over two spaces at one node": (abc, chance((a, x), (v, y)), omega),
        "the first of two faults in preorder": (
            abc,
            decision(
                chance((a, chance((b, x), (ab, y))), (bc, z)),
                chance((a, x), (a, y)),
            ),
            omega,
        ),
        "a consistent tree": (abc, decision(x, chance((a, y), (bc, z))), omega),
    }


INCONSISTENT_TREES = inconsistent_trees()


def rejection(build, *parts):
    """The type, node and message of the error `build(*parts)` raises, or
    None when it raises none."""
    try:
        build(*parts)
    except TreechoiceError as exc:
        return type(exc), getattr(exc, "node_id", None), str(exc)
    return None


def literal_validate_parts(space, root, root_event):
    """`literal_validate` on a tree's parts, with no tree built from them."""
    unchecked = SimpleNamespace(space=space, root=root, root_event=root_event)
    assert literal_validate(unchecked) is unchecked


@pytest.mark.parametrize("label", sorted(INCONSISTENT_TREES))
def test_validate_matches_the_literal_recursion_on_crafted_trees(label):
    parts = INCONSISTENT_TREES[label]
    outcome = rejection(DecisionTree, *parts)
    assert outcome == rejection(literal_validate_parts, *parts)
    assert (outcome is None) == (label == "a consistent tree"), outcome


def broken_variants(tree):
    """The (space, root, root_event) parts of inconsistent variants of a
    consistent tree: every chance event taken as the root event, and each
    chance node's first branch event widened to the whole space or
    narrowed to nothing."""
    for v, node in tree.nodes():
        if isinstance(node, Chance):
            for event, _ in node.branches:
                yield tree.space, tree.root, event
            _, first = node.branches[0]
            for event in (tree.space.omega, tree.space.empty_event):
                broken = Chance(((event, first),) + node.branches[1:])
                root = replace_node(tree.root, tree.path_of(v), broken)
                yield tree.space, root, tree.root_event


def test_validate_matches_the_literal_recursion_on_broken_corpus_trees(acceptance_corpus):
    outcomes = Counter()
    for index, tree in enumerate(acceptance_corpus[:60]):
        for variant in broken_variants(tree):
            outcome = rejection(DecisionTree, *variant)
            assert outcome == rejection(literal_validate_parts, *variant), index
            outcomes[outcome and outcome[0].__name__] += 1
    assert outcomes["EmptySubtreeEvent"] > 50 and outcomes["NotAPartition"] > 50, outcomes


def test_subtrees_equal_the_checked_trees_of_their_parts(acceptance_corpus):
    subtrees = 0
    for index, tree in enumerate(acceptance_corpus):
        for v, node in tree.nodes():
            checked = DecisionTree(tree.space, node, tree.event_of(v))
            assert tree.subtree_at(tree.path_of(v)) == checked, (index, v)
            subtrees += 1
    assert subtrees > 2000, subtrees


def literal_restrict_solution(solution, path):
    """Each member through `path` restricted on its own: its own copy of
    the subtree, its choices below `path` re-sorted."""
    restricted = set()
    for member in solution:
        choices = path_map(member)
        if all(choices.get(path[:k], path[k]) == path[k] for k in range(len(path))):
            sub = member.tree.subtree_at(path)
            kept = {q[len(path):]: i for q, i in choices.items() if q[: len(path)] == path}
            restricted.add(NormalFormDecision.of(sub, kept))
    return frozenset(restricted)


def test_restrict_solution_matches_the_member_by_member_restriction(acceptance_corpus):
    sizes = Counter()
    for index, tree in enumerate(acceptance_corpus):
        members = nfd(tree)
        for solution in (members, members[::2], members[-1:]):
            for path in map(tree.path_of, range(len(tree.index.nodes))):
                restricted = restrict_solution(solution, path)
                # equal members have equal trees and equal sorted choices
                assert restricted == literal_restrict_solution(solution, path), (index, path)
                sizes[min(len(restricted), 2)] += 1
    assert min(sizes.values()) > 1000, sizes


def literal_check_subtree_perfectness(tree, rule, weak=False):
    """Optimize-then-restrict against restrict-then-optimize at every node
    reached by the root solution, as the definition reads: each reached
    node's subtree copy solved on its own, the root solution restricted to
    the node member by member."""
    root = norm_opt(tree, rule)
    comparisons = []
    for v, _ in tree.nodes():
        path = tree.path_of(v)
        restricted = restrict_solution(root.solution, path)
        if not restricted:
            continue
        subtree_solution = norm_opt(tree.subtree_of(v), rule).solution
        ok = restricted <= subtree_solution if weak else restricted == subtree_solution
        comparisons.append(laws.NodeComparison(v, ok, subtree_solution, restricted))
    return laws.PerfectionReport(weak, tuple(comparisons))


def members_json(members):
    return solution_json(members), gamble_set_json(induced_gambles(members))


@pytest.fixture
def perfectness_differences(monkeypatch):
    """Compare both checks, strong and weak, on each (tree, rule) given, and
    count the solves the gamble-pool check makes: one per violating node,
    none of the root. Where the literal check cannot list the root
    solution, the gamble-pool check raises the same error or answers with
    those solves. Returns the compare function and a counter of checks,
    violations, errors, answers past the cap and subtrees with a root event
    not the whole space."""
    solves = []

    def counted_norm_opt(tree, rule):
        solves.append(tree)
        return norm_opt(tree, rule)

    monkeypatch.setattr(laws, "norm_opt", counted_norm_opt)
    tally = Counter()

    def compare(tree, rule, where):
        for weak in (False, True):
            solves.clear()
            report = outcome(check_subtree_perfectness, tree, rule, weak)
            literal = outcome(literal_check_subtree_perfectness, tree, rule, weak)
            if isinstance(literal, tuple):  # the same error, or an answer past the cap
                if report != literal:
                    assert literal[0] is EnumerationLimitExceeded, where
                    assert len(solves) == len(report.violations()), (where, weak)
                    assert all(t is not tree for t in solves), (where, weak)
                    tally["past_cap"] += 1
                    tally["past_cap_violations"] += len(report.violations())
                    continue
                tally["errors"] += 1
                continue
            assert [(c.node, c.ok) for c in report.comparisons] == [
                (c.node, c.ok) for c in literal.comparisons
            ], (where, weak)
            assert (report.perfect, len(report.comparisons)) == (
                literal.perfect,
                len(literal.comparisons),
            ), (where, weak)
            for mine, theirs in zip(report.violations(), literal.violations()):
                assert members_json(mine.subtree_solution) == members_json(
                    theirs.subtree_solution
                ), (where, weak, mine.node)
                assert members_json(mine.restricted) == members_json(theirs.restricted), (
                    where,
                    weak,
                    mine.node,
                )
            assert len(solves) == len(report.violations()), (where, weak)
            assert all(t is not tree for t in solves), (where, weak)
            assert all(
                c.subtree_solution is None and c.restricted is None
                for c in report.comparisons
                if c.ok
            ), (where, weak)
            tally["checks"] += 1
            tally["violations"] += len(report.violations())
            tally["narrowed"] += tree.root_event != tree.space.omega

    return compare, tally


@pytest.mark.parametrize("name", sorted(RULES))
def test_perfectness_from_pools_matches_the_literal_check_on_corpus(
    acceptance_corpus, perfectness_differences, name
):
    compare, tally = perfectness_differences
    for index, tree in enumerate(acceptance_corpus):
        compare(tree, rule_for(tree, name, index), index)
    assert tally["checks"] == 400 and tally["errors"] == 0, tally


def test_perfectness_from_pools_matches_the_literal_check_under_fussy_pairs(
    acceptance_corpus, perfectness_differences
):
    compare, tally = perfectness_differences
    for index, tree in enumerate(acceptance_corpus):
        compare(tree, FussyPairsRule(ChoiceContext(reward_table_for_tree(tree))), index)
    assert tally["checks"] == 400 and tally["violations"] > 0, tally


@pytest.mark.parametrize("name", sorted(RULES))
def test_perfectness_from_pools_matches_the_literal_check_on_subtrees(
    acceptance_corpus, perfectness_differences, name
):
    compare, tally = perfectness_differences
    for index, tree in enumerate(acceptance_corpus[:60]):
        rule = rule_for(tree, name, index)
        for v, node in tree.nodes():
            if v and not isinstance(node, Leaf):
                compare(tree.subtree_of(v), rule, (index, v))
    assert tally["narrowed"] > 0 and tally["errors"] == 0, tally


def fixture_cases(paths):
    """(document, rule, label) for each fixture tree at `paths`, under each
    rule that its own rewards or a fixture context over its states allow."""
    contexts = [None] + sorted(FIXTURES.glob("*.ctx")) + sorted(FIXTURES.glob("*.prob"))
    for path in paths:
        doc = parse_tree_file(path.read_text())
        for context_path in contexts:
            if context_path is None:
                context = ChoiceContext(doc.rewards)
            else:
                document = parse_context_file(context_path.read_text())
                context = outcome(document.bind, doc.space, doc.rewards)
                if isinstance(context, tuple):  # states of another fixture
                    continue
            for name in sorted(RULES):
                rule = outcome(RULES[name], context)
                if not isinstance(rule, tuple):  # else it needs a mass function
                    yield doc, rule, (path.name, context_path, name)


def test_perfectness_from_pools_matches_the_literal_check_on_fixtures(
    perfectness_differences,
):
    compare, tally = perfectness_differences
    over_cap = [
        FIXTURES / "over_cap" / name
        for name in ("wide_chance.tree", "one_gamble.tree", "failing_node.tree")
    ]
    for doc, rule, label in fixture_cases(sorted(FIXTURES.glob("*.tree")) + over_cap):
        compare(doc.tree, rule, label)
    head = "omega a b\nreward z = 0\nevent E = a b\ntree = "
    for nest in ("decision(", "chance(E: "):
        text = head + nest * MAX_TREE_DEPTH + "leaf(z)" + ")" * MAX_TREE_DEPTH + "\n"
        doc = parse_tree_file(text)
        compare(doc.tree, RULES["pointwise_dominance"](ChoiceContext(doc.rewards)), nest)
    assert tally["checks"] == 32 and tally["violations"] > 0, tally
    # one_gamble.tree's 100,489 strategies, and failing_node.tree's root
    # solution past the cap: the literal check cannot list the root
    # solution, the gamble-pool check answers, with a violation for the latter
    assert tally["past_cap"] > 0 and tally["past_cap_violations"] > 0, tally


# ---------------------------------------------------------------------------
# Normal-extensive equivalence by a kept-arc count, against the listing


@pytest.fixture
def equivalence_differences(monkeypatch):
    """Decide equivalence for each (tree, solution) given both ways: by the
    kept-arc count, and as it reads, by listing the extensive form's
    strategies and naming the first, in choice order, outside the solution.
    The count must equal the listing's length, and the production check
    must list only where equivalence fails. Returns the compare function
    and a counter of verdicts."""
    listings = []

    def counted_nfd_of_extensive(extensive):
        listings.append(extensive)
        return nfd_of_extensive(extensive)

    monkeypatch.setattr(solve, "nfd_of_extensive", counted_nfd_of_extensive)
    tally = Counter()

    def compare(tree, solution, where):
        listings.clear()
        verdict = equivalence_for_solution(tree, solution)
        expanded = literal_nfd_of_extensive(verdict.extensive)
        extra = expanded - frozenset(solution)
        witness = min(extra, key=path_choices, default=None)
        assert (verdict.equal, verdict.witness) == (not extra, witness), where
        assert nfd_count(tree, verdict.extensive.kept_arcs.__contains__) == len(expanded), where
        assert len(listings) == (not verdict.equal), where
        tally[verdict.equal] += 1

    return compare, tally


@pytest.mark.parametrize("name", sorted(RULES))
def test_equivalence_by_count_matches_the_listing_on_corpus(
    acceptance_corpus, equivalence_differences, name
):
    compare, tally = equivalence_differences
    for index, tree in enumerate(acceptance_corpus):
        rule = rule_for(tree, name, index)
        for solver in (norm_opt, back_opt):
            compare(tree, solver(tree, rule).solution, (index, solver.__name__))
    assert sum(tally.values()) == 400, tally


def test_equivalence_by_count_matches_the_listing_on_other_solutions(
    acceptance_corpus, cross_doc, equivalence_differences
):
    compare, tally = equivalence_differences
    for index, tree in enumerate(acceptance_corpus):
        rule = FussyPairsRule(ChoiceContext(reward_table_for_tree(tree)))
        for solver in (norm_opt, back_opt):
            compare(tree, solver(tree, rule).solution, (index, solver.__name__))
        compare(tree, nfd(tree)[::2], (index, "every other strategy"))
    # every member set of the cross fixture, the diagonal pairs among them
    members = nfd(cross_doc.tree)
    for size in range(1, len(members) + 1):
        for solution in itertools.combinations(members, size):
            compare(cross_doc.tree, solution, solution)
    assert tally[True] > 0 and tally[False] > 0, tally


def test_equivalence_by_count_matches_the_listing_on_fixtures(equivalence_differences):
    compare, tally = equivalence_differences
    paths = sorted(FIXTURES.glob("*.tree")) + [
        FIXTURES / "over_cap" / "wide_chance.tree",
        FIXTURES / "laws" / "pd.tree",
    ]
    for doc, rule, label in fixture_cases(paths):
        for solver in (norm_opt, back_opt):
            compare(doc.tree, solver(doc.tree, rule).solution, (label, solver.__name__))
    assert tally[True] > 0 and tally[False] > 0, tally


# ---------------------------------------------------------------------------
# One post-order fold, against the recursions it replaced


def literal_nfd_count(tree):
    """Products at chance nodes, sums at decision nodes, by recursion."""

    def count(node):
        if isinstance(node, Leaf):
            return 1
        if isinstance(node, Chance):
            total = 1
            for _, child in node.branches:
                total *= count(child)
            return total
        return sum(count(child) for child in node.children)

    return count(tree.root)


def nested_fold_serialize(document):
    """A document's text, the tree expression folded bottom-up: each node's
    text holds a copy of each child's."""
    names = {}
    for name, event in document.events:
        names.setdefault(event.bits, name)

    nodes = document.tree.index.nodes

    for node in nodes:  # the first unnamed event in preorder
        if isinstance(node, Chance):
            for event, _ in node.branches:
                if event.bits not in names:
                    raise UnknownReference(f"unnamed event {event!r}")

    def expr(node, path, below):
        if isinstance(node, Decision):
            return f"decision({', '.join(below)})"
        parts = (f"{names[e.bits]}: {b}" for (e, _), b in zip(node.branches, below))
        return f"chance({', '.join(parts)})"

    lines = [f"omega {' '.join(document.space.states)}"]
    lines += [f"reward {n} = {document.rewards.utility(n)}" for n in document.reward_order]
    lines += [f"event {n} = {' '.join(e.labels())}" for n, e in document.events]
    if document.root_event_name is not None:
        lines.append(f"root_event {document.root_event_name}")
    tree_expression = document.tree.fold(lambda node: f"leaf({node.reward})", expr)
    lines.append(f"tree = {tree_expression}")
    return "\n".join(lines) + "\n"


def literal_export_dot(tree, rewards=None, solution=None):
    """Graphviz text written by a recursive visit: each node's line, then
    for each child the arc's line and the child's own lines."""
    validate(tree)
    pruned = set()
    if solution is not None:
        pruned = {tree.path_of(v) for v in extract_extensive(tree, solution).pruned_arcs}
    lines = ["digraph decision_tree {", "  rankdir=LR;"]

    def node_id(path):
        return "n" + "_".join(str(i) for i in path) if path else "n"

    def quoted(label):
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def leaf_label(reward):
        if rewards is not None and reward in rewards:
            utility = rewards.utility(reward)
            if str(utility) != reward:
                return f"{reward} = {utility}"
        return reward

    def visit(node, path):
        me = node_id(path)
        if isinstance(node, Leaf):
            lines.append(f"  {me} [shape=plaintext, label={quoted(leaf_label(node.reward))}];")
        elif isinstance(node, Decision):
            lines.append(f'  {me} [shape=box, label=""];')
            for i, child in enumerate(node.children):
                arc = path + (i,)
                style = ", style=dashed" if arc in pruned else ""
                lines.append(f'  {me} -> {node_id(arc)} [label="{i + 1}"{style}];')
                visit(child, arc)
        else:
            lines.append(f'  {me} [shape=circle, label=""];')
            for i, (event, child) in enumerate(node.branches):
                arc = path + (i,)
                label = quoted("{" + ",".join(event.labels()) + "}")
                lines.append(f"  {me} -> {node_id(arc)} [label={label}];")
                visit(child, arc)

    visit(tree.root, ())
    lines.append("}")
    return "\n".join(lines) + "\n"


def outcome(call, *args, **kwargs):
    """A call's result, or the type, node and message of its error."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:
        return type(exc), getattr(exc, "node_id", None), str(exc)


def test_fold_matches_the_literal_recursions(acceptance_corpus):
    members_seen = 0
    for index, tree in enumerate(acceptance_corpus):
        assert nfd_count(tree) == literal_nfd_count(tree), index
        members = nfd(tree)
        rewards = reward_table_for_tree(tree)
        for solution in (None, members, members[:1], members[-1:], members[::2]):
            assert export_dot(tree, rewards, solution) == literal_export_dot(
                tree, rewards, solution
            ), index
        members_seen += len(members)
    assert members_seen == sum(map(literal_nfd_count, acceptance_corpus))


def test_serialize_matches_the_nested_string_fold(acceptance_corpus):
    documents = [parse_tree_file(path.read_text()) for path in sorted(FIXTURES.glob("*.tree"))]
    for tree in acceptance_corpus:
        document = document_for(tree, reward_table_for_tree(tree))
        documents += [document, replace(document, events=document.events[1:])]
    node = Leaf("1")
    for _ in range(10_000):
        node = Decision((Leaf("0"), node))
    documents.append(document_for(DecisionTree.over(PossibilitySpace(("a", "b")), node)))
    unnamed = 0
    for index, document in enumerate(documents):
        text = outcome(document.serialize)
        assert text == outcome(nested_fold_serialize, document), index
        unnamed += isinstance(text, tuple)
    assert unnamed > 100 and len(documents[-1].serialize()) == 190_051, unnamed


def literal_replace_node(root, path, new):
    if not path:
        return new
    index, rest = path[0], path[1:]
    if isinstance(root, Decision):
        children = list(root.children)
        children[index] = literal_replace_node(children[index], rest, new)
        return Decision(tuple(children))
    if isinstance(root, Chance):
        branches = list(root.branches)
        event, child = branches[index]
        branches[index] = (event, literal_replace_node(child, rest, new))
        return Chance(tuple(branches))
    raise ValueError("path walks through a leaf")


def test_replace_node_matches_the_literal_recursion(acceptance_corpus):
    outcomes = Counter()
    for index, tree in enumerate(acceptance_corpus):
        for path in map(tree.path_of, range(len(tree.index.nodes))):
            for where in (path, path + (0,), path + (5,)):
                got = outcome(replace_node, tree.root, where, Leaf("z"))
                expected = outcome(literal_replace_node, tree.root, where, Leaf("z"))
                if isinstance(got, tuple):
                    # an error: compare types only, as an index error's
                    # message names the kind of sequence it indexed
                    got, expected = got[0], expected[0]
                assert got == expected, index
                outcomes[got.__name__ if isinstance(got, type) else "replaced"] += 1
    assert min(outcomes[k] for k in ("replaced", "IndexError", "ValueError")) > 500, outcomes


@pytest.mark.parametrize(
    "label",
    # an inconsistent tree cannot be built, so the enumerator never sees one
    [
        label
        for label, parts in INCONSISTENT_TREES.items()
        if rejection(DecisionTree, *parts) is None
    ],
)
def test_the_enumerator_fails_as_the_literal_recursion_on_crafted_trees(label):
    tree = DecisionTree(*INCONSISTENT_TREES[label])
    members = nfd(tree)
    assert members == literal_nfd(tree)
    assert gamb(tree) == literal_gamb(tree)
    # the `keep_arc` hook, first children only, and the `select` hook
    extensive = extract_extensive(tree, [m for m in members if not any(i for _, i in m.choices)])
    assert nfd_of_extensive(extensive) == literal_nfd_of_extensive(extensive)
    rule = PointwiseDominance(ChoiceContext(RewardTable({"x": 0, "y": 1, "z": 2})))
    backward = back_opt(tree, rule)
    assert (backward.solution, backward.induced, backward.stats) == literal_back_opt(tree, rule)


LITERAL_RESERVED = set("(),:=#")


class LiteralExprParser:
    """Recursive-descent parser for one tree expression, into a tuple AST."""

    def __init__(self, text, line_no, col_offset):
        self.text = text
        self.pos = 0
        self.line_no = line_no
        self.col_offset = col_offset

    def error(self, message):
        return TreeSyntaxError(message, self.line_no, self.col_offset + self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char):
        self.skip_ws()
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def atom(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isspace() or c in LITERAL_RESERVED:
                break
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def parse(self):
        expr = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input after tree expression")
        return expr

    def expr(self, depth=0):
        head = self.atom()
        if head == "leaf":
            self.expect("(")
            reward = self.atom()
            self.expect(")")
            return ("leaf", reward)
        if head in ("decision", "chance") and depth == MAX_TREE_DEPTH:
            raise self.error(f"{NESTED_DEEPER} {MAX_TREE_DEPTH}")
        if head == "decision":
            self.expect("(")
            children = [self.expr(depth + 1)]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                children.append(self.expr(depth + 1))
                self.skip_ws()
            self.expect(")")
            return ("decision", children)
        if head == "chance":
            self.expect("(")
            branches = []
            while True:
                name = self.atom()
                self.expect(":")
                branches.append((name, self.expr(depth + 1)))
                self.skip_ws()
                if self.peek() != ",":
                    break
                self.pos += 1
            self.expect(")")
            return ("chance", branches)
        raise self.error(f"expected leaf/decision/chance, got {head!r}")


def literal_strip_comment(line):
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def literal_rational(text, line_no):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise TreeSyntaxError(f"not a rational: {text!r}", line_no, 1) from None


def literal_event_named(events, name):
    for label, event in events:
        if label == name:
            return event
    raise UnknownReference(name)


def literal_parse_tree_file(text):
    """A tree document read line by line, its tree expression parsed into a
    tuple AST by recursive descent and built from it by recursion."""
    states = None
    rewards = {}
    reward_order = []
    events = []
    root_event_name = None
    tree_expr = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = literal_strip_comment(raw).strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "omega":
            if states is not None:
                raise DuplicateDefinition("omega")
            labels = rest.split()
            if not labels:
                raise TreeSyntaxError("omega needs at least one state", line_no, 1)
            states = tuple(labels)
        elif keyword == "reward":
            name, eq, value = rest.partition("=")
            name = name.strip()
            if not eq or not name or not value.strip():
                raise TreeSyntaxError("expected `reward <name> = <value>`", line_no, 1)
            if name in rewards:
                raise DuplicateDefinition(name)
            rewards[name] = literal_rational(value.strip(), line_no)
            reward_order.append(name)
        elif keyword == "event":
            name, eq, labels = rest.partition("=")
            name = name.strip()
            if not eq or not name or not labels.split():
                raise TreeSyntaxError("expected `event <name> = <label>+`", line_no, 1)
            if any(name == existing for existing, _ in events):
                raise DuplicateDefinition(name)
            events.append((name, tuple(labels.split())))
        elif keyword == "root_event":
            if root_event_name is not None:
                raise DuplicateDefinition("root_event")
            if not rest:
                raise TreeSyntaxError("expected `root_event <event-name>`", line_no, 1)
            root_event_name = rest
        elif keyword == "tree":
            eq_pos = raw.find("=")
            if eq_pos < 0 or not rest.startswith("="):
                raise TreeSyntaxError("expected `tree = <expr>`", line_no, 1)
            if tree_expr is not None:
                raise DuplicateDefinition("tree")
            expr_text = literal_strip_comment(raw[eq_pos + 1:])
            if not expr_text.strip():
                raise TreeSyntaxError("empty tree expression", line_no, eq_pos + 2)
            tree_expr = LiteralExprParser(expr_text, line_no, eq_pos + 1).parse()
        else:
            raise TreeSyntaxError(f"unknown directive {keyword!r}", line_no, 1)

    if states is None:
        raise TreeSyntaxError("missing omega declaration", 1, 1)
    if tree_expr is None:
        raise TreeSyntaxError("missing tree expression", 1, 1)

    space = PossibilitySpace(states)
    table = RewardTable(rewards)
    named_events = tuple((name, space.event(labels)) for name, labels in events)

    def build(expr):
        kind = expr[0]
        if kind == "leaf":
            if expr[1] not in table:
                raise UnknownReference(expr[1])
            return Leaf(expr[1])
        if kind == "decision":
            return Decision(tuple(build(e) for e in expr[1]))
        return Chance(tuple((literal_event_named(named_events, n), build(e)) for n, e in expr[1]))

    root_event = space.omega
    if root_event_name is not None:
        root_event = literal_event_named(named_events, root_event_name)
    return TreeDocument(
        space=space,
        rewards=table,
        reward_order=tuple(reward_order),
        events=named_events,
        root_event_name=root_event_name,
        tree=DecisionTree(space, build(tree_expr), root_event),
    )


def literal_parse_context_file(text):
    """A context document read line by line, one branch per block state."""
    probability = {}
    credal = []
    current = None

    def parse_prob(rest, line_no, into):
        name, eq, value = rest.partition("=")
        name = name.strip()
        if not eq or not name or not value.strip():
            raise TreeSyntaxError("expected `prob <label> = p/q`", line_no, 1)
        if name in into:
            raise DuplicateDefinition(name)
        into[name] = literal_rational(value.strip(), line_no)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = literal_strip_comment(raw).strip()
        if not line:
            continue
        if current is None:
            if line == "credal {":
                current = {}
            elif line.startswith("prob "):
                parse_prob(line[len("prob "):], line_no, probability)
            else:
                raise TreeSyntaxError(f"unexpected line {line!r}", line_no, 1)
        else:
            if line == "} {":
                credal.append(current)
                current = {}
            elif line == "}":
                credal.append(current)
                current = None
            elif line.startswith("prob "):
                parse_prob(line[len("prob "):], line_no, current)
            else:
                raise TreeSyntaxError(f"unexpected line {line!r}", line_no, 1)
    if current is not None:
        raise TreeSyntaxError("unterminated credal block", line_no, 1)
    return ContextDocument(
        probability=probability if probability else None,
        credal=tuple(credal) if credal else None,
    )


def mutations(text, rng, count):
    """`count` copies of `text`, each with one character deleted, one of
    `(),:= #\\t` or a letter inserted, or a span cut out."""
    out = []
    for _ in range(count):
        i = rng.randrange(len(text))
        kind = rng.randrange(3)
        if kind == 0:
            out.append(text[:i] + text[i + 1:])
        elif kind == 1:
            out.append(text[:i] + rng.choice("(),:= #\tx") + text[i:])
        else:
            out.append(text[:i] + text[rng.randrange(i, len(text) + 1):])
    return out


def read_outcome(read, serialize, text):
    """The serialized document a reader gives, or the type and message of
    its error."""
    try:
        return serialize(read(text))
    except Exception as exc:
        return type(exc), str(exc)


def error_kind(outcome):
    """An outcome's error message without its position or the name it quotes,
    or "read"."""
    if isinstance(outcome, str):
        return "read"
    kind, message = outcome
    if kind is not TreeSyntaxError:
        return kind.__name__
    message = message.partition(": ")[2]
    return message if re.fullmatch(r"expected '.'", message) else message.split(" '")[0]


NESTED_DEEPER = "decision/chance nodes nested deeper than the limit of"


def test_the_reader_matches_the_recursive_descent_parser(acceptance_corpus):
    trees = [
        document_for(tree, reward_table_for_tree(tree)).serialize() for tree in acceptance_corpus
    ]
    contexts = []
    for tree in acceptance_corpus[:100]:
        rng = rng_for("context", tree.space.states)
        masses = [{s: Fraction(rng.randrange(1, 9)) for s in tree.space.states} for _ in range(3)]
        masses = [{s: m / sum(block.values()) for s, m in block.items()} for block in masses]
        contexts.append(serialize_context(ContextDocument(masses[0], tuple(masses[1:]))))
    for path in sorted(FIXTURES.rglob("*")):
        if path.is_file():
            (trees if path.suffix == ".tree" else contexts).append(path.read_text())
    kinds = Counter()

    def compare(literal, reader, serialize, text):
        expected = read_outcome(literal, serialize, text)
        assert read_outcome(reader, serialize, text) == expected, text
        kinds[reader.__name__, error_kind(expected)] += 1

    for documents, literal, reader, serialize in [
        (trees, literal_parse_tree_file, parse_tree_file, TreeDocument.serialize),
        (contexts, literal_parse_context_file, parse_context_file, serialize_context),
    ]:
        for index, text in enumerate(documents):
            for mutated in [text, *mutations(text, rng_for("mutate", reader.__name__, index), 60)]:
                compare(literal, reader, serialize, mutated)
    # one level past the depth limit, unmutated: a mutation could leave a
    # nest within the limit, which the literal build, two frames a level,
    # cannot read under the default recursion limit
    depth = MAX_TREE_DEPTH + 1
    for head in ("decision(", "chance(E: "):
        nest = head * depth + "leaf(z)" + ")" * depth
        text = f"omega a b\nreward z = 0\nevent E = a b\ntree = {nest}\n"
        compare(literal_parse_tree_file, parse_tree_file, TreeDocument.serialize, text)
    assert kinds["parse_tree_file", f"{NESTED_DEEPER} {MAX_TREE_DEPTH}"] == 2
    tree_kinds = [
        "read", "UnknownReference", "DuplicateDefinition", "NotAPartition",
        "expected a name", "expected '('", "expected ')'", "expected ':'",
        "expected leaf/decision/chance, got", "trailing input after tree expression",
        "empty tree expression", "expected `tree = <expr>`", "missing tree expression",
        "expected `reward <name> = <value>`", "expected `event <name> = <label>+`",
        "not a rational:", "unknown directive",
    ]
    context_kinds = [
        "read", "DuplicateDefinition", "expected `prob <label> = p/q`", "not a rational:",
        "unexpected line", "unterminated credal block",
    ]
    for reader, expected in [
        ("parse_tree_file", tree_kinds),
        ("parse_context_file", context_kinds),
    ]:
        assert min(kinds[reader, kind] for kind in expected) >= 4, kinds
    assert sum(kinds.values()) == 61 * (len(trees) + len(contexts)) + 2
