"""Differential checks against two oracles.

The play-out oracle computes a strategy's gamble by simulating each state
of the world through the tree (follow the kept arc at decision nodes, the
branch containing the state at chance nodes) and re-implements two
selection rules from scratch. It shares no code path with the library's
gamble algebra.

The literal oracle is the enumeration written once per operator, as the
definitions read: strategies as merged choice dicts, each strategy's gamble
patched together over every chance node's partition, backward induction as
its own recursion. The library derives all of these from one bottom-up
enumerator, `trees.strategies`.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from treechoice import solve
from treechoice.errors import EnumerationLimitExceeded
from treechoice.generate import (
    GenConfig,
    random_consistent_tree,
    reward_table_for_tree,
    rng_for,
    seeded_rule_policy,
    subseed,
    tree_corpus,
)
from treechoice.model import Gamble, GambleSet, combine_on_partition
from treechoice.rules import RULES
from treechoice.solve import (
    back_opt,
    extract_extensive,
    induced_gambles,
    nfd_of_extensive,
    norm_opt,
)
from treechoice.trees import (
    Chance,
    Decision,
    Leaf,
    NormalFormDecision,
    gamb,
    nfd,
    nfd_count,
    strategies,
    validate,
)

from test_acceptance import CORPUS_CONFIG, SEED, rule_for

CONFIG = GenConfig(max_depth=4, omega_range=(2, 6), nfd_ceiling=250)


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
    return tuple(
        play_out(tree, member.choice_map, i) for i in range(tree.space.size)
    )


def oracle_eu_solution(tree, members, probability, utilities):
    given = tree.root_event
    weight = sum(probability.masses[i] for i in given.indices())
    scores = {}
    for member in members:
        values = oracle_gamble(tree, member)
        scores[member] = sum(
            (
                probability.masses[i] * utilities.utility(values[i])
                for i in given.indices()
            ),
            Fraction(0),
        ) / weight
    best = max(scores.values())
    return {m for m, s in scores.items() if s == best}


def oracle_dominance_solution(tree, members, utilities):
    given = list(tree.root_event.indices())
    vectors = {m: oracle_gamble(tree, m) for m in members}

    def beats(a, b):
        av, bv = vectors[a], vectors[b]
        ge = all(utilities.utility(av[i]) >= utilities.utility(bv[i]) for i in given)
        gt = any(utilities.utility(av[i]) > utilities.utility(bv[i]) for i in given)
        return ge and gt

    # optimal gambles, then every strategy inducing one of them
    undominated = {
        vectors[m]
        for m in members
        if not any(beats(other, m) for other in members)
    }
    return {m for m in members if vectors[m] in undominated}


def literal_nfd(tree, cap=10**5):
    """All strategies, enumerated as merged choice dicts and sorted."""
    if nfd_count(tree) > cap:
        raise EnumerationLimitExceeded(f"more than {cap} strategies")

    def enumerate_node(node, path):
        if isinstance(node, Leaf):
            return [{}]
        if isinstance(node, Decision):
            return [
                {path: i, **sub}
                for i, child in enumerate(node.children)
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
    return tuple(sorted(decisions, key=lambda d: d.choices))


def literal_gamble(member):
    """A strategy's gamble: follow its arcs, combine over each partition."""
    tree = member.tree

    def build(node, path):
        if isinstance(node, Leaf):
            return Gamble.constant(tree.space, node.reward)
        if isinstance(node, Decision):
            index = member.choice_map[path]
            return build(node.children[index], path + (index,))
        return combine_on_partition(
            [
                (event, build(child, path + (i,)))
                for i, (event, child) in enumerate(node.branches)
            ]
        )

    return build(tree.root, ())


def literal_norm_opt(tree, rule):
    """Solution, induced gambles and stats of the normal form operator."""
    validate(tree)
    members = literal_nfd(tree)
    pool = gamb(tree)
    chosen = rule.select(pool, tree.root_event)
    solution = frozenset(m for m in members if literal_gamble(m) in chosen)
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
    return frozenset(
        m
        for m in literal_nfd(extensive.tree)
        if extensive.kept_arcs.issuperset(m.arc_paths())
    )


@pytest.fixture(scope="module")
def acceptance_corpus():
    return tree_corpus(CORPUS_CONFIG, SEED, 200)


def test_enumeration_matches_literal_oracle(acceptance_corpus):
    for index, tree in enumerate(acceptance_corpus):
        members = nfd(tree)
        expected = literal_nfd(tree)
        assert [m.choices for m in members] == [m.choices for m in expected], index
        assert members == expected, index
        assert [m.gamble for m in members] == [
            literal_gamble(m) for m in expected
        ], index


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
        # the subtrees the perfectness check re-solves, under their own events
        for path in tree.paths():
            if path and any(m.contains_node(path) for m in normal.solution):
                check_normal_form(tree.subtree_at(path), rule, (index, path))
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
    # one walk where every strategy has its own gamble, two where the
    # chosen gambles' strategies had to be expanded
    assert set(calls_by_walks) == {1, 2}, calls_by_walks


def test_enumeration_caps_keep_their_messages(lake_doc, lake_eu):
    tree = lake_doc.tree
    with pytest.raises(EnumerationLimitExceeded, match="^6 normal form decisions "):
        nfd(tree, cap=5)
    with pytest.raises(EnumerationLimitExceeded, match="^6 normal form decisions "):
        norm_opt(tree, lake_eu, cap=5)
    with pytest.raises(EnumerationLimitExceeded, match=" glued candidates exceed "):
        back_opt(tree, lake_eu, cap=1)
    full = extract_extensive(tree, nfd(tree))
    with pytest.raises(EnumerationLimitExceeded, match=" strategies exceed the cap of 1$"):
        nfd_of_extensive(full, cap=1)
    assert induced_gambles(nfd(tree, cap=6)) == gamb(tree)


@pytest.mark.parametrize("index", range(60))
def test_gambles_match_play_out_oracle(index):
    tree = random_consistent_tree(CONFIG, seed=subseed("diff", index))
    for member in nfd(tree):
        assert member.gamble.values == oracle_gamble(tree, member)


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
    expected = oracle_dominance_solution(tree, nfd(tree), rewards)
    assert norm_opt(tree, rule).solution == expected
