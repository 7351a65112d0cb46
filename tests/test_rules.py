import itertools
from fractions import Fraction

import pytest

from treechoice.errors import (
    EmptyEvent,
    EmptySet,
    InconsistentSet,
    MissingContext,
    SpaceMismatch,
)
from treechoice.generate import GenConfig, random_mass_function, rng_for
from treechoice.model import Gamble, GambleSet, PossibilitySpace, RewardTable
from treechoice.rules import (
    ChoiceContext,
    MassFunction,
    RULES,
    conditional_expectation,
    make_rule,
)
from treechoice.trees import gamb

W4 = PossibilitySpace(("w1", "w2", "w3", "w4"))
NUMERIC = RewardTable.from_literals(["0", "1", "2", "3", "4", "5", "9", "14", "-1", "-2"])
UNIFORM4 = MassFunction.uniform(W4)


def credal_context(rewards, *weighted):
    space = weighted[0][0]
    credal = tuple(MassFunction.from_weights(space, w) for _, w in weighted)
    return ChoiceContext(rewards, credal=credal)


def test_conditional_expectation_of_constant():
    g = Gamble.constant(W4, "3")
    for event in (W4.omega, W4.event(["w2"]), W4.event(["w1", "w4"])):
        assert conditional_expectation(UNIFORM4, g, event, NUMERIC) == 3


def test_conditional_expectation_uniform_patchwork():
    g = Gamble(W4, ("9", "9", "14", "14"))
    # oracle: (9 + 9 + 14 + 14) / 4
    assert conditional_expectation(UNIFORM4, g, W4.omega, NUMERIC) == Fraction(46, 4)
    assert conditional_expectation(UNIFORM4, g, W4.omega, NUMERIC) == Fraction(23, 2)


def test_conditional_expectation_restricted():
    g = Gamble(W4, ("9", "9", "14", "14"))
    assert conditional_expectation(UNIFORM4, g, W4.event(["w1", "w2"]), NUMERIC) == 9


def test_conditional_expectation_empty_event():
    with pytest.raises(EmptyEvent):
        conditional_expectation(UNIFORM4, Gamble.constant(W4, "1"), W4.empty_event, NUMERIC)


W3 = PossibilitySpace(("w1", "w2", "w3"))
V3 = PossibilitySpace(("v1", "v2", "v3"))
W2 = PossibilitySpace(("w1", "w2"))


@pytest.mark.parametrize(
    "p, gamble",
    [
        (MassFunction.uniform(W3), Gamble(V3, ("0", "1", "4"))),  # same size, other labels
        (MassFunction.uniform(W3), Gamble(W2, ("1", "2"))),  # a shorter gamble
        (MassFunction.uniform(W2), Gamble(W3, ("0", "1", "4"))),  # a shorter mass function
    ],
)
def test_conditional_expectation_rejects_a_value_over_another_space(p, gamble):
    with pytest.raises(SpaceMismatch):
        conditional_expectation(p, gamble, W3.omega, NUMERIC)


def incomparable_gambles(incomparable_doc):
    by_values = {g.values: g for g in gamb(incomparable_doc.tree)}
    return by_values[("m1", "m1")], by_values[("m2", "p2")], by_values[("z", "z")]


def test_dominance_drops_dominated_option(incomparable_doc, incomparable_dominance):
    x, y, z = incomparable_gambles(incomparable_doc)
    out = incomparable_dominance.select(GambleSet([x, y, z]), incomparable_doc.space.omega)
    assert set(out) == {y, z}


def test_dominance_keeps_incomparable_pair(incomparable_doc, incomparable_dominance):
    x, y, _ = incomparable_gambles(incomparable_doc)
    out = incomparable_dominance.select(GambleSet([x, y]), incomparable_doc.space.omega)
    assert set(out) == {x, y}


def test_dominance_needs_strictness():
    space = PossibilitySpace(("a", "b"))
    rewards = RewardTable.from_literals(["1", "2"])
    rule = make_rule("pointwise_dominance", ChoiceContext(rewards))
    tied = GambleSet([Gamble(space, ("1", "2")), Gamble(space, ("2", "1"))])
    assert rule.select(tied, space.omega) == tied


def test_dominance_ignores_differences_off_the_event():
    # strictness must be attained ON the conditioning event: gambles equal
    # there are mutually undominated however they differ elsewhere
    space = PossibilitySpace(("a", "b", "c"))
    rewards = RewardTable.from_literals(["0", "1", "5"])
    rule = make_rule("pointwise_dominance", ChoiceContext(rewards))
    ab = space.event(["a", "b"])
    x = Gamble(space, ("1", "0", "1"))
    y = Gamble(space, ("1", "0", "0"))  # equal to x on ab
    z = Gamble(space, ("5", "5", "5"))  # strictly better on ab
    assert rule.select(GambleSet([x, y]), ab) == GambleSet([x, y])
    assert rule.select(GambleSet([x, y, z]), ab) == GambleSet([z])


def test_every_rule_keeps_singletons(incomparable_doc, incomparable_credal_context):
    x = Gamble.constant(incomparable_doc.space, "z")
    single = GambleSet([x])
    prob_ctx = ChoiceContext(
        incomparable_doc.rewards, probability=MassFunction.uniform(incomparable_doc.space)
    )
    for name in sorted(RULES):
        ctx = incomparable_credal_context if RULES[name].needs == {"credal"} else prob_ctx
        rule = make_rule(name, ctx)
        assert set(rule.select(single, incomparable_doc.space.omega)) == {x}


def test_eu_max_lake_uniform_oracle(lake_doc, lake_eu):
    pool = gamb(lake_doc.tree)
    # oracle: exhaustive expectation of every strategy gamble, by direct sums
    expectations = {}
    for g in pool:
        total = sum(Fraction(v[1:]) for v in g.values)  # symbols are r<NUM>
        expectations[g] = Fraction(total, 4)
    best = max(expectations.values())
    argmax = {g for g, e in expectations.items() if e == best}
    assert best == Fraction(25, 2)
    assert {g.values for g in argmax} == {
        ("r10", "r10", "r15", "r15"),
        ("r5", "r5", "r20", "r20"),
    }
    assert set(lake_eu.select(pool, lake_doc.space.omega)) == argmax


def test_select_validates_input(incomparable_doc, incomparable_dominance):
    x, y, z = incomparable_gambles(incomparable_doc)
    with pytest.raises(EmptySet):
        incomparable_dominance.select(GambleSet([]), incomparable_doc.space.omega)
    with pytest.raises(EmptyEvent):
        incomparable_dominance.select(GambleSet([x]), incomparable_doc.space.empty_event)
    with pytest.raises(InconsistentSet):
        # y attains p2 only outside A
        incomparable_dominance.select(GambleSet([y]), incomparable_doc.event_named("A"))


def test_missing_context_errors(incomparable_doc):
    bare = ChoiceContext(incomparable_doc.rewards)
    with pytest.raises(MissingContext):
        make_rule("eu_max", bare)
    for name in ("maximality", "e_admissibility", "gamma_maximin", "interval_dominance"):
        with pytest.raises(MissingContext):
            make_rule(name, bare)


def test_unknown_rule_name(incomparable_doc):
    with pytest.raises(ValueError):
        make_rule("nope", ChoiceContext(incomparable_doc.rewards))


def _random_case(index):
    rng = rng_for("rules-case", index)
    size = rng.randint(2, 5)
    space = PossibilitySpace(tuple(f"s{i}" for i in range(size)))
    pool = ["-2", "-1", "0", "1", "2", "3"]
    gambles = GambleSet(
        Gamble(space, tuple(rng.choice(pool) for _ in range(size)))
        for _ in range(rng.randint(2, 6))
    )
    rewards = RewardTable.from_literals(pool)
    credal = tuple(random_mass_function(space, rng) for _ in range(rng.randint(2, 3)))
    return space, gambles, rewards, credal


def test_credal_rules_separate_on_a_crafted_instance():
    # X best under p1, Y best under p2, Z the safe middle: the four credal
    # rules give four different answers on this one set
    space = PossibilitySpace(("s1", "s2"))
    rewards = RewardTable.from_literals(["0", "2", "4"])
    credal = (
        MassFunction.from_weights(space, [3, 1]),
        MassFunction.from_weights(space, [1, 3]),
    )
    ctx = ChoiceContext(rewards, credal=credal)
    x = Gamble(space, ("4", "0"))
    y = Gamble(space, ("0", "4"))
    z = Gamble(space, ("2", "2"))
    pool = GambleSet([x, y, z])
    omega = space.omega
    assert set(make_rule("e_admissibility", ctx).select(pool, omega)) == {x, y}
    assert set(make_rule("maximality", ctx).select(pool, omega)) == {x, y, z}
    assert set(make_rule("gamma_maximin", ctx).select(pool, omega)) == {z}
    assert set(make_rule("interval_dominance", ctx).select(pool, omega)) == {x, y, z}


@pytest.mark.parametrize("index", range(40))
def test_credal_rule_inclusions(index):
    space, gambles, rewards, credal = _random_case(index)
    ctx = ChoiceContext(rewards, credal=credal)
    e_adm = set(make_rule("e_admissibility", ctx).select(gambles, space.omega))
    maximal = set(make_rule("maximality", ctx).select(gambles, space.omega))
    interval = set(make_rule("interval_dominance", ctx).select(gambles, space.omega))
    gmm = set(make_rule("gamma_maximin", ctx).select(gambles, space.omega))
    assert e_adm <= maximal <= interval
    assert gmm <= maximal


@pytest.mark.parametrize("index", range(40))
def test_single_distribution_credal_collapses_to_eu(index):
    space, gambles, rewards, credal = _random_case(index)
    single = (credal[0],)
    eu = make_rule("eu_max", ChoiceContext(rewards, probability=credal[0]))
    expected = eu.select(gambles, space.omega)
    ctx = ChoiceContext(rewards, credal=single)
    for name in ("maximality", "e_admissibility", "gamma_maximin"):
        assert make_rule(name, ctx).select(gambles, space.omega) == expected


@pytest.mark.parametrize("index", range(20))
def test_rules_return_nonempty_subsets_conditionally(index):
    from treechoice.generate import random_gamble_instance
    from treechoice.props import PropertyId, reward_table_for_instance

    instance = random_gamble_instance(
        PropertyId.P1_conditioning, GenConfig(), seed=index
    )
    rewards = reward_table_for_instance(instance)
    rng = rng_for("rules-ctx", index)
    credal = tuple(
        random_mass_function(instance.space, rng) for _ in range(2)
    )
    ctx = ChoiceContext(rewards, probability=credal[0], credal=credal)
    for name in sorted(RULES):
        out = make_rule(name, ctx).select(instance.gambles, instance.given)
        assert 0 < len(out) and out.issubset(instance.gambles)


def test_mass_function_invariants():
    with pytest.raises(ValueError):
        MassFunction(W4, (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        MassFunction(W4, (Fraction(1, 2),) * 4)
    assert MassFunction.from_weights(W4, [1, 1, 1, 1]).masses == (Fraction(1, 4),) * 4


def test_context_restriction_renormalizes():
    p = MassFunction.from_weights(W4, [1, 2, 3, 4])
    small = PossibilitySpace(("w2", "w4"))
    q = p.restricted(small, (1, 3))
    assert q.masses == (Fraction(1, 3), Fraction(2, 3))


def count_work_bound_calls(monkeypatch, name):
    """One `select` of rule `name` on 256 gambles under 3 mass functions:
    the gambles, the mass functions and the row entries it computed
    (`column_expectation` calls)."""
    from treechoice import rules

    calls = []
    entry = rules.column_expectation

    def counted(*args):
        calls.append(args)
        return entry(*args)

    monkeypatch.setattr(rules, "column_expectation", counted)
    gambles = GambleSet(
        Gamble(W4, values) for values in itertools.product(("0", "1", "2", "5"), repeat=4)
    )
    rng = rng_for("work-bound")
    credal = tuple(random_mass_function(W4, rng) for _ in range(3))
    chosen = make_rule(name, ChoiceContext(NUMERIC, credal=credal)).select(
        gambles, W4.omega
    )
    assert len(gambles) == 256 and 0 < len(chosen) < len(gambles)
    return gambles, credal, calls


def test_maximality_scores_each_gamble_once_per_mass_function(monkeypatch):
    gambles, credal, calls = count_work_bound_calls(monkeypatch, "maximality")
    assert 0 < len(calls) <= len(gambles) * len(credal)


@pytest.mark.parametrize("name", ["interval_dominance", "gamma_maximin", "e_admissibility"])
def test_credal_rules_score_each_gamble_once_per_mass_function(monkeypatch, name):
    gambles, credal, calls = count_work_bound_calls(monkeypatch, name)
    assert 0 < len(calls) <= len(gambles) * len(credal)



@pytest.mark.parametrize(
    "name", ["eu_max", "maximality", "e_admissibility", "gamma_maximin", "interval_dominance"]
)
def test_a_score_table_keeps_events_apart(name):
    # x wins given {w1, w2} (9/2 against 3 under the uniform masses), y
    # given omega (9/4 against 4): one table must keep the two events apart
    x = Gamble(W4, ("9", "0", "0", "0"))
    y = Gamble(W4, ("1", "5", "5", "5"))
    context = ChoiceContext(NUMERIC, probability=UNIFORM4, credal=(UNIFORM4, UNIFORM4))
    rule = make_rule(name, context)
    inner = W4.event(["w1", "w2"])
    for given, winner in ((W4.omega, y), (inner, x), (W4.omega, y)):
        chosen = rule.select(GambleSet([x, y]), given)
        assert chosen == rule.rebind(context).select(GambleSet([x, y]), given)
        assert chosen == GambleSet([winner])
    # one dict of rows per event, one row per gamble, beside one column per
    # distinct mass function: the credal list repeats UNIFORM4
    assert [len(rows) for _, rows in rule.scores.values()] == [2, 2]
    assert [len(columns) for columns, _ in rule.scores.values()] == [1, 1]


@pytest.mark.parametrize("name", sorted(RULES))
def test_a_scored_rule_selects_from_each_set_once_per_event(monkeypatch, name):
    x = Gamble(W4, ("9", "0", "0", "0"))
    y = Gamble(W4, ("1", "5", "5", "5"))
    context = ChoiceContext(NUMERIC, probability=UNIFORM4, credal=(UNIFORM4, UNIFORM4))
    rule = make_rule(name, context)
    runs = []
    select = type(rule)._select
    monkeypatch.setattr(
        type(rule), "_select", lambda self, *args: runs.append(args) or select(self, *args)
    )
    # outside any instance check, a repeated select returns the earlier
    # answer, even for an equal set built anew: the rule keeps its tables
    first = rule.select(GambleSet([x, y]), W4.omega)
    assert rule.select(GambleSet([y, x]), W4.omega) is first
    inner = W4.event(["w1", "w2"])
    fresh = rule.rebind(context)
    assert rule.select(GambleSet([x, y]), inner) == fresh.select(GambleSet([x, y]), inner)
    assert len(runs) == 3  # twice for the rule, once for the rebound one
    # a failed contract check is not kept: it fails again
    for _ in range(2):
        with pytest.raises(InconsistentSet):
            rule.select(GambleSet([x]), W4.event(["w2", "w3"]))
    assert len(rule.selections) == 2 and len(fresh.selections) == 1
    # a rebound rule starts with empty tables, even on the same context
    rebound = rule.rebind(rule.context)
    assert type(rebound) is type(rule) and rebound.context is rule.context
    assert (rebound.scores, rebound.selections) == ({}, {})
