import pickle
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treechoice.errors import (
    DuplicateDefinition,
    EmptyEvent,
    EmptyInputSet,
    NotAPartition,
    SpaceMismatch,
    UnknownReference,
)
from treechoice.generate import GenConfig, random_gamble_instance, rng_for
from treechoice.model import (
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
from treechoice.props import PropertyId

W4 = PossibilitySpace(("w1", "w2", "w3", "w4"))
E1 = W4.event(["w1", "w2"])
E2 = W4.event(["w3", "w4"])
S1 = W4.event(["w1", "w3"])
S2 = W4.event(["w2", "w4"])


def test_space_rejects_duplicates():
    with pytest.raises(DuplicateDefinition):
        PossibilitySpace(("a", "a"))


def test_space_rejects_empty():
    with pytest.raises(ValueError):
        PossibilitySpace(())


def test_event_algebra():
    assert (E1 & S1).labels() == ("w1",)
    assert E1.complement() == E2


def test_cross_space_mixing_is_an_error():
    other = PossibilitySpace(("w1", "w2"))
    with pytest.raises(SpaceMismatch):
        E1 & other.omega


def test_equal_values_hash_alike_and_other_spaces_stay_apart():
    # an equal gamble or event built anew has the same hash; one over another
    # space with the same values (or bits) is unequal and a distinct key
    x, e = Gamble(W4, ("1", "0", "1", "0")), W4.event(["w1", "w3"])
    assert (Gamble(W4, x.values), Event(W4, e.bits)) == (x, e)
    assert (hash(Gamble(W4, x.values)), hash(Event(W4, e.bits))) == (hash(x), hash(e))
    v4 = PossibilitySpace(("v1", "v2", "v3", "v4"))
    for ours, theirs in ((x, Gamble(v4, x.values)), (e, Event(v4, e.bits))):
        assert ours != theirs
        assert len({ours: 0, theirs: 1}) == 2


def test_an_unpickled_gamble_is_hashed_anew():
    # a str tuple's hash differs between processes, so a pickled gamble must
    # not carry its hash along
    x = Gamble(W4, ("1", "0", "1", "0"))
    object.__setattr__(x, "_hash", hash(x) + 1)  # as if hashed under another seed
    assert hash(pickle.loads(pickle.dumps(x))) == hash(Gamble(W4, x.values))


def literal_indices(event):
    """The oracle: the event's state indices, scanning every state of its space."""
    for i in range(event.space.size):
        if event.bits >> i & 1:
            yield i


def assert_indices_literal(event):
    found = event.indices()
    assert found == tuple(literal_indices(event)), event
    assert len(event) == len(found) and Event.of(event.space, found) == event
    assert Event(event.space, event.bits).indices() is found  # the space's memo answers


def test_indices_match_the_literal_scan_on_every_small_bitset():
    for size in range(1, 9):
        space = PossibilitySpace(tuple(f"s{i}" for i in range(size)))
        for bits in range(1 << size):
            assert_indices_literal(Event(space, bits))
        assert len(space._indices) == 1 << size


def test_indices_match_the_literal_scan_on_a_wide_space():
    space = PossibilitySpace(tuple(f"s{i}" for i in range(70)))
    rng = rng_for("model", "wide-indices")
    for bits in [rng.getrandbits(70) for _ in range(400)] + [0, 1, space.full_bits]:
        assert_indices_literal(Event(space, bits))


def test_indices_match_the_literal_scan_on_shrunk_spaces():
    checked = 0
    for prop in PropertyId:
        instance = random_gamble_instance(prop, GenConfig(), seed=7)
        size = instance.space.size
        for drop in range(size if size > 1 else 0):
            restricted = instance.restricted(tuple(i for i in range(size) if i != drop))
            for f in fields(restricted):
                value = getattr(restricted, f.name)
                for event in value if isinstance(value, tuple) else (value,):
                    if isinstance(event, Event):
                        assert_indices_literal(event)
                        checked += 1
    assert checked > 50


def test_equal_spaces_built_apart_keep_their_own_index_memos():
    a, b = PossibilitySpace(("x", "y", "z")), PossibilitySpace(("x", "y", "z"))
    assert a == b and a is not b
    assert Event(a, 0b101).indices() == Event(b, 0b101).indices() == (0, 2)
    assert Event(b, 0b011).indices() == (0, 1)
    assert set(a._indices) == {0b101} and set(b._indices) == {0b101, 0b011}


TWIN, V4 = PossibilitySpace(W4.states), PossibilitySpace(("v1", "v2", "v3", "v4"))
X = ("1", "0", "0", "1")


@pytest.mark.parametrize(
    "across",
    [
        lambda t: E1 & Event(t, S1.bits),
        lambda t: Gamble(W4, X).equal_on(Gamble(t, X), E1),
        lambda t: GambleSet([Gamble(W4, X), Gamble(t, ("0",) * 4)]),
        lambda t: combine_on_partition([(E1, Gamble(W4, X)), (Event(t, E2.bits), Gamble(t, X))]),
        lambda t: check_a_consistency([Gamble(t, X)], S1),
    ],
    ids=["event_and", "equal_on", "gamble_set", "combine_on_partition", "a_consistency"],
)
def test_values_over_equal_spaces_mix_and_over_other_spaces_do_not(across):
    # an equal space built apart is the same space; one with other labels is not
    assert across(TWIN) == across(W4)
    with pytest.raises(SpaceMismatch):
        across(V4)


def test_partition_predicate():
    assert is_partition([E1, E2])
    assert not is_partition([E1, E1])
    assert not is_partition([E1])
    assert not is_partition([E1, E2, W4.empty_event])


def test_combine_two_constant_blocks():
    # block constants 9 on E1 and 14 on E2 patch to (9, 9, 14, 14)
    part = [
        (E1, Gamble.constant(W4, "9")),
        (E2, Gamble.constant(W4, "14")),
    ]
    assert combine_on_partition(part).values == ("9", "9", "14", "14")


def test_combine_identity_partition():
    x = Gamble(W4, ("9", "4", "14", "19"))
    assert combine_on_partition([(W4.omega, x)]) == x


def test_combine_nested_patchwork():
    # S1 (E1 9 + E2 14) patched with S2 (E1 4 + E2 19) gives (9, 4, 14, 19)
    inner1 = combine_on_partition(
        [(E1, Gamble.constant(W4, "9")), (E2, Gamble.constant(W4, "14"))]
    )
    inner2 = combine_on_partition(
        [(E1, Gamble.constant(W4, "4")), (E2, Gamble.constant(W4, "19"))]
    )
    outer = combine_on_partition([(S1, inner1), (S2, inner2)])
    assert outer.values == ("9", "4", "14", "19")


def test_combine_rejects_non_partition():
    with pytest.raises(NotAPartition):
        combine_on_partition(
            [(E1, Gamble.constant(W4, "9")), (S1, Gamble.constant(W4, "1"))]
        )


def test_combine_order_independent():
    parts = [
        (E1, Gamble.constant(W4, "a")),
        (E2, Gamble.constant(W4, "b")),
    ]
    assert combine_on_partition(parts) == combine_on_partition(parts[::-1])


def test_gamble_set_dedupes_and_orders():
    x = Gamble(W4, ("1", "1", "1", "1"))
    y = Gamble(W4, ("0", "1", "1", "1"))
    s = GambleSet([x, y, x])
    assert len(s) == 2
    assert next(iter(s)) == y  # lexicographic by state-indexed symbols


def test_gamble_set_sum_singletons():
    x = Gamble(W4, ("1",) * 4)
    z = Gamble(W4, ("2",) * 4)
    out = gamble_set_sum([E1, E2], [GambleSet([x]), GambleSet([z])])
    assert len(out) == 1
    assert next(iter(out)).values == ("1", "1", "2", "2")


def test_gamble_set_sum_counts_all_pairs():
    # oracle: enumerate the four combinations by hand and compare
    xs = GambleSet([Gamble(W4, ("1",) * 4), Gamble(W4, ("2",) * 4)])
    zs = GambleSet([Gamble(W4, ("3",) * 4), Gamble(W4, ("4",) * 4)])
    out = gamble_set_sum([E1, E2], [xs, zs])
    expected = set()
    for x in xs:
        for z in zs:
            expected.add(
                tuple(
                    x.values[i] if E1.contains_index(i) else z.values[i]
                    for i in range(4)
                )
            )
    assert {g.values for g in out} == expected
    assert len(out) == 4


def test_gamble_set_sum_rejects_a_gamble_over_another_space():
    a = PossibilitySpace(("a1", "a2"))
    b = PossibilitySpace(("b1", "b2"))
    block = GambleSet([Gamble(b, ("1", "2"))])
    with pytest.raises(SpaceMismatch):
        gamble_set_sum([a.event(["a1"]), a.event(["a2"])], [block, block])


def test_gamble_set_sum_rejects_empty_block():
    xs = GambleSet([Gamble(W4, ("1",) * 4)])
    with pytest.raises(EmptyInputSet):
        gamble_set_sum([E1, E2], [xs, GambleSet([])])


def test_lake_buy_branch_products(lake_doc):
    # the signal branch combines to four gambles, including (9, 4, 14, 19)
    space = lake_doc.space
    e1, e2 = lake_doc.event_named("E1"), lake_doc.event_named("E2")
    s1, s2 = lake_doc.event_named("S1"), lake_doc.event_named("S2")
    d1 = combine_on_partition(
        [(e1, Gamble.constant(space, "r9")), (e2, Gamble.constant(space, "r14"))]
    )
    d2 = combine_on_partition(
        [(e1, Gamble.constant(space, "r4")), (e2, Gamble.constant(space, "r19"))]
    )
    branch = GambleSet([d1, d2])
    buys = gamble_set_sum([s1, s2], [branch, branch])
    assert len(buys) == 4
    assert ("r9", "r4", "r14", "r19") in {g.values for g in buys}
    assert space.states == ("w1", "w2", "w3", "w4")


def test_a_consistency_trivial_on_omega():
    x = Gamble(W4, ("1", "2", "3", "4"))
    assert check_a_consistency([x], W4.omega)


def test_a_consistency_witness():
    space = PossibilitySpace(("o1", "o2"))
    x = Gamble(space, ("5", "7"))
    verdict = check_a_consistency([x], space.event(["o1"]))
    assert not verdict
    assert verdict.witness == (x, "7")


def test_a_consistency_constant_any_event():
    x = Gamble(W4, ("c",) * 4)
    assert check_a_consistency([x], W4.event(["w3"]))


def test_a_consistency_rejects_empty_event():
    with pytest.raises(EmptyEvent):
        check_a_consistency([Gamble(W4, ("1",) * 4)], W4.empty_event)


def test_a_consistency_memberwise():
    a = W4.event(["w1", "w3"])
    good = Gamble(W4, ("1", "1", "2", "2"))
    bad = Gamble(W4, ("1", "3", "2", "2"))
    assert check_a_consistency([good], a)
    assert not check_a_consistency([bad], a)
    assert not check_a_consistency([good, bad], a)


def test_reward_table():
    table = RewardTable({"a": 1, "b": Fraction(3, 2)})
    assert table.utility("b") == Fraction(3, 2)
    assert "a" in table and "c" not in table
    with pytest.raises(UnknownReference):
        table.utility("c")
    literal = RewardTable.from_literals(["-3/2", "5"])
    assert literal.utility("-3/2") == Fraction(-3, 2)
    # units: each utility times the least common multiple of the denominators
    assert (table.units(), literal.units()) == ({"a": 2, "b": 3}, {"-3/2": -3, "5": 10})


# -- property tests over small random partitions ----------------------------

labels = st.integers(2, 5).map(lambda n: tuple(f"s{i}" for i in range(n)))


@st.composite
def space_partition_sets(draw):
    space = PossibilitySpace(draw(labels))
    n = space.size
    block_of = [draw(st.integers(0, 1)) for _ in range(n)]
    if all(b == 0 for b in block_of):
        block_of[-1] = 1
    if all(b == 1 for b in block_of):
        block_of[0] = 0
    events = []
    for b in (0, 1):
        bits = sum(1 << i for i in range(n) if block_of[i] == b)
        events.append(Event(space, bits))
    pool = ["0", "1", "2"]
    sets = []
    for _ in events:
        count = draw(st.integers(1, 3))
        sets.append(
            GambleSet(
                Gamble(space, tuple(draw(st.sampled_from(pool)) for _ in range(n)))
                for _ in range(count)
            )
        )
    return space, events, sets


@given(space_partition_sets())
def test_setsum_block_order_irrelevant(case):
    _, events, sets = case
    forward = gamble_set_sum(events, sets)
    backward = gamble_set_sum(events[::-1], sets[::-1])
    assert forward == backward


@given(space_partition_sets())
def test_setsum_cardinality_bound(case):
    _, events, sets = case
    out = gamble_set_sum(events, sets)
    bound = 1
    for s in sets:
        bound *= len(s)
    assert 1 <= len(out) <= bound
