"""Deterministic random generation: consistent trees, property instances,
and seeded rule contexts.

Everything is a pure function of (config, seed); sub-seeds are derived by
hashing, never by Python's salted `hash`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from .errors import GenerationRetryExhausted
from .model import Event, Gamble, GambleSet, PossibilitySpace, RewardTable
from .props import (
    BackwardConditioningInstance,
    ConditioningInstance,
    FamilyInstance,
    INSTANCE_SHAPES,
    Instance,
    MixtureInstance,
    PropertyId,
    SetSumInstance,
    SubsetInstance,
    reward_table_for_instance,
)
from .rules import ChoiceContext, ChoiceRule, MassFunction, make_rule
from .trees import (
    ENUMERATION_CAP,
    Chance,
    Decision,
    DecisionTree,
    Leaf,
    Node,
    nfd_count,
)

__all__ = [
    "GenConfig",
    "subseed",
    "rng_for",
    "random_consistent_tree",
    "tree_corpus",
    "random_gamble_instance",
    "reward_table_for_instance",
    "random_mass_function",
    "random_credal",
    "seeded_rule_policy",
]


def subseed(*parts) -> int:
    """Stable 64-bit sub-seed derived from the given parts."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(*parts) -> random.Random:
    return random.Random(subseed(*parts))


@dataclass(frozen=True)
class GenConfig:
    """Bounds for generated trees and instances; all bounds are >= 1 and the
    enumeration ceiling stays within the module cap."""

    max_depth: int = 4
    max_children: int = 3
    omega_range: tuple[int, int] = (2, 6)
    value_range: tuple[int, int] = (-6, 6)
    max_denominator: int = 4
    chance_ratio: float = 0.45
    nfd_ceiling: int = 400
    reward_pool_size: int = 5
    max_gambles: int = 5
    max_parts: int = 3
    retries: int = 50

    def __post_init__(self):
        if min(
            self.max_children,
            self.omega_range[0],
            self.max_denominator,
            self.nfd_ceiling,
            self.reward_pool_size,
            self.max_gambles,
            self.max_parts,
            self.retries,
        ) < 1 or self.max_depth < 0:
            raise ValueError("generation bounds must be positive")
        if self.omega_range[0] > self.omega_range[1]:
            raise ValueError("empty possibility-space size range")
        if self.nfd_ceiling > ENUMERATION_CAP:
            raise ValueError("ceiling exceeds the enumeration cap")


def _reward_pool(rng: random.Random, config: GenConfig) -> list[str]:
    """Distinct random rationals in increasing order, spelled as literals:
    `p/q` in lowest terms, integers bare."""
    pool = set()
    for _ in range(config.reward_pool_size):
        num = rng.randint(*config.value_range)
        den = rng.randint(1, config.max_denominator)
        common = gcd(num, den)
        pool.add((num // common, den // common))
    scale = lcm(*(den for _, den in pool))  # exact sort keys: num / den * scale
    return [
        f"{num}/{den}" if den > 1 else str(num)
        for num, den in sorted(pool, key=lambda pair: pair[0] * (scale // pair[1]))
    ]


@lru_cache(maxsize=64)
def _space_of_size(size: int) -> PossibilitySpace:
    return PossibilitySpace(tuple(f"w{i + 1}" for i in range(size)))


def _random_space(rng: random.Random, config: GenConfig) -> PossibilitySpace:
    """States `w1`..`wn`; one shared space per size."""
    return _space_of_size(rng.randint(*config.omega_range))


def _random_partition(
    rng: random.Random, space: PossibilitySpace, meeting: Event, blocks: int
) -> list[Event]:
    """Partition the whole space into `blocks` events, each intersecting
    `meeting` (requires len(meeting) >= blocks)."""
    anchors = list(meeting.indices())
    rng.shuffle(anchors)
    rest = [i for i in range(space.size) if not meeting.contains_index(i)]
    members: list[list[int]] = [[anchors[b]] for b in range(blocks)]
    for i in anchors[blocks:] + rest:
        members[rng.randrange(blocks)].append(i)
    events = []
    for block in members:
        bits = 0
        for i in block:
            bits |= 1 << i
        events.append(Event(space, bits))
    return events


def random_consistent_tree(config: GenConfig, seed: int) -> DecisionTree:
    """A consistent tree over a fresh space, leaf rewards spelled as rational
    literals, with at most `config.nfd_ceiling` normal form decisions.

    Identical (config, seed) pairs yield identical trees.
    """
    for attempt in range(config.retries):
        rng = rng_for("tree", seed, attempt)
        space = _random_space(rng, config)
        pool = _reward_pool(rng, config)

        def build(depth: int, ev: Event) -> Node:
            if depth >= config.max_depth:
                return Leaf(rng.choice(pool))
            leaf_bias = depth / max(config.max_depth, 1)
            leaf_prob = 0.02 if depth == 0 else 0.1 + 0.6 * leaf_bias
            if rng.random() < leaf_prob:
                return Leaf(rng.choice(pool))
            wants_chance = rng.random() < config.chance_ratio and len(ev) >= 2
            if wants_chance:
                blocks = rng.randint(2, min(config.max_children, len(ev)))
                partition = _random_partition(rng, space, ev, blocks)
                return Chance(
                    tuple(
                        (event, build(depth + 1, ev & event)) for event in partition
                    )
                )
            width = 1 if rng.random() < 0.08 else rng.randint(2, config.max_children)
            return Decision(tuple(build(depth + 1, ev) for _ in range(width)))

        tree = DecisionTree.over(space, build(0, space.omega))
        if nfd_count(tree) <= config.nfd_ceiling:
            return tree
    raise GenerationRetryExhausted(
        f"no tree within the ceiling after {config.retries} attempts"
    )


def tree_corpus(config: GenConfig, seed: int, count: int) -> list[DecisionTree]:
    return [
        random_consistent_tree(config, subseed(seed, "corpus", i))
        for i in range(count)
    ]


def _consistent_gamble(
    rng: random.Random, space: PossibilitySpace, event: Event, pool: Sequence[str]
) -> Gamble:
    """Random gamble whose every attained reward is attained inside `event`."""
    values: list[Optional[str]] = [None] * space.size
    inside = list(event.indices())
    for i in inside:
        values[i] = rng.choice(pool)
    attained = sorted({values[i] for i in inside})
    for i in range(space.size):
        if values[i] is None:
            values[i] = rng.choice(attained)
    return Gamble(space, tuple(values))


def _consistent_set(
    rng: random.Random,
    space: PossibilitySpace,
    event: Event,
    pool: Sequence[str],
    size: int,
) -> GambleSet:
    return GambleSet(
        _consistent_gamble(rng, space, event, pool) for _ in range(size)
    )


def _random_event(
    rng: random.Random, space: PossibilitySpace, proper: bool = False
) -> Event:
    """A non-empty random event; `proper` also forbids the full space."""
    upper = space.size - 1 if proper else space.size
    size = rng.randint(1, max(upper, 1))
    indices = rng.sample(range(space.size), size)
    bits = 0
    for i in indices:
        bits |= 1 << i
    return Event(space, bits)


def _plant_equal_pair(
    rng: random.Random, gambles: GambleSet, part: Event, inner: Event
) -> GambleSet:
    """Add, when possible, a second gamble equal to an existing one on `part`
    but different off it, keeping every attained reward attained in `inner`."""
    outside = list(part.complement().indices())
    if not outside:
        return gambles
    for base in gambles:
        attained_inner = sorted({base.values[i] for i in inner.indices()})
        if len(attained_inner) < 2:
            continue
        flip = rng.choice(outside)
        alternatives = [v for v in attained_inner if v != base.values[flip]]
        values = list(base.values)
        values[flip] = rng.choice(alternatives)
        twin = Gamble(base.space, tuple(values))
        return gambles.union(GambleSet([twin]))
    return gambles


def random_gamble_instance(
    prop: PropertyId, config: GenConfig, seed: int
) -> Instance:
    """An instance of the property's shape, satisfying its preconditions by
    construction; `laws.check_property_instance` validates it before use."""
    last_error = None
    for attempt in range(config.retries):
        rng = rng_for("instance", prop.value, seed, attempt)
        try:
            return _build_instance(prop, config, rng)
        except GenerationRetryExhausted as exc:
            last_error = str(exc)  # a kept exception would hold this frame: a cycle
    raise GenerationRetryExhausted(
        f"could not build a valid {prop.value} instance: {last_error}"
    )


def _build_instance(
    prop: PropertyId, config: GenConfig, rng: random.Random
) -> Instance:
    space = _random_space(rng, config)
    pool = _reward_pool(rng, config)
    omega = space.omega
    shape = INSTANCE_SHAPES[prop]

    if shape is ConditioningInstance:
        given = omega if rng.random() < 0.2 else _random_event(rng, space)
        gambles = _consistent_set(
            rng, space, given, pool, rng.randint(2, config.max_gambles)
        )
        if not given.is_omega and rng.random() < 0.9:
            gambles = _plant_equal_pair(rng, gambles, given, given)
        return ConditioningInstance(gambles, given)

    if shape is SubsetInstance:
        given = omega if rng.random() < 0.3 else _random_event(rng, space)
        gambles = _consistent_set(
            rng, space, given, pool, rng.randint(2, config.max_gambles)
        )
        members = list(gambles)
        size = rng.randint(1, len(members))
        subset = GambleSet(rng.sample(members, size))
        return SubsetInstance(gambles, subset, given)

    if shape is MixtureInstance or shape is BackwardConditioningInstance:
        if space.size < 2:
            raise GenerationRetryExhausted(f"{shape.shape} instances need >= 2 states")
        part = _random_event(rng, space, proper=True)
        given = _pick_straddling_event(rng, space, part)
        inside = part & given
        outside = part.complement() & given
        gambles = _consistent_set(
            rng, space, inside, pool, rng.randint(1, config.max_gambles)
        )
        if shape is MixtureInstance:
            other = _consistent_gamble(rng, space, outside, pool)
            return MixtureInstance(gambles, other, part, given)
        if rng.random() < 0.9:
            gambles = _plant_equal_pair(rng, gambles, part, inside)
        others = _consistent_set(rng, space, outside, pool, rng.randint(1, 3))
        return BackwardConditioningInstance(gambles, part, given, others)

    if shape is FamilyInstance:
        given = omega if rng.random() < 0.3 else _random_event(rng, space)
        shared = list(
            _consistent_set(
                rng, space, given, pool, rng.randint(2, config.max_gambles + 1)
            )
        )
        count = rng.randint(2, config.max_parts)
        parts = []
        for _ in range(count):
            size = rng.randint(1, len(shared))
            parts.append(GambleSet(rng.sample(shared, size)))
        return FamilyInstance(tuple(parts), given)

    if shape is SetSumInstance:
        if space.size < 2:
            raise GenerationRetryExhausted("set-sum instances need >= 2 states")
        given = _random_event(rng, space)
        if len(given) < 2:
            raise GenerationRetryExhausted("set-sum needs an event meeting 2 blocks")
        blocks = rng.randint(2, min(3, len(given)))
        partition = _random_partition(rng, space, given, blocks)
        parts = tuple(
            _consistent_set(rng, space, block & given, pool, rng.randint(1, 3))
            for block in partition
        )
        return SetSumInstance(tuple(partition), parts, given)

    raise ValueError(f"no generator for {prop!r}")


def _pick_straddling_event(
    rng: random.Random, space: PossibilitySpace, part: Event
) -> Event:
    """A random event meeting both `part` and its complement."""
    inside = rng.choice(list(part.indices()))
    outside = rng.choice(list(part.complement().indices()))
    bits = (1 << inside) | (1 << outside)
    for i in range(space.size):
        if rng.random() < 0.5:
            bits |= 1 << i
    return Event(space, bits)


def random_mass_function(space: PossibilitySpace, rng: random.Random) -> MassFunction:
    weights = [rng.randint(1, 12) for _ in range(space.size)]
    return MassFunction.from_weights(space, weights)


def random_credal(
    space: PossibilitySpace, rng: random.Random, size: int
) -> tuple[MassFunction, ...]:
    return tuple(random_mass_function(space, rng) for _ in range(size))


def seeded_rule_policy(
    name: str, credal_size: int = 2
) -> Callable[[PossibilitySpace, RewardTable, random.Random], ChoiceRule]:
    """Bind the named rule to any space, drawing its numeric context from the
    supplied rng (strictly positive rational masses throughout)."""

    def policy(
        space: PossibilitySpace, rewards: RewardTable, rng: random.Random
    ) -> ChoiceRule:
        if name == "eu_max":
            context = ChoiceContext(rewards, probability=random_mass_function(space, rng))
        elif name == "pointwise_dominance":
            context = ChoiceContext(rewards)
        else:
            context = ChoiceContext(rewards, credal=random_credal(space, rng, credal_size))
        return make_rule(name, context)

    return policy


def reward_table_for_tree(tree: DecisionTree) -> RewardTable:
    """Utility table for generated trees (leaf symbols are rational literals)."""
    return RewardTable.from_literals(tree.leaf_rewards())
