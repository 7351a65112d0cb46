"""Deterministic random generation: consistent trees, gamble-preserving
rewrites, property instances, and seeded rule contexts.

Everything is a pure function of (config, seed); sub-seeds are derived by
hashing, never by Python's salted `hash`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import GenerationRetryExhausted, MalformedInstance
from .model import Event, Gamble, GambleSet, PossibilitySpace, RewardTable
from .props import (
    BackwardConditioningInstance,
    ConditioningInstance,
    FamilyInstance,
    Instance,
    MixtureInstance,
    PropertyId,
    SetSumInstance,
    SubsetInstance,
    reward_table_for_instance,
)
from .rules import ChoiceContext, ChoiceRule, MassFunction, make_rule
from .trees import (
    DEFAULT_ENUMERATION_CAP,
    Chance,
    Decision,
    DecisionTree,
    Leaf,
    Node,
    NodeId,
    nfd_count,
    validate,
)

__all__ = [
    "GenConfig",
    "subseed",
    "rng_for",
    "random_consistent_tree",
    "tree_corpus",
    "equivalent_rewrite",
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
        if self.nfd_ceiling > DEFAULT_ENUMERATION_CAP:
            raise ValueError("ceiling exceeds the enumeration cap")


def _random_value(rng: random.Random, config: GenConfig) -> str:
    num = rng.randint(*config.value_range)
    den = rng.randint(1, config.max_denominator)
    return str(Fraction(num, den))


def _reward_pool(rng: random.Random, config: GenConfig) -> list[str]:
    pool = {_random_value(rng, config) for _ in range(config.reward_pool_size)}
    return sorted(pool, key=Fraction)


def _random_space(rng: random.Random, config: GenConfig) -> PossibilitySpace:
    size = rng.randint(*config.omega_range)
    return PossibilitySpace(tuple(f"w{i + 1}" for i in range(size)))


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
            return validate(tree)
    raise GenerationRetryExhausted(
        f"no tree within the ceiling after {config.retries} attempts"
    )


def tree_corpus(config: GenConfig, seed: int, count: int) -> list[DecisionTree]:
    return [
        random_consistent_tree(config, subseed(seed, "corpus", i))
        for i in range(count)
    ]


def _replace_node(root: Node, path: NodeId, new: Node) -> Node:
    if not path:
        return new
    index, rest = path[0], path[1:]
    if isinstance(root, Decision):
        children = list(root.children)
        children[index] = _replace_node(children[index], rest, new)
        return Decision(tuple(children))
    if isinstance(root, Chance):
        branches = list(root.branches)
        event, child = branches[index]
        branches[index] = (event, _replace_node(child, rest, new))
        return Chance(tuple(branches))
    raise ValueError("path walks through a leaf")


def _rewrite_candidates(tree: DecisionTree) -> list[tuple[str, NodeId, Optional[int]]]:
    out: list[tuple[str, NodeId, Optional[int]]] = []
    for path in tree.paths():
        node = tree.node_at(path)
        out.append(("wrap", path, None))
        if isinstance(node, Decision):
            if len(node.children) >= 2:
                out.append(("permute_decision", path, None))
            if len(node.children) == 1:
                out.append(("unwrap", path, None))
            for i, child in enumerate(node.children):
                if isinstance(child, Decision):
                    out.append(("flatten", path, i))
        if isinstance(node, Chance) and len(node.branches) >= 2:
            out.append(("permute_chance", path, None))
    return out


def equivalent_rewrite(tree: DecisionTree, seed: int, steps: int = 1) -> DecisionTree:
    """Apply gamble-preserving rewrites: permute decision children, flatten
    nested decisions, insert/remove unary decision prefixes, permute chance
    branches. The result stays consistent with the same conditioning event
    and the same gamble set."""
    current = tree
    rng = rng_for("rewrite", seed)
    for _ in range(steps):
        kind, path, extra = rng.choice(_rewrite_candidates(current))
        node = current.node_at(path)
        if kind == "wrap":
            new: Node = Decision((node,))
        elif kind == "unwrap":
            new = node.children[0]
        elif kind == "permute_decision":
            order = list(range(len(node.children)))
            rng.shuffle(order)
            new = Decision(tuple(node.children[i] for i in order))
        elif kind == "permute_chance":
            order = list(range(len(node.branches)))
            rng.shuffle(order)
            new = Chance(tuple(node.branches[i] for i in order))
        else:  # flatten child `extra` into this decision node
            child = node.children[extra]
            spliced = (
                node.children[:extra] + child.children + node.children[extra + 1:]
            )
            new = Decision(spliced)
        current = DecisionTree(
            current.space, _replace_node(current.root, path, new), current.root_event
        )
    return validate(current)


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
    """An instance of the property's shape, satisfying its consistency
    preconditions by construction (and re-validated before release)."""
    last_error = None
    for attempt in range(config.retries):
        rng = rng_for("instance", prop.value, seed, attempt)
        try:
            instance = _build_instance(prop, config, rng)
            instance.validate()
            return instance
        except (MalformedInstance, GenerationRetryExhausted) as exc:
            last_error = exc
    raise GenerationRetryExhausted(
        f"could not build a valid {prop.value} instance: {last_error}"
    )


def _build_instance(
    prop: PropertyId, config: GenConfig, rng: random.Random
) -> Instance:
    space = _random_space(rng, config)
    pool = _reward_pool(rng, config)
    omega = space.omega

    if prop in (PropertyId.P1_conditioning,):
        given = omega if rng.random() < 0.2 else _random_event(rng, space)
        gambles = _consistent_set(
            rng, space, given, pool, rng.randint(2, config.max_gambles)
        )
        if not given.is_omega and rng.random() < 0.9:
            gambles = _plant_equal_pair(rng, gambles, given, given)
        return ConditioningInstance(gambles, given)

    if prop in (
        PropertyId.P2_intersection,
        PropertyId.P8_insensitivity,
        PropertyId.P9_preservation,
    ):
        given = omega if rng.random() < 0.3 else _random_event(rng, space)
        gambles = _consistent_set(
            rng, space, given, pool, rng.randint(2, config.max_gambles)
        )
        members = list(gambles)
        size = rng.randint(1, len(members))
        subset = GambleSet(rng.sample(members, size))
        return SubsetInstance(gambles, subset, given)

    if prop in (PropertyId.P3_mixture, PropertyId.P10_backward_mixture):
        if space.size < 2:
            raise GenerationRetryExhausted("mixture instances need >= 2 states")
        part = _random_event(rng, space, proper=True)
        given = _pick_straddling_event(rng, space, part)
        inside = part & given
        outside = part.complement() & given
        gambles = _consistent_set(
            rng, space, inside, pool, rng.randint(1, config.max_gambles)
        )
        other = _consistent_gamble(rng, space, outside, pool)
        return MixtureInstance(gambles, other, part, given)

    if prop in (
        PropertyId.P4_strong_path_independence,
        PropertyId.P5_very_strong_path_independence,
        PropertyId.P6_total_preorder,
        PropertyId.P11_path_independence,
    ):
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

    if prop is PropertyId.P7_backward_conditioning:
        if space.size < 2:
            raise GenerationRetryExhausted("backward conditioning needs >= 2 states")
        part = _random_event(rng, space, proper=True)
        given = _pick_straddling_event(rng, space, part)
        inside = part & given
        outside = part.complement() & given
        gambles = _consistent_set(
            rng, space, inside, pool, rng.randint(1, config.max_gambles)
        )
        if rng.random() < 0.9:
            gambles = _plant_equal_pair(rng, gambles, part, inside)
        others = _consistent_set(rng, space, outside, pool, rng.randint(1, 3))
        return BackwardConditioningInstance(gambles, part, given, others)

    if prop is PropertyId.L_setsum_factorization:
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
