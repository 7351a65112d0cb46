"""Possibility spaces, events, rewards, gambles, and the partition-combination algebra.

All values are immutable and hashable; events are bitsets over a named,
finite possibility space, and utilities are exact `fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    DomainMismatch,
    DuplicateDefinition,
    EmptyEvent,
    EmptyInputSet,
    NotAPartition,
    SpaceMismatch,
    UnknownReference,
)


@dataclass(frozen=True)
class PossibilitySpace:
    """A finite, ordered universe of state labels.

    The index of each label is stable for the lifetime of the space; events
    and gambles built over the space address states by index.
    """

    states: tuple[str, ...]

    def __post_init__(self):
        if not self.states:
            raise ValueError("a possibility space needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise DuplicateDefinition(
                next(s for s in self.states if self.states.count(s) > 1)
            )

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise UnknownReference(label) from None

    def event(self, labels: Iterable[str]) -> Event:
        bits = 0
        for label in labels:
            bits |= 1 << self.index(label)
        return Event(self, bits)

    def atom(self, label: str) -> Event:
        return Event(self, 1 << self.index(label))

    @property
    def omega(self) -> Event:
        return Event(self, (1 << self.size) - 1)

    @property
    def empty_event(self) -> Event:
        return Event(self, 0)


def _same_space(a: PossibilitySpace, b: PossibilitySpace) -> None:
    if a != b:
        raise SpaceMismatch(f"values over different spaces: {a.states} vs {b.states}")


@dataclass(frozen=True)
class Event:
    """A subset of a possibility space, stored as a bitmask over state indices."""

    space: PossibilitySpace
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.space.size:
            raise ValueError("event bits outside the space")

    def __and__(self, other: Event) -> Event:
        _same_space(self.space, other.space)
        return Event(self.space, self.bits & other.bits)

    def __or__(self, other: Event) -> Event:
        _same_space(self.space, other.space)
        return Event(self.space, self.bits | other.bits)

    def complement(self) -> Event:
        return Event(self.space, self.space.omega.bits & ~self.bits)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_omega(self) -> bool:
        return self.bits == self.space.omega.bits

    def issubset(self, other: Event) -> bool:
        _same_space(self.space, other.space)
        return self.bits & ~other.bits == 0

    def contains_index(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

    def indices(self) -> Iterator[int]:
        for i in range(self.space.size):
            if self.bits >> i & 1:
                yield i

    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.states[i] for i in self.indices())

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def __repr__(self) -> str:
        return f"Event({{{', '.join(self.labels())}}})"


def is_partition(events: Sequence[Event], of: Optional[Event] = None) -> bool:
    """True iff the events are non-empty, pairwise disjoint, and cover `of`
    (the whole space when `of` is omitted)."""
    if not events:
        return False
    space = events[0].space
    target = space.omega if of is None else of
    seen = 0
    for e in events:
        _same_space(space, e.space)
        if e.bits == 0 or seen & e.bits:
            return False
        seen |= e.bits
    return seen == target.bits


def require_partition(events: Sequence[Event], node_id=None) -> None:
    if not is_partition(events):
        raise NotAPartition(
            "events must be non-empty, disjoint, and cover the space",
            node_id=node_id,
        )


class RewardTable:
    """Maps reward symbols to exact rational utilities."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Fraction | int | str]):
        table = {}
        for symbol, value in entries.items():
            if symbol in table:
                raise DuplicateDefinition(symbol)
            table[symbol] = Fraction(value)
        self._entries = dict(sorted(table.items()))

    @classmethod
    def from_literals(cls, symbols: Iterable[str]) -> RewardTable:
        """Build a table for symbols that are themselves rational literals
        (e.g. "9", "-3/2"), each valued at the rational it spells."""
        return cls({s: Fraction(s) for s in set(symbols)})

    def utility(self, symbol: str) -> Fraction:
        try:
            return self._entries[symbol]
        except KeyError:
            raise UnknownReference(symbol) from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._entries

    def symbols(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def items(self):
        return self._entries.items()

    def merged(self, other: RewardTable) -> RewardTable:
        joint = dict(self._entries)
        for symbol, value in other.items():
            if symbol in joint and joint[symbol] != value:
                raise DuplicateDefinition(symbol)
            joint[symbol] = value
        return RewardTable(joint)

    def __eq__(self, other) -> bool:
        return isinstance(other, RewardTable) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __repr__(self) -> str:
        return f"RewardTable({self._entries!r})"


@dataclass(frozen=True)
class Gamble:
    """A total map from states to reward symbols; equality is pointwise on symbols."""

    space: PossibilitySpace
    values: tuple[str, ...]

    def __post_init__(self):
        if len(self.values) != self.space.size:
            raise ValueError("gamble must assign a reward to every state")

    @classmethod
    def constant(cls, space: PossibilitySpace, reward: str) -> Gamble:
        return cls(space, (reward,) * space.size)

    @classmethod
    def of(cls, space: PossibilitySpace, assignment: Mapping[str, str]) -> Gamble:
        return cls(space, tuple(assignment[s] for s in space.states))

    def restrict(self, event: Event) -> PartialGamble:
        _same_space(self.space, event.space)
        vals = tuple(
            self.values[i] if event.contains_index(i) else None
            for i in range(self.space.size)
        )
        return PartialGamble(self.space, event, vals)

    def preimage(self, reward: str) -> Event:
        bits = 0
        for i, v in enumerate(self.values):
            if v == reward:
                bits |= 1 << i
        return Event(self.space, bits)

    def attained_rewards(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.values)))

    def equal_on(self, other: Gamble, event: Event) -> bool:
        _same_space(self.space, other.space)
        return all(self.values[i] == other.values[i] for i in event.indices())

    def __repr__(self) -> str:
        return f"Gamble({', '.join(self.values)})"


@dataclass(frozen=True)
class PartialGamble:
    """A reward map defined exactly on its domain event (None elsewhere)."""

    space: PossibilitySpace
    domain: Event
    values: tuple[Optional[str], ...]

    def __post_init__(self):
        _same_space(self.space, self.domain.space)
        for i in range(self.space.size):
            defined = self.values[i] is not None
            if defined != self.domain.contains_index(i):
                raise DomainMismatch(
                    "partial gamble must be defined exactly on its domain"
                )

    @classmethod
    def constant(cls, event: Event, reward: str) -> PartialGamble:
        vals = tuple(
            reward if event.contains_index(i) else None
            for i in range(event.space.size)
        )
        return cls(event.space, event, vals)


PartLike = Union[Gamble, PartialGamble]


def combine_on_partition(parts: Sequence[tuple[Event, PartLike]]) -> Gamble:
    """Patch partial gambles together over a partition of the space.

    Each part is an (event, gamble) pair: a total gamble is restricted to its
    event implicitly; a partial gamble must have the event as its exact
    domain. Returns the unique total gamble agreeing with every part.
    """
    if not parts:
        raise EmptyInputSet("combine_on_partition needs at least one part")
    space = parts[0][0].space
    require_partition([event for event, _ in parts])
    values: list[Optional[str]] = [None] * space.size
    for event, part in parts:
        if isinstance(part, PartialGamble):
            _same_space(space, part.space)
            if part.domain != event:
                raise DomainMismatch(
                    f"part domain {part.domain!r} differs from its event {event!r}"
                )
            source = part.values
        else:
            _same_space(space, part.space)
            source = part.values
        for i in event.indices():
            values[i] = source[i]
    return Gamble(space, tuple(values))


class GambleSet:
    """A finite set of gambles, deduplicated and canonically ordered.

    The canonical order is lexicographic in the state-indexed reward symbols,
    so serialization and set comparison are deterministic.
    """

    __slots__ = ("_members", "_lookup")

    def __init__(self, gambles: Iterable[Gamble]):
        self._lookup = frozenset(gambles)
        unique = sorted(self._lookup, key=lambda g: g.values)
        if len(unique) > 1:
            space = unique[0].space
            for g in unique[1:]:
                _same_space(space, g.space)
        self._members = tuple(unique)

    @property
    def members(self) -> tuple[Gamble, ...]:
        return self._members

    @property
    def space(self) -> PossibilitySpace:
        if not self._members:
            raise EmptyInputSet("empty gamble set has no space")
        return self._members[0].space

    def __iter__(self) -> Iterator[Gamble]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, gamble: Gamble) -> bool:
        return gamble in self._lookup

    def __eq__(self, other) -> bool:
        return isinstance(other, GambleSet) and self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def union(self, other: GambleSet) -> GambleSet:
        return GambleSet(self._lookup | other._lookup)

    def intersection(self, other: GambleSet) -> GambleSet:
        return GambleSet(self._lookup & other._lookup)

    def difference(self, other: GambleSet) -> GambleSet:
        return GambleSet(self._lookup - other._lookup)

    def issubset(self, other: GambleSet) -> bool:
        return self._lookup <= other._lookup

    def __repr__(self) -> str:
        return f"GambleSet({list(self._members)!r})"


def gamble_set_sum(
    partition: Sequence[Event], sets: Sequence[GambleSet]
) -> GambleSet:
    """The set of all partition-combinations picking one gamble per block:
    { E_1 X_1 + ... + E_n X_n : X_i in sets[i] }, deduplicated."""
    require_partition(partition)
    if len(partition) != len(sets):
        raise ValueError("one gamble set per partition block required")
    if any(len(s) == 0 for s in sets):
        raise EmptyInputSet("every block needs a non-empty gamble set")
    space = partition[0].space
    combined: list[list[Optional[str]]] = [[None] * space.size]
    for event, gset in zip(partition, sets):
        nxt = []
        for values in combined:
            for g in gset:
                merged = list(values)
                for i in event.indices():
                    merged[i] = g.values[i]
                nxt.append(merged)
        combined = nxt
    return GambleSet(Gamble(space, tuple(v)) for v in combined)


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of an A-consistency check; `witness` is the offending
    (gamble, reward) pair when the check fails."""

    ok: bool
    event: Event
    witness: Optional[tuple[Gamble, str]] = None

    def __bool__(self) -> bool:
        return self.ok


def check_a_consistency(gambles: Iterable[Gamble], event: Event) -> ConsistencyVerdict:
    """Check that every reward attained by any gamble is attained inside `event`.

    This is the inverse-map characterization of representability by a
    consistent decision tree conditioned on `event`.
    """
    if event.is_empty:
        raise EmptyEvent("A-consistency is defined for non-empty events only")
    for gamble in gambles:
        _same_space(gamble.space, event.space)
        for reward in gamble.attained_rewards():
            if (gamble.preimage(reward) & event).is_empty:
                return ConsistencyVerdict(False, event, (gamble, reward))
    return ConsistencyVerdict(True, event)
