"""Possibility spaces, events, rewards, gambles, and the partition-combination algebra.

All values are immutable and hashable; events are bitsets over a named,
finite possibility space, and utilities are exact `fractions.Fraction`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import lcm
from operator import attrgetter, or_
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
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

    @cached_property
    def size(self) -> int:
        return len(self.states)

    def index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise UnknownReference(label) from None

    def event(self, labels: Iterable[str]) -> Event:
        return Event.of(self, map(self.index, labels))

    @cached_property
    def full_bits(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def _indices(self) -> dict[int, tuple[int, ...]]:  # Event.indices, by bitset
        return {}

    @property
    def omega(self) -> Event:
        return Event(self, self.full_bits)  # uncached: kept on its space, a cycle

    @property
    def empty_event(self) -> Event:
        return Event(self, 0)


def _same_space(a: PossibilitySpace, b: PossibilitySpace) -> None:
    if a is not b and a != b:
        raise SpaceMismatch(f"values over different spaces: {a.states} vs {b.states}")


@dataclass(frozen=True)
class Event:
    """A subset of a possibility space, stored as a bitmask over state indices."""

    space: PossibilitySpace
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.space.size:
            raise ValueError("event bits outside the space")

    @classmethod
    def of(cls, space: PossibilitySpace, indices: Iterable[int]) -> Event:
        """The event of the states at `indices`, the inverse of `indices()`."""
        return cls(space, reduce(or_, (1 << i for i in indices), 0))

    def __hash__(self) -> int:
        return hash(self.bits)

    def __and__(self, other: Event) -> Event:
        _same_space(self.space, other.space)
        return Event(self.space, self.bits & other.bits)

    def complement(self) -> Event:
        return Event(self.space, self.space.full_bits & ~self.bits)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_omega(self) -> bool:
        return self.bits == self.space.full_bits

    def contains_index(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

    def indices(self) -> tuple[int, ...]:
        """The event's state indices, ascending: one tuple per bitset, kept on the space."""
        memo, bits = self.space._indices, self.bits
        found = memo.get(bits)
        if found is None:
            found = memo[bits] = tuple(i for i in range(self.space.size) if bits >> i & 1)
        return found

    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.states[i] for i in self.indices())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return f"Event({{{', '.join(self.labels())}}})"


def is_partition(events: Sequence[Event]) -> bool:
    """True iff the events are non-empty, pairwise disjoint, and cover the
    whole space."""
    if not events:
        return False
    space = events[0].space
    seen = 0
    for e in events:
        _same_space(space, e.space)
        if e.bits == 0 or seen & e.bits:
            return False
        seen |= e.bits
    return seen == space.full_bits


def require_partition(events: Sequence[Event]) -> None:
    if not is_partition(events):
        raise NotAPartition("events must be non-empty, disjoint, and cover the space")


# Parses each literal once per process: a falsifier's instances draw their
# rewards from a few dozen literals, and tree and context files repeat theirs.
# Bounded, and a bad literal raises anew.
_rational_literal = lru_cache(maxsize=1024)(Fraction)


class _BySymbol(dict):
    def __missing__(self, symbol: str):
        raise UnknownReference(symbol)


class RewardTable:
    """Maps reward symbols to exact rational utilities."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Fraction | int | str]):
        table = {s: u if isinstance(u, Fraction) else Fraction(u) for s, u in entries.items()}
        self._entries = _BySymbol(sorted(table.items()))

    def units(self) -> Mapping[str, int]:
        """Each utility times L, the least common multiple of their denominators."""
        ratios = [(s, u.as_integer_ratio()) for s, u in self.items()]
        common = lcm(*(d for _, (_, d) in ratios))
        return _BySymbol((s, n * common // d) for s, (n, d) in ratios)

    @classmethod
    def from_literals(cls, symbols: Iterable[str]) -> RewardTable:
        """Build a table for symbols that are themselves rational literals
        (e.g. "9", "-3/2"), each valued at the rational it spells."""
        return cls({s: _rational_literal(s) for s in set(symbols)})

    def utility(self, symbol: str) -> Fraction:
        return self._entries[symbol]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._entries

    def symbols(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def items(self):
        return self._entries.items()

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
        object.__setattr__(self, "_hash", hash(self.values))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # a str's hash differs between processes: hash anew
        return Gamble, (self.space, self.values)

    @classmethod
    def constant(cls, space: PossibilitySpace, reward: str) -> Gamble:
        return cls(space, (reward,) * space.size)

    def preimage(self, reward: str) -> Event:
        return Event.of(self.space, (i for i, v in enumerate(self.values) if v == reward))

    def attained_rewards(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.values)))

    def equal_on(self, other: Gamble, event: Event) -> bool:
        _same_space(self.space, other.space)
        return all(self.values[i] == other.values[i] for i in event.indices())

    def __repr__(self) -> str:
        return f"Gamble({', '.join(self.values)})"


def combine_on_partition(parts: Sequence[tuple[Event, Gamble]]) -> Gamble:
    """Patch gambles together over a partition of the space.

    Each part is an (event, gamble) pair, the gamble restricted to its
    event. Returns the unique total gamble agreeing with every part.
    """
    if not parts:
        raise EmptyInputSet("combine_on_partition needs at least one part")
    space = parts[0][0].space
    require_partition([event for event, _ in parts])
    values: list[Optional[str]] = [None] * space.size
    for event, gamble in parts:
        _same_space(space, gamble.space)
        for i in event.indices():
            values[i] = gamble.values[i]
    return Gamble(space, tuple(values))


class GambleSet:
    """A finite set of gambles, deduplicated and canonically ordered.

    The canonical order is lexicographic in the state-indexed reward symbols,
    so serialization and set comparison are deterministic.
    """

    __slots__ = ("_members", "_lookup")

    def __init__(self, gambles: Iterable[Gamble]):
        self._lookup = frozenset(gambles)
        unique = sorted(self._lookup, key=attrgetter("values"))
        space = unique[0].space if unique else None
        for g in unique[1:]:
            _same_space(space, g.space)
        self._members = tuple(unique)

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
    return GambleSet(
        combine_on_partition(list(zip(partition, combo))) for combo in itertools.product(*sets)
    )


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
    consistent decision tree conditioned on `event`. The witness is the first
    offending gamble with the smallest of its rewards missing on `event`.
    """
    if event.is_empty:
        raise EmptyEvent("A-consistency is defined for non-empty events only")
    inside = event.indices()
    for gamble in gambles:
        _same_space(gamble.space, event.space)
        on_event = {gamble.values[i] for i in inside}
        if not on_event.issuperset(gamble.values):
            missing = min(set(gamble.values) - on_event)
            return ConsistencyVerdict(False, event, (gamble, missing))
    return ConsistencyVerdict(True, event)
