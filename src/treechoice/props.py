"""Property identifiers and the instance shapes the law checkers consume.

Each instance type carries exactly the data quantified over by one family of
properties, plus `validate` (the property's preconditions) and canonical
shrinking moves. Re-mapping onto a smaller possibility space is shared: the
`InstanceShape` base maps each field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from typing import ClassVar, Iterator, Sequence, Union

from .errors import MalformedInstance, UnknownReference
from .model import (
    Event,
    Gamble,
    GambleSet,
    PossibilitySpace,
    RewardTable,
    check_a_consistency,
    is_partition,
)


class PropertyId(Enum):
    P1_conditioning = "P1"
    P2_intersection = "P2"
    P3_mixture = "P3"
    P4_strong_path_independence = "P4"
    P5_very_strong_path_independence = "P5"
    P6_total_preorder = "P6"
    P7_backward_conditioning = "P7"
    P8_insensitivity = "P8"
    P9_preservation = "P9"
    P10_backward_mixture = "P10"
    P11_path_independence = "P11"
    L_setsum_factorization = "L"

    @classmethod
    def parse(cls, text: str) -> PropertyId:
        for member in cls:
            if text in (member.name, member.value):
                return member
        raise UnknownReference(text, f"unknown property {text!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInstance(message)


def _require_consistent(gambles, event: Event, what: str) -> None:
    verdict = check_a_consistency(gambles, event)
    _require(bool(verdict), f"{what} is not consistent with {event!r}")


def _restrict(value, space: PossibilitySpace, kept: Sequence[int]):
    """One instance field (a gamble, gamble set, event or tuple of these)
    re-mapped onto the states at indices `kept`."""
    if isinstance(value, tuple):
        return tuple(_restrict(v, space, kept) for v in value)
    if isinstance(value, GambleSet):
        return GambleSet(_restrict(g, space, kept) for g in value)
    if isinstance(value, Event):
        bits = 0
        for new_index, old_index in enumerate(kept):
            if value.contains_index(old_index):
                bits |= 1 << new_index
        return Event(space, bits)
    return Gamble(space, tuple(value.values[i] for i in kept))


class InstanceShape:
    """Base of the six instance shapes.

    Every field of a shape is a gamble, a gamble set, an event or a tuple of
    these, all over the space of its `given` event. Restriction, gamble
    listing and witness JSON read the fields in declaration order; `shape`
    names the shape in witness JSON. `validate` checks the preconditions.
    """

    shape: ClassVar[str]

    @property
    def space(self) -> PossibilitySpace:
        return self.given.space

    def restricted(self, kept: Sequence[int]) -> InstanceShape:
        """The same instance on the states at indices `kept` (in order)."""
        space = PossibilitySpace(tuple(self.space.states[i] for i in kept))
        values = (_restrict(getattr(self, f.name), space, kept) for f in fields(self))
        return type(self)(*values)

    def _without_each_gamble(self, name: str) -> Iterator[InstanceShape]:
        """The instance without each gamble of its gamble set `name` in turn,
        while that set stays non-empty."""
        gambles = getattr(self, name)
        for g in gambles:
            rest = [x for x in gambles if x != g]
            if rest:
                yield replace(self, **{name: GambleSet(rest)})


@dataclass(frozen=True)
class ConditioningInstance(InstanceShape):
    """(gambles, given): shape for the conditioning property."""

    shape = "conditioning"

    gambles: GambleSet
    given: Event

    def validate(self) -> None:
        _require(not self.given.is_empty, "conditioning event is empty")
        _require(len(self.gambles) > 0, "gamble set is empty")
        _require_consistent(self.gambles, self.given, "gamble set")

    def drop_gamble_candidates(self) -> Iterator[ConditioningInstance]:
        return self._without_each_gamble("gambles")


@dataclass(frozen=True)
class SubsetInstance(InstanceShape):
    """(gambles, subset, given): shape for intersection / insensitivity /
    preservation properties."""

    shape = "subset"

    gambles: GambleSet
    subset: GambleSet
    given: Event

    def validate(self) -> None:
        _require(not self.given.is_empty, "conditioning event is empty")
        _require(len(self.subset) > 0, "subset is empty")
        _require(self.subset.issubset(self.gambles), "subset not within the set")
        _require_consistent(self.gambles, self.given, "gamble set")

    def drop_gamble_candidates(self) -> Iterator[SubsetInstance]:
        for g in self.gambles:
            rest = GambleSet(x for x in self.gambles if x != g)
            sub = GambleSet(x for x in self.subset if x != g)
            if len(rest) > 0 and len(sub) > 0:
                yield SubsetInstance(rest, sub, self.given)


@dataclass(frozen=True)
class MixtureInstance(InstanceShape):
    """(gambles, other, part, given): gambles live on `part` of `given`,
    `other` on the complement; shape for the mixture properties."""

    shape = "mixture"

    gambles: GambleSet
    other: Gamble
    part: Event
    given: Event

    def validate(self) -> None:
        inside = self.part & self.given
        outside = self.part.complement() & self.given
        _require(not inside.is_empty, "part does not meet the conditioning event")
        _require(not outside.is_empty, "part covers the conditioning event")
        _require(len(self.gambles) > 0, "gamble set is empty")
        _require_consistent(self.gambles, inside, "gamble set")
        _require_consistent([self.other], outside, "the off-part gamble")

    def drop_gamble_candidates(self) -> Iterator[MixtureInstance]:
        return self._without_each_gamble("gambles")


@dataclass(frozen=True)
class FamilyInstance(InstanceShape):
    """(parts, given): a family of gamble sets; shape for the path
    independence / total preorder properties."""

    shape = "family"

    parts: tuple[GambleSet, ...]
    given: Event

    def union(self) -> GambleSet:
        """Every part's gambles; built once per instance."""
        return self._union

    @cached_property
    def _union(self) -> GambleSet:
        return GambleSet(g for part in self.parts for g in part)

    def validate(self) -> None:
        _require(not self.given.is_empty, "conditioning event is empty")
        _require(len(self.parts) > 0, "family is empty")
        _require(all(len(p) > 0 for p in self.parts), "family contains an empty set")
        _require_consistent(self.union(), self.given, "family union")

    def drop_gamble_candidates(self) -> Iterator[FamilyInstance]:
        for index, part in enumerate(self.parts):
            for g in part:
                rest = GambleSet(x for x in part if x != g)
                if len(rest) > 0:
                    parts = self.parts[:index] + (rest,) + self.parts[index + 1:]
                elif len(self.parts) > 1:
                    parts = self.parts[:index] + self.parts[index + 1:]
                else:
                    continue
                yield FamilyInstance(parts, self.given)


@dataclass(frozen=True)
class BackwardConditioningInstance(InstanceShape):
    """(gambles, part, given, others): the backward-conditioning shape; the
    `others` set supplies the off-part continuations."""

    shape = "backward_conditioning"

    gambles: GambleSet
    part: Event
    given: Event
    others: GambleSet

    def validate(self) -> None:
        inside = self.part & self.given
        outside = self.part.complement() & self.given
        _require(not inside.is_empty, "part does not meet the conditioning event")
        _require(not outside.is_empty, "part covers the conditioning event")
        _require(len(self.gambles) > 0, "gamble set is empty")
        _require(len(self.others) > 0, "off-part set is empty")
        _require_consistent(self.gambles, inside, "gamble set")
        _require_consistent(self.others, outside, "off-part set")

    def drop_gamble_candidates(self) -> Iterator[BackwardConditioningInstance]:
        yield from self._without_each_gamble("gambles")
        yield from self._without_each_gamble("others")


@dataclass(frozen=True)
class SetSumInstance(InstanceShape):
    """(partition, parts, given): one gamble set per partition block; shape
    for the set-sum factorization law."""

    shape = "setsum"

    partition: tuple[Event, ...]
    parts: tuple[GambleSet, ...]
    given: Event

    def validate(self) -> None:
        _require(len(self.partition) == len(self.parts), "one set per block required")
        _require(is_partition(list(self.partition)), "blocks do not partition the space")
        _require(not self.given.is_empty, "conditioning event is empty")
        for block, part in zip(self.partition, self.parts):
            inside = block & self.given
            _require(not inside.is_empty, "a block misses the conditioning event")
            _require(len(part) > 0, "a block's gamble set is empty")
            _require_consistent(part, inside, "a block's gamble set")

    def drop_gamble_candidates(self) -> Iterator[SetSumInstance]:
        for index, part in enumerate(self.parts):
            for g in part:
                rest = GambleSet(x for x in part if x != g)
                if len(rest) > 0:
                    yield SetSumInstance(
                        self.partition,
                        self.parts[:index] + (rest,) + self.parts[index + 1:],
                        self.given,
                    )


Instance = Union[
    ConditioningInstance,
    SubsetInstance,
    MixtureInstance,
    FamilyInstance,
    BackwardConditioningInstance,
    SetSumInstance,
]

INSTANCE_SHAPES: dict[PropertyId, type] = {
    PropertyId.P1_conditioning: ConditioningInstance,
    PropertyId.P2_intersection: SubsetInstance,
    PropertyId.P3_mixture: MixtureInstance,
    PropertyId.P4_strong_path_independence: FamilyInstance,
    PropertyId.P5_very_strong_path_independence: FamilyInstance,
    PropertyId.P6_total_preorder: FamilyInstance,
    PropertyId.P7_backward_conditioning: BackwardConditioningInstance,
    PropertyId.P8_insensitivity: SubsetInstance,
    PropertyId.P9_preservation: SubsetInstance,
    PropertyId.P10_backward_mixture: MixtureInstance,
    PropertyId.P11_path_independence: FamilyInstance,
    PropertyId.L_setsum_factorization: SetSumInstance,
}


def _field_gambles(instance: Instance) -> Iterator[Gamble]:
    """The gambles of the instance's fields, in field order (repeats kept)."""
    for name in instance.__match_args__:  # a dataclass's field names, in order
        value = getattr(instance, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, GambleSet):
                yield from item
            elif isinstance(item, Gamble):
                yield item


def reward_table_for_instance(instance: Instance) -> RewardTable:
    """Utility table for instances built over literal reward symbols."""
    symbols: set[str] = set()
    for g in _field_gambles(instance):
        symbols.update(g.values)
    return RewardTable.from_literals(symbols)
