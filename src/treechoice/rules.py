"""Conditional set-valued choice rules over exact rational contexts.

Every rule maps a non-empty, event-consistent gamble set to a non-empty
subset of it, conditional on a non-empty event. All arithmetic is exact:
`fractions.Fraction` in the context, whole numbers in the rules'
comparisons. Ties are never broken; the full optimal set is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import eq, ge, gt, itemgetter, mul
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    EmptyEvent,
    EmptySet,
    InconsistentSet,
    InvalidMassFunction,
    MissingContext,
    SpaceMismatch,
)
from .model import (
    Event,
    Gamble,
    GambleSet,
    PossibilitySpace,
    RewardTable,
    check_a_consistency,
)


@dataclass(frozen=True)
class MassFunction:
    """A strictly positive probability mass function on a possibility space."""

    space: PossibilitySpace
    masses: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.masses) != self.space.size:
            raise InvalidMassFunction("one mass per state required")
        if any(m.numerator <= 0 for m in self.masses):
            raise InvalidMassFunction("all state masses must be strictly positive")
        common = lcm(*(m.denominator for m in self.masses))
        if sum(m.numerator * (common // m.denominator) for m in self.masses) != common:
            raise InvalidMassFunction("masses must sum to one")

    @classmethod
    def uniform(cls, space: PossibilitySpace) -> MassFunction:
        n = space.size
        return cls(space, (Fraction(1, n),) * n)

    @classmethod
    def of(cls, space: PossibilitySpace, by_label: dict[str, Fraction]) -> MassFunction:
        return cls(space, tuple(Fraction(by_label[s]) for s in space.states))

    @classmethod
    def from_weights(cls, space: PossibilitySpace, weights: Sequence[int]) -> MassFunction:
        total = sum(weights)
        return cls(space, tuple(Fraction(w, total) for w in weights))

    def restricted(self, space: PossibilitySpace, kept: Sequence[int]) -> MassFunction:
        """Renormalize onto the sub-space formed by the kept state indices."""
        total = sum(self.masses[i] for i in kept)
        return MassFunction(space, tuple(self.masses[i] / total for i in kept))


def event_columns(masses: Sequence[MassFunction], event: Event) -> list[tuple[int, ...]]:
    """One column per mass function p: the weights p(ω)/P(event) of the
    event's states, all times the least S > 0 that makes every one whole."""
    if event.is_empty:
        raise EmptyEvent("cannot condition on the empty event")
    if any(p.space != event.space for p in masses):
        raise SpaceMismatch("event over a different space")
    states = tuple(event.indices())
    totals = [sum(p.masses[i] for i in states) for p in masses]
    weights = [[p.masses[i] / total for i in states] for p, total in zip(masses, totals)]
    scale = lcm(*(w.denominator for column in weights for w in column))
    return [tuple(w.numerator * (scale // w.denominator) for w in c) for c in weights]


def column_expectation(column: tuple[int, ...], points: Sequence[int]) -> int:
    """One row entry: Σ_{ω∈A} W_ω·U(g(ω)) = S·L·E_p[u(g) | A] for a column W, units U."""
    return sum(map(mul, column, points))


def conditional_expectation(
    p: MassFunction, gamble: Gamble, event: Event, utilities: RewardTable
) -> Fraction:
    """Exact E_p[u(gamble) | event], a `Fraction`: `p` is strictly positive,
    so every non-empty event conditions it."""
    if gamble.space != event.space:
        raise SpaceMismatch("gamble over a different space")
    (column,) = event_columns([p], event)
    points = [utilities.utility(gamble.values[i]) for i in event.indices()]
    return column_expectation(column, points) / sum(column)


@dataclass(frozen=True)
class ChoiceContext:
    """Numeric context a rule may draw on: utilities, and optionally a single
    mass function or a finite credal list of mass functions (all strictly
    positive, so conditioning is always defined)."""

    utilities: RewardTable
    probability: Optional[MassFunction] = None
    credal: Optional[tuple[MassFunction, ...]] = None

    def __post_init__(self):
        if self.credal is not None and len(self.credal) == 0:
            raise ValueError("credal list must be non-empty when present")

    def restricted(self, space: PossibilitySpace, kept: Sequence[int]) -> ChoiceContext:
        return ChoiceContext(
            utilities=self.utilities,
            probability=None
            if self.probability is None
            else self.probability.restricted(space, kept),
            credal=None
            if self.credal is None
            else tuple(p.restricted(space, kept) for p in self.credal),
        )


def undominated(
    rows: dict[Gamble, Sequence[int]],
    score: Callable[[Sequence[int]], int],
    dominates: Callable[[tuple, tuple], bool],
) -> list[Gamble]:
    """The gambles whose row no other row dominates, for a strict partial
    order `dominates(y, x)` whose dominators always have a strictly higher
    `score`. Visited by falling score, each row is tested only against the
    undominated rows kept so far: a dominated dominator is itself dominated
    by a kept row (transitivity). Ties are never broken."""
    front: list[Sequence[int]] = []
    kept = []
    for gamble in sorted(rows, key=lambda g: score(rows[g]), reverse=True):
        row = rows[gamble]
        if not any(dominates(y, row) for y in front):
            front.append(row)
            kept.append(gamble)
    return kept


class ChoiceRule:
    """A conditional choice function bound to its numeric context.

    Subclasses implement `_select`; `select` wraps it with the shared
    contract checks (non-empty input, non-empty event, event-consistency)
    and returns a canonical GambleSet. A rule's answer depends only on its
    context, the gamble set and the event, so the rule keeps its tables for
    as long as it lives: each (gamble, event) is scored once, and each
    (gamble set, event) is checked and selected from once.
    """

    name = "abstract"
    needs: frozenset[str] = frozenset()

    def __init__(self, context: ChoiceContext):
        for requirement in self.needs:
            if getattr(context, requirement) is None:
                raise MissingContext(f"rule {self.name!r} needs {requirement}")
        self.context = context
        self.scores: dict = {}  # event -> (its columns, {gamble: row})
        self.selections: dict = {}  # (gamble frozenset, event) -> GambleSet

    def select(self, gambles: GambleSet, given: Event) -> GambleSet:
        # a frozenset caches its hash; equal sets are equal GambleSets
        key = (gambles._lookup, given)
        chosen = self.selections.get(key)
        if chosen is None:
            chosen = self.selections[key] = self._checked_select(gambles, given)
        return chosen

    def _checked_select(self, gambles: GambleSet, given: Event) -> GambleSet:
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
        chosen = GambleSet(self._select(gambles, given))
        assert 0 < len(chosen) and chosen.issubset(gambles)
        return chosen

    def _select(self, gambles: GambleSet, given: Event) -> list[Gamble]:
        raise NotImplementedError

    @cached_property
    def units(self) -> Mapping[str, int]:  # built on the first score, not with the rule
        return self.context.utilities.units()

    def _rows(self, gambles, given, masses) -> dict[Gamble, tuple[int, ...]]:
        """Each gamble's row: S·L times its expectation given `given` under each distinct mass
        function in `masses`; kept for the rule's life, keyed by the event (one list per rule)."""
        if given not in self.scores:
            self.scores[given] = event_columns(list(dict.fromkeys(masses)), given), {}
        columns, table = self.scores[given]
        units, states = self.units, tuple(given.indices())
        for g in gambles:
            if g not in table:
                points = [units[g.values[i]] for i in states]
                table[g] = tuple(column_expectation(c, points) for c in columns)
        return {g: table[g] for g in gambles}

    def rebind(self, context: ChoiceContext) -> "ChoiceRule":
        return type(self)(context)

    def __repr__(self) -> str:
        return f"<rule {self.name}>"


class EuMax(ChoiceRule):
    """Maximize conditional expected utility under the single mass function;
    the full argmax set is returned."""

    name = "eu_max"
    needs = frozenset({"probability"})

    def _select(self, gambles: GambleSet, given: Event) -> list[Gamble]:
        rows = self._rows(gambles, given, (self.context.probability,))
        best = max(rows.values())
        return [g for g, row in rows.items() if row == best]


class PointwiseDominance(ChoiceRule):
    """Keep a gamble unless another weakly exceeds its utility on every state
    of the conditioning event, strictly somewhere on it."""

    name = "pointwise_dominance"

    def _select(self, gambles: GambleSet, given: Event) -> list[Gamble]:
        units, states = self.units, tuple(given.indices())
        rows = {g: [units[g.values[i]] for i in states] for g in gambles}
        return undominated(rows, sum, lambda y, x: y != x and all(map(ge, y, x)))


class Maximality(ChoiceRule):
    """Keep a gamble unless another has strictly greater conditional
    expectation under every mass function in the credal list."""

    name = "maximality"
    needs = frozenset({"credal"})

    def _select(self, gambles: GambleSet, given: Event) -> list[Gamble]:
        rows = self._rows(gambles, given, self.context.credal)
        return undominated(rows, itemgetter(0), lambda y, x: all(map(gt, y, x)))


class EAdmissibility(ChoiceRule):
    """Keep a gamble iff it maximizes conditional expectation under at least
    one mass function in the credal list."""

    name = "e_admissibility"
    needs = frozenset({"credal"})

    def _select(self, gambles: GambleSet, given: Event) -> list[Gamble]:
        rows = self._rows(gambles, given, self.context.credal)
        best = [max(column) for column in zip(*rows.values())]
        return [g for g, row in rows.items() if any(map(eq, row, best))]


class GammaMaximin(ChoiceRule):
    """Maximize the worst-case conditional expectation over the credal list."""

    name = "gamma_maximin"
    needs = frozenset({"credal"})

    def _select(self, gambles: GambleSet, given: Event) -> list[Gamble]:
        rows = self._rows(gambles, given, self.context.credal)
        lower = {g: min(row) for g, row in rows.items()}
        best = max(lower.values())
        return [g for g, s in lower.items() if s == best]


class IntervalDominance(ChoiceRule):
    """Keep a gamble unless another's lower expectation strictly exceeds its
    upper one over the credal list: iff it reaches the greatest lower one."""

    name = "interval_dominance"
    needs = frozenset({"credal"})

    def _select(self, gambles: GambleSet, given: Event) -> list[Gamble]:
        rows = self._rows(gambles, given, self.context.credal)
        greatest_lower = max(min(row) for row in rows.values())
        return [g for g, row in rows.items() if max(row) >= greatest_lower]


RULES: dict[str, type[ChoiceRule]] = {
    cls.name: cls
    for cls in (
        EuMax,
        PointwiseDominance,
        Maximality,
        EAdmissibility,
        GammaMaximin,
        IntervalDominance,
    )
}


def make_rule(name: str, context: ChoiceContext) -> ChoiceRule:
    try:
        cls = RULES[name]
    except KeyError:
        raise ValueError(
            f"unknown rule {name!r}; known: {', '.join(sorted(RULES))}"
        ) from None
    return cls(context)
