"""Exception hierarchy shared by all treechoice modules."""

from __future__ import annotations


class TreechoiceError(Exception):
    """Base class for all errors raised by this package."""


class SpaceMismatch(TreechoiceError):
    """Two values built over different possibility spaces were combined."""


class NotAPartition(TreechoiceError):
    """Events overlap, contain an empty block, or fail to cover the space."""

    def __init__(self, message: str, node_id: tuple[int, ...] | None = None):
        if node_id is not None:
            message = f"{message} at node {list(node_id)}"
        super().__init__(message)
        self.node_id = node_id


class InvalidMassFunction(TreechoiceError, ValueError):
    """Masses that are not one strictly positive mass per state summing to one."""


class EmptyInputSet(TreechoiceError):
    """A gamble-set operation received an empty set."""


class EmptyEvent(TreechoiceError):
    """A non-empty conditioning event was required."""


class EmptySubtreeEvent(TreechoiceError):
    """A subtree's accumulated event is empty (inconsistent tree)."""

    def __init__(self, node_id: tuple[int, ...]):
        super().__init__(f"empty accumulated event at node {list(node_id)}")
        self.node_id = node_id


class UnknownNode(TreechoiceError):
    """A node path does not resolve in the tree."""


class EnumerationLimitExceeded(TreechoiceError):
    """A walk would hold more than `trees.ENUMERATION_CAP` strategies or candidates."""


class MissingContext(TreechoiceError):
    """The choice rule needs context data (probability / credal list) not supplied."""


class EmptySet(TreechoiceError):
    """A choice rule was applied to an empty gamble set."""


class InconsistentSet(TreechoiceError):
    """The gamble set is not consistent with the conditioning event."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class EmptySolution(TreechoiceError):
    """An operation requires a non-empty normal form solution."""


class MalformedInstance(TreechoiceError):
    """A property instance violates the property's preconditions."""


class NoViolation(TreechoiceError):
    """A violation was required, but the property holds on the instance."""


class GenerationRetryExhausted(TreechoiceError):
    """The generator could not satisfy its invariants within the retry budget."""


class TreeSyntaxError(TreechoiceError):
    """Tree or context document failed to parse."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnknownReference(TreechoiceError):
    """A name (state, event, reward) was used but never defined, or a
    defined name was never given a value it needs (`message` says which)."""

    def __init__(self, name: str, message: str | None = None):
        super().__init__(message or f"unknown reference: {name!r}")
        self.name = name


class DuplicateDefinition(TreechoiceError):
    """A name (state, event, reward) was defined twice."""

    def __init__(self, name: str):
        super().__init__(f"duplicate definition: {name!r}")
        self.name = name
