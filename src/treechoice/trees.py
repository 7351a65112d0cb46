"""Decision trees: construction, consistency, subtrees, strategies, and gamble sets.

A tree is a chance/decision/leaf structure over one possibility space, plus a
root event recording the intersection of all chance-arc events that preceded
it (the conditioning event for its solutions). Nodes are addressed by the
path of child indices from the root. A `DecisionTree` is consistent by
construction, so nothing that reads one checks it again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

from .errors import (
    EmptySubtreeEvent,
    EnumerationLimitExceeded,
    NotAPartition,
    SpaceMismatch,
    UnknownNode,
)
from .model import (
    Event,
    Gamble,
    GambleSet,
    PossibilitySpace,
    is_partition,
)

NodeId = tuple[int, ...]
Strategy = tuple[tuple[tuple[NodeId, int], ...], tuple[str, ...]]  # (choices, values)

DEFAULT_ENUMERATION_CAP = 100_000

T = TypeVar("T")


@dataclass(frozen=True)
class Leaf:
    reward: str


@dataclass(frozen=True)
class Decision:
    children: tuple["Node", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("decision node needs at least one child")


@dataclass(frozen=True)
class Chance:
    branches: tuple[tuple[Event, "Node"], ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("chance node needs at least one branch")


Node = Union[Leaf, Decision, Chance]


def leaf(reward: str) -> Leaf:
    return Leaf(reward)


def decision(*children: Node) -> Decision:
    return Decision(tuple(children))


def chance(*branches: tuple[Event, Node]) -> Chance:
    return Chance(tuple(branches))


@dataclass(frozen=True)
class DecisionTree:
    """A consistent decision tree over `space`, conditioned on `root_event`.

    Construction runs `validate`, so no inconsistent tree exists: every
    accumulated event is non-empty and every chance node's branch events
    partition the space."""

    space: PossibilitySpace
    root: Node
    root_event: Event

    def __post_init__(self):
        if self.root_event.space != self.space:
            raise SpaceMismatch("root event lives on a different space")
        validate(self)

    @classmethod
    def _unchecked(
        cls, space: PossibilitySpace, root: Node, root_event: Event
    ) -> DecisionTree:
        """A tree built without the consistency walk: for a part of a
        consistent tree, whose nodes keep the events they had there, and
        for the parts `prune_impossible_branches` walks to repair them."""
        tree = object.__new__(cls)
        tree.__dict__.update(space=space, root=root, root_event=root_event)
        return tree

    @classmethod
    def over(
        cls, space: PossibilitySpace, root: Node, root_event: Optional[Event] = None
    ) -> DecisionTree:
        return cls(space, root, space.omega if root_event is None else root_event)

    def _descend(self, path: NodeId, ev: Optional[Event] = None) -> tuple[Node, Optional[Event]]:
        """The node at `path`, and `ev` narrowed by each chance arc on the way."""
        node = self.root
        for step, index in enumerate(path):
            if isinstance(node, Decision) and index < len(node.children):
                node = node.children[index]
            elif isinstance(node, Chance) and index < len(node.branches):
                event, node = node.branches[index]
                if ev is not None:
                    ev = ev & event
            else:
                raise UnknownNode(f"no node at path {list(path[: step + 1])}")
        return node, ev

    def node_at(self, path: NodeId) -> Node:
        return self._descend(path)[0]

    def event_at(self, path: NodeId) -> Event:
        """The accumulated event for the subtree at `path`: root_event
        intersected with every chance-arc event along the way."""
        return self._descend(path, self.root_event)[1]

    def subtree_at(self, path: NodeId) -> DecisionTree:
        """The subtree rooted at `path`, carrying its accumulated event."""
        return DecisionTree._unchecked(self.space, *self._descend(path, self.root_event))

    def nodes(self) -> Iterator[tuple[NodeId, Node, Event]]:
        """Every (path, node, accumulated event) triple in depth-first
        preorder, walked on an explicit stack. A node's children are built
        only when the caller asks for the next triple, so a check on a node
        runs before anything below it is touched."""
        stack: list[tuple[NodeId, Node, Event]] = [((), self.root, self.root_event)]
        while stack:
            path, node, ev = top = stack.pop()
            yield top
            if isinstance(node, Decision):
                for i in reversed(range(len(node.children))):
                    stack.append((path + (i,), node.children[i], ev))
            elif isinstance(node, Chance):
                for i in reversed(range(len(node.branches))):
                    event, child = node.branches[i]
                    stack.append((path + (i,), child, ev & event))

    def fold(
        self,
        leaf: Callable[[Leaf], T],
        inner: Callable[[Node, NodeId, list], T],
        children: Optional[Callable[[Node, NodeId], Optional[Sequence]]] = None,
    ) -> T:
        """Fold bottom-up on an explicit stack: `leaf(node)` at each leaf,
        `inner(node, path, below)` at each other node once its children are
        done, `below` holding their results in child order. `children(node,
        path)` may raise before a node's children are walked; it returns the
        children to walk, None in place of each skipped one (its result is
        None), or None to walk them all."""

        def opened(node: Node) -> tuple:
            kids = None if children is None else children(node, tuple(trail))
            if kids is None:
                kids = [c for _, c in node.branches] if isinstance(node, Chance) else node.children
            return node, enumerate(kids), []

        if isinstance(self.root, Leaf):
            return leaf(self.root)
        trail: list[int] = []  # the current node's path; a frame keeps none
        frame = opened(self.root)
        stack: list[tuple] = []  # the frames of the current node's ancestors
        while True:
            node, kids, below = frame
            for i, child in kids:
                if isinstance(child, Leaf):
                    below.append(leaf(child))
                elif child is None:
                    below.append(None)
                else:
                    stack.append(frame)
                    trail.append(i)
                    frame = opened(child)
                    break
            else:
                result = inner(node, tuple(trail), below)
                if not stack:
                    return result
                trail.pop()
                frame = stack.pop()
                frame[2].append(result)

    def paths(self) -> Iterator[NodeId]:
        """All node paths in depth-first preorder."""
        return (path for path, _, _ in self.nodes())

    def node_counts(self) -> dict[str, int]:
        counts = {"decision": 0, "chance": 0, "leaf": 0}
        for _, node, _ in self.nodes():
            counts[type(node).__name__.lower()] += 1
        return counts

    def leaf_rewards(self) -> tuple[str, ...]:
        return tuple(
            sorted({n.reward for _, n, _ in self.nodes() if isinstance(n, Leaf)})
        )


def validate(tree: DecisionTree) -> DecisionTree:
    """Accept a consistent tree; reject with the first offending node in
    preorder. `DecisionTree` runs it on construction.

    Consistency requires every chance node's branch events to partition the
    space and every subtree's accumulated event to be non-empty.
    """
    for path, node, ev in tree.nodes():
        if ev.is_empty:
            raise EmptySubtreeEvent(path)
        if isinstance(node, Chance) and not is_partition([e for e, _ in node.branches]):
            raise NotAPartition(
                "chance branch events must partition the space", node_id=path
            )
    return tree


def prune_impossible_branches(
    space: PossibilitySpace, root: Node, root_event: Event
) -> DecisionTree:
    """The tree of these parts with every chance branch that conflicts with
    its accumulated history event dropped.

    The freed event mass is folded into the first surviving sibling so every
    chance node still carries a partition of the space; the result is
    consistent whenever the root event is non-empty and the branch events
    partition the space. Opt-in repair for parts the `DecisionTree`
    constructor rejects; construction itself never prunes.
    """
    if root_event.is_empty:
        raise EmptySubtreeEvent(())
    events = {(): root_event}  # the accumulated events of inner nodes to walk

    def possible(node: Node, path: NodeId) -> list[Optional[Node]]:
        ev = events.pop(path)
        if isinstance(node, Decision):
            arcs = [(ev, child) for child in node.children]
        else:
            arcs = [(ev & event, child) for event, child in node.branches]
        for i, (sub, child) in enumerate(arcs):
            if not (sub.is_empty or isinstance(child, Leaf)):
                events[path + (i,)] = sub
        return [None if sub.is_empty else child for sub, child in arcs]

    def rebuild(node: Node, path: NodeId, below: list) -> Node:
        if isinstance(node, Decision):
            return Decision(tuple(below))
        kept = [(e, child) for (e, _), child in zip(node.branches, below) if child is not None]
        # fold the impossible mass into the first surviving branch so the
        # branch events still partition the whole space
        bits = kept[0][0].bits
        for (event, _), child in zip(node.branches, below):
            if child is None:
                bits |= event.bits
        kept[0] = (Event(space, bits), kept[0][1])
        return Chance(tuple(kept))

    parts = DecisionTree._unchecked(space, root, root_event)
    return DecisionTree(space, parts.fold(lambda node: node, rebuild, possible), root_event)


def nfd_count(tree: DecisionTree) -> int:
    """Number of normal form decisions: products at chance nodes, sums at
    decision nodes."""
    return tree.fold(
        lambda _: 1,
        lambda node, path, below: sum(below) if isinstance(node, Decision) else math.prod(below),
    )


def capped_nfd_count(tree: DecisionTree, cap: int) -> int:
    """`nfd_count`, refused up front when it exceeds `cap`."""
    total = nfd_count(tree)
    if total > cap:
        raise EnumerationLimitExceeded(
            f"{total} normal form decisions exceed the cap of {cap}"
        )
    return total


@dataclass(frozen=True)
class NormalFormDecision:
    """A strategy: one kept arc at every reachable decision node of `tree`.

    `choices` maps the path of each reachable decision node to the index of
    its kept child; paths are in the source tree's coordinates.
    """

    tree: DecisionTree
    choices: tuple[tuple[NodeId, int], ...]

    @classmethod
    def of(cls, tree: DecisionTree, choices: Mapping[NodeId, int]) -> NormalFormDecision:
        return cls(tree, tuple(sorted(choices.items())))

    @cached_property
    def choice_map(self) -> dict[NodeId, int]:
        return dict(self.choices)

    def contains_node(self, path: NodeId) -> bool:
        """True iff the node at `path` survives under this strategy's choices."""
        self.tree.node_at(path)  # raises UnknownNode for bad paths
        chosen = self.choice_map
        for cut in range(len(path)):
            prefix = path[:cut]
            if prefix in chosen and chosen[prefix] != path[cut]:
                return False
        return True

    @cached_property
    def gamble(self) -> Gamble:
        """The normal form gamble this strategy induces: the one pair that
        `strategies` enumerates under this strategy's own arcs."""
        arcs = frozenset(self.arc_paths())
        ((_, values),) = strategies(self.tree, keep_arc=arcs.__contains__)
        return Gamble(self.tree.space, values)

    def as_tree(self) -> DecisionTree:
        """Materialize the strategy as a tree whose decision nodes are unary."""

        def chosen(node: Node, path: NodeId) -> Optional[list[Optional[Node]]]:
            if isinstance(node, Decision):
                index = self.choice_map[path]
                return [None] * index + [node.children[index]]
            return None

        def build(node: Node, path: NodeId, below: list[Node]) -> Node:
            if isinstance(node, Decision):
                return Decision((below[-1],))
            return Chance(tuple((event, b) for (event, _), b in zip(node.branches, below)))

        root = self.tree.fold(lambda node: node, build, chosen)
        return DecisionTree(self.tree.space, root, self.tree.root_event)

    def __hash__(self) -> int:
        # the members of a solution share one tree: hashing it would walk
        # the whole tree once per member
        return hash(self.choices)

    def arc_paths(self) -> tuple[NodeId, ...]:
        """Kept decision arcs, each identified by the path of its child node."""
        return tuple(sorted(q + (i,) for q, i in self.choices))

    def __repr__(self) -> str:
        arcs = ["".join(f"[{i}]" for i in arc) for arc in self.arc_paths()]
        return f"NormalFormDecision({' '.join(arcs) or 'trivial'})"


def strategies(
    tree: DecisionTree,
    cap: int = DEFAULT_ENUMERATION_CAP,
    keep_arc: Optional[Callable[[NodeId], bool]] = None,
    select: Optional[Callable[[NodeId, list[Strategy]], list[Strategy]]] = None,
) -> list[Strategy]:
    """Every strategy of `tree` as a (choices, values) pair, built bottom-up.

    `choices` is the canonical sorted tuple of (decision path, kept index)
    pairs, `values` the induced gamble's reward symbol per state. Decision
    nodes take the union of their children's pairs; chance nodes combine one
    pair per branch through a state-to-branch index built once per node. No
    strategy's choices are a prefix of another's, so the pairs come out in
    canonical choice order.

    `keep_arc(arc)` drops the decision arcs (named by the child's path) it
    rejects: extensive forms, single strategies. `select(path, candidates)`
    keeps some candidates of every non-leaf node, children first: backward
    induction. Without hooks the count is checked against `cap` up front,
    otherwise at each chance node.
    """
    if keep_arc is None and select is None:
        capped_nfd_count(tree, cap)
    size = tree.space.size
    noun = "strategies" if select is None else "glued candidates"

    def kept(node: Node, path: NodeId) -> Optional[list[Optional[Node]]]:
        if isinstance(node, Decision):
            return [c if keep_arc(path + (i,)) else None for i, c in enumerate(node.children)]
        return None

    def combine(node: Node, path: NodeId, below: list) -> list[Strategy]:
        if isinstance(node, Decision):
            candidates = [
                (((path, i),) + c, v) for i, pairs in enumerate(below) if pairs for c, v in pairs
            ]
        else:
            owner = [0] * size
            for b, (event, _) in enumerate(node.branches):
                for i in event.indices():
                    owner[i] = b
            count = math.prod(map(len, below))
            if count > cap:
                raise EnumerationLimitExceeded(
                    f"{count} {noun} exceed the cap of {cap}"
                )
            candidates = [
                (
                    tuple(itertools.chain.from_iterable(c for c, _ in combo)),
                    tuple([combo[b][1][i] for i, b in enumerate(owner)]),
                )
                for combo in itertools.product(*below)
            ]
        return candidates if select is None else select(path, candidates)

    return tree.fold(
        lambda node: [((), (node.reward,) * size)],
        combine,
        None if keep_arc is None else kept,
    )


def nfd(
    tree: DecisionTree, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[NormalFormDecision, ...]:
    """Enumerate all normal form decisions, in canonical (choice-sorted) order."""
    return tuple(NormalFormDecision(tree, choices) for choices, _ in strategies(tree, cap))


def distinct(path: NodeId, candidates: list[Strategy]) -> list[Strategy]:
    """A `select` hook keeping one pair per distinct gamble."""
    return list({values: (choices, values) for choices, values in candidates}.values())


def _values(path: NodeId, candidates: list[Strategy]) -> list[Strategy]:
    """A `select` hook keeping one choice-free pair per distinct gamble."""
    return [((), values) for values in dict.fromkeys(values for _, values in candidates)]


def gamb(tree: DecisionTree, cap: int = DEFAULT_ENUMERATION_CAP) -> GambleSet:
    """The set of normal form gambles: the root pool of the enumeration
    that keeps one choice-free pair per distinct gamble at every node. The
    strategy count is checked against `cap` up front, as in `nfd`."""
    capped_nfd_count(tree, cap)
    pairs = strategies(tree, cap, select=_values)
    return GambleSet(Gamble(tree.space, values) for _, values in pairs)


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Strategic-equivalence outcome: both trees' gamble sets and whether
    their conditioning events agree; truthiness follows gamble-set equality."""

    first: GambleSet
    second: GambleSet
    ev_equal: bool

    @property
    def gambles_equal(self) -> bool:
        return self.first == self.second

    def __bool__(self) -> bool:
        return self.gambles_equal


def strategically_equivalent(
    t1: DecisionTree, t2: DecisionTree, cap: int = DEFAULT_ENUMERATION_CAP
) -> EquivalenceVerdict:
    """Compare induced gamble sets (and, additionally, conditioning events)."""
    if t1.space != t2.space:
        raise SpaceMismatch("trees over different possibility spaces")
    return EquivalenceVerdict(gamb(t1, cap), gamb(t2, cap), t1.root_event == t2.root_event)


def restrict_solution(
    solution: Iterable[NormalFormDecision], path: NodeId
) -> frozenset[NormalFormDecision]:
    """The induced strategies on the subtree at `path` of exactly those
    members passing through it; may be empty. The members share one tree,
    as a solution's do."""
    # contains_node raises UnknownNode for a path not in the tree
    members = [m for m in solution if m.contains_node(path)]
    if not members:
        return frozenset()
    sub = members[0].tree.subtree_at(path)
    cut = len(path)
    # the choices are sorted, so those below `path` stay sorted once cut
    return frozenset(
        NormalFormDecision(sub, tuple((q[cut:], i) for q, i in m.choices if q[:cut] == path))
        for m in members
    )


def chance_expansion(gamble: Gamble) -> Chance:
    """A chance node realizing the gamble: one branch per attained reward,
    over its level-set events."""
    return Chance(
        tuple(
            (gamble.preimage(reward), Leaf(reward))
            for reward in gamble.attained_rewards()
        )
    )


def consistent_tree_for(gambles: GambleSet, event: Event) -> DecisionTree:
    """The constructive witness that an `event`-consistent gamble set is
    representable: a decision over the members, each expanded as a chance
    node over its reward level sets."""
    root: Node = Decision(tuple(chance_expansion(g) for g in gambles))
    return DecisionTree(event.space, root, event)


def same_up_to_chance_order(t1: DecisionTree, t2: DecisionTree) -> bool:
    """Structural equality treating each chance node's branches as unordered."""
    if (t1.space, t1.root_event) != (t2.space, t2.root_event):
        return False
    ids: dict[tuple, int] = {}  # canonical form -> id, shared by both trees

    def canon(node: Node, path: NodeId = (), below: Sequence[int] = ()) -> int:
        if isinstance(node, Leaf):
            key: tuple = ("leaf", node.reward)
        elif isinstance(node, Decision):
            key = ("decision", tuple(below))
        else:
            key = ("chance", tuple(sorted(zip((e.bits for e, _ in node.branches), below))))
        return ids.setdefault(key, len(ids))

    return t1.fold(canon, canon) == t2.fold(canon, canon)
