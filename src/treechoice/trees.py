"""Decision trees: construction, consistency, subtrees, strategies, and gamble sets.

A tree is a chance/decision/leaf structure over one possibility space, plus a
root event recording the intersection of all chance-arc events that preceded
it (the conditioning event for its solutions). Nodes are addressed by the
path of child indices from the root.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

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
    gamble_set_sum,
    is_partition,
    require_partition,
)

NodeId = tuple[int, ...]
Strategy = tuple[tuple[tuple[NodeId, int], ...], tuple[str, ...]]  # (choices, values)

DEFAULT_ENUMERATION_CAP = 100_000


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
    """A decision tree over `space`, conditioned on `root_event`."""

    space: PossibilitySpace
    root: Node
    root_event: Event

    def __post_init__(self):
        if self.root_event.space != self.space:
            raise SpaceMismatch("root event lives on a different space")

    @classmethod
    def over(
        cls, space: PossibilitySpace, root: Node, root_event: Optional[Event] = None
    ) -> DecisionTree:
        return cls(space, root, space.omega if root_event is None else root_event)

    def node_at(self, path: NodeId) -> Node:
        node = self.root
        for step, index in enumerate(path):
            children = _children_of(node)
            if children is None or index >= len(children):
                raise UnknownNode(f"no node at path {list(path[: step + 1])}")
            node = children[index]
        return node

    def event_at(self, path: NodeId) -> Event:
        """The accumulated event for the subtree at `path`: root_event
        intersected with every chance-arc event along the way."""
        node = self.root
        ev = self.root_event
        for step, index in enumerate(path):
            if isinstance(node, Chance):
                if index >= len(node.branches):
                    raise UnknownNode(f"no node at path {list(path[: step + 1])}")
                ev = ev & node.branches[index][0]
                node = node.branches[index][1]
            elif isinstance(node, Decision):
                if index >= len(node.children):
                    raise UnknownNode(f"no node at path {list(path[: step + 1])}")
                node = node.children[index]
            else:
                raise UnknownNode(f"no node at path {list(path[: step + 1])}")
        return ev

    def subtree_at(self, path: NodeId) -> DecisionTree:
        return DecisionTree(self.space, self.node_at(path), self.event_at(path))

    def nodes(self) -> Iterator[tuple[NodeId, Node]]:
        """All (path, node) pairs in depth-first preorder."""

        def walk(node: Node, path: NodeId) -> Iterator[tuple[NodeId, Node]]:
            yield path, node
            for i, child in enumerate(_children_of(node) or ()):
                yield from walk(child, path + (i,))

        return walk(self.root, ())

    def paths(self) -> Iterator[NodeId]:
        """All node paths in depth-first preorder."""
        return (path for path, _ in self.nodes())

    def node_counts(self) -> dict[str, int]:
        counts = {"decision": 0, "chance": 0, "leaf": 0}
        for _, node in self.nodes():
            counts[type(node).__name__.lower()] += 1
        return counts

    def leaf_rewards(self) -> tuple[str, ...]:
        return tuple(sorted({n.reward for _, n in self.nodes() if isinstance(n, Leaf)}))


def _children_of(node: Node) -> Optional[tuple[Node, ...]]:
    if isinstance(node, Decision):
        return node.children
    if isinstance(node, Chance):
        return tuple(child for _, child in node.branches)
    return None


def validate(tree: DecisionTree) -> DecisionTree:
    """Accept a consistent tree; reject with the first offending node.

    Consistency requires every chance node's branch events to partition the
    space and every subtree's accumulated event to be non-empty.
    """
    if tree.root_event.is_empty:
        raise EmptySubtreeEvent(())

    def walk(node: Node, path: NodeId, ev: Event) -> None:
        if ev.is_empty:
            raise EmptySubtreeEvent(path)
        if isinstance(node, Chance):
            events = [event for event, _ in node.branches]
            if not is_partition(events):
                raise NotAPartition(
                    "chance branch events must partition the space", node_id=path
                )
            for i, (event, child) in enumerate(node.branches):
                walk(child, path + (i,), ev & event)
        elif isinstance(node, Decision):
            for i, child in enumerate(node.children):
                walk(child, path + (i,), ev)

    walk(tree.root, (), tree.root_event)
    return tree


def subtree_at(tree: DecisionTree, path: NodeId) -> DecisionTree:
    """The subtree rooted at `path`, carrying its accumulated event."""
    return tree.subtree_at(path)


def is_consistent(tree: DecisionTree) -> bool:
    try:
        validate(tree)
    except (NotAPartition, EmptySubtreeEvent):
        return False
    return True


def prune_impossible_branches(tree: DecisionTree) -> DecisionTree:
    """Drop chance branches that conflict with the accumulated history event.

    The freed event mass is folded into the first surviving sibling so every
    chance node still carries a partition of the space; the result is
    consistent whenever the root event is non-empty. Opt-in repair for trees
    rejected by `validate`; `validate` itself never prunes.
    """
    if tree.root_event.is_empty:
        raise EmptySubtreeEvent(())

    def walk(node: Node, ev: Event) -> Node:
        if isinstance(node, Leaf):
            return node
        if isinstance(node, Decision):
            return Decision(tuple(walk(c, ev) for c in node.children))
        kept = [(event, child) for event, child in node.branches if not (ev & event).is_empty]
        dropped_bits = 0
        for event, _ in node.branches:
            if (ev & event).is_empty:
                dropped_bits |= event.bits
        # fold the impossible mass into the first surviving branch so the
        # branch events still partition the whole space
        first_event, first_child = kept[0]
        widened = Event(tree.space, first_event.bits | dropped_bits)
        rebuilt = [(widened, walk(first_child, ev & first_event))]
        rebuilt.extend((event, walk(child, ev & event)) for event, child in kept[1:])
        return Chance(tuple(rebuilt))

    return validate(DecisionTree(tree.space, walk(tree.root, tree.root_event), tree.root_event))


def nfd_count(tree: DecisionTree) -> int:
    """Number of normal form decisions: products at chance nodes, sums at
    decision nodes."""

    def count(node: Node) -> int:
        if isinstance(node, Leaf):
            return 1
        if isinstance(node, Chance):
            total = 1
            for _, child in node.branches:
                total *= count(child)
            return total
        return sum(count(child) for child in node.children)

    return count(tree.root)


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

    def restrict(self, path: NodeId) -> NormalFormDecision:
        """The induced strategy on the subtree at `path` (which must survive)."""
        if not self.contains_node(path):
            raise UnknownNode(f"strategy does not pass through {list(path)}")
        sub = self.tree.subtree_at(path)
        kept = {
            q[len(path):]: i
            for q, i in self.choices
            if q[: len(path)] == path and len(q) >= len(path)
        }
        return NormalFormDecision.of(sub, kept)

    @cached_property
    def gamble(self) -> Gamble:
        """The normal form gamble this strategy induces: the one pair that
        `strategies` enumerates under this strategy's own arcs."""
        arcs = frozenset(self.arc_paths())
        ((_, values),) = strategies(self.tree, keep_arc=arcs.__contains__)
        return Gamble(self.tree.space, values)

    def as_tree(self) -> DecisionTree:
        """Materialize the strategy as a tree whose decision nodes are unary."""

        def build(node: Node, path: NodeId) -> Node:
            if isinstance(node, Leaf):
                return node
            if isinstance(node, Decision):
                index = self.choice_map[path]
                return Decision((build(node.children[index], path + (index,)),))
            return Chance(
                tuple(
                    (event, build(child, path + (i,)))
                    for i, (event, child) in enumerate(node.branches)
                )
            )

        return DecisionTree(self.tree.space, build(self.tree.root, ()), self.tree.root_event)

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
        total = nfd_count(tree)
        if total > cap:
            raise EnumerationLimitExceeded(
                f"{total} normal form decisions exceed the cap of {cap}"
            )
    size = tree.space.size
    noun = "strategies" if select is None else "glued candidates"

    def walk(node: Node, path: NodeId) -> list[Strategy]:
        if isinstance(node, Leaf):
            return [((), (node.reward,) * size)]
        # the recursive calls sit in loops, not comprehensions, so that each
        # tree level costs one frame of the recursion limit
        if isinstance(node, Decision):
            candidates = []
            for i, child in enumerate(node.children):
                if keep_arc is None or keep_arc(path + (i,)):
                    below = walk(child, path + (i,))
                    candidates += [(((path, i),) + c, v) for c, v in below]
        else:
            events = [event for event, _ in node.branches]
            require_partition(events, node_id=path)
            owner = [0] * size
            for b, event in enumerate(events):
                for i in event.indices():
                    owner[i] = b
            per_branch = []
            for b, (_, child) in enumerate(node.branches):
                per_branch.append(walk(child, path + (b,)))
            count = math.prod(map(len, per_branch))
            if count > cap:
                raise EnumerationLimitExceeded(
                    f"{count} {noun} exceed the cap of {cap}"
                )
            candidates = [
                (
                    tuple(itertools.chain.from_iterable(c for c, _ in combo)),
                    tuple([combo[b][1][i] for i, b in enumerate(owner)]),
                )
                for combo in itertools.product(*per_branch)
            ]
        return candidates if select is None else select(path, candidates)

    return walk(tree.root, ())


def nfd(
    tree: DecisionTree, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[NormalFormDecision, ...]:
    """Enumerate all normal form decisions, in canonical (choice-sorted) order."""
    return tuple(NormalFormDecision(tree, choices) for choices, _ in strategies(tree, cap))


def gamb(tree: DecisionTree, cap: int = DEFAULT_ENUMERATION_CAP) -> GambleSet:
    """The set of normal form gambles, by direct recursion on the tree.

    Independent of `nfd`; the two routes are compared in the structural law
    tests. Leaves give constants, chance roots combine branch sets over the
    partition, decision roots take unions.
    """
    if nfd_count(tree) > cap:
        raise EnumerationLimitExceeded(
            f"tree has more than {cap} normal form decisions"
        )

    def build(node: Node) -> GambleSet:
        if isinstance(node, Leaf):
            return GambleSet([Gamble.constant(tree.space, node.reward)])
        if isinstance(node, Decision):
            out = GambleSet([])
            for child in node.children:
                out = out.union(build(child))
            return out
        partition = [event for event, _ in node.branches]
        return gamble_set_sum(partition, [build(child) for _, child in node.branches])

    return build(tree.root)


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Strategic-equivalence outcome; truthiness follows gamble-set equality."""

    gambles_equal: bool
    ev_equal: bool

    def __bool__(self) -> bool:
        return self.gambles_equal


def strategically_equivalent(
    t1: DecisionTree, t2: DecisionTree, cap: int = DEFAULT_ENUMERATION_CAP
) -> EquivalenceVerdict:
    """Compare induced gamble sets (and, additionally, conditioning events)."""
    if t1.space != t2.space:
        raise SpaceMismatch("trees over different possibility spaces")
    validate(t1)
    validate(t2)
    return EquivalenceVerdict(
        gambles_equal=gamb(t1, cap) == gamb(t2, cap),
        ev_equal=t1.root_event == t2.root_event,
    )


def restrict_solution(
    solution: Iterable[NormalFormDecision], path: NodeId
) -> frozenset[NormalFormDecision]:
    """Subtrees-at-`path` of exactly those members passing through it;
    may be empty."""
    members = list(solution)
    if members:
        members[0].tree.node_at(path)  # raises UnknownNode for bad paths
    return frozenset(m.restrict(path) for m in members if m.contains_node(path))


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
    return validate(DecisionTree(event.space, root, event))


def same_up_to_chance_order(t1: DecisionTree, t2: DecisionTree) -> bool:
    """Structural equality treating each chance node's branches as unordered."""
    if (t1.space, t1.root_event) != (t2.space, t2.root_event):
        return False

    def canon(node: Node):
        if isinstance(node, Leaf):
            return ("leaf", node.reward)
        if isinstance(node, Decision):
            return ("decision", tuple(canon(c) for c in node.children))
        items = sorted(
            ((event.bits, canon(child)) for event, child in node.branches),
        )
        return ("chance", tuple(items))

    return canon(t1.root) == canon(t2.root)
