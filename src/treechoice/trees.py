"""Decision trees: construction, consistency, subtrees, strategies, and gamble sets.

A tree is a chance/decision/leaf structure over one possibility space, plus a
root event recording the intersection of all chance-arc events that preceded
it (the conditioning event for its solutions). A `DecisionTree` is consistent
by construction, so nothing that reads one checks it again.

The construction also numbers the nodes in preorder (`NodeIndex`). A node's
id is its position in that order, its subtree is the id interval [id, end),
and id order is the lexicographic order of the nodes' paths, the child
indices on the way from the root. The tree code works on ids; `id_of` reads
a path where one comes in and `path_of` builds one where one goes out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    TypeVar,
    Union,
)

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

Path = tuple[int, ...]
Strategy = tuple[tuple[tuple[int, int], ...], tuple[str, ...]]  # (choices, values)

ENUMERATION_CAP = 100_000

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


class NodeIndex(NamedTuple):
    """A tree's nodes in preorder, with four facts per node id."""

    nodes: tuple[Node, ...]
    parent: tuple[int, ...]  # -1 at the root
    position: tuple[int, ...]  # the node's child index under its parent, 0 at the root
    end: tuple[int, ...]  # one past the last id of the node's subtree
    routed: tuple[int, ...]  # bits of the states in every chance-arc event above the node

    @classmethod
    def of(cls, space: PossibilitySpace, root: Node) -> NodeIndex:
        """Number the nodes below `root` in preorder, on an explicit stack."""
        rows = []  # (node, parent, position, routed) per id
        stack = [(root, -1, 0, (1 << space.size) - 1)]
        while stack:
            row = node, _, _, bits = stack.pop()
            v = len(rows)
            rows.append(row)
            if isinstance(node, Decision):
                stack += [(c, v, i, bits) for i, c in enumerate(node.children)][::-1]
            elif isinstance(node, Chance):
                stack += [(c, v, i, bits & e.bits) for i, (e, c) in enumerate(node.branches)][::-1]
        nodes, parent, position, routed = zip(*rows)
        end = list(range(1, len(rows) + 1))
        for v in reversed(range(1, len(rows))):  # descendants before ancestors
            end[parent[v]] = max(end[parent[v]], end[v])
        return cls(nodes, parent, position, tuple(end), routed)


@dataclass(frozen=True)
class DecisionTree:
    """A consistent decision tree over `space`, conditioned on `root_event`.

    Construction runs `validate`, so no inconsistent tree exists: every
    accumulated event is non-empty and every chance node's branch events
    partition the space. It also sets `index`, the nodes in preorder."""

    space: PossibilitySpace
    root: Node
    root_event: Event
    index: NodeIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.root_event.space != self.space:
            raise SpaceMismatch("root event lives on a different space")
        validate(self)

    @classmethod
    def _unchecked(cls, space: PossibilitySpace, root: Node, root_event: Event) -> DecisionTree:
        """A tree indexed without the consistency check: for a part of a
        consistent tree, whose nodes keep the events they had there."""
        tree = object.__new__(cls)
        index = NodeIndex.of(space, root)
        tree.__dict__.update(space=space, root=root, root_event=root_event, index=index)
        return tree

    @classmethod
    def over(
        cls, space: PossibilitySpace, root: Node, root_event: Optional[Event] = None
    ) -> DecisionTree:
        return cls(space, root, space.omega if root_event is None else root_event)

    def child(self, v: int, i: int) -> int:
        """The id of child `i` of node `v`: the first child's id, moved past
        one sibling's subtree per step; `end(v)` past the last child."""
        end = self.index.end
        c, stop = v + 1, end[v]
        while i > 0 and c < stop:
            c, i = end[c], i - 1
        return c

    def id_of(self, path: Path) -> int:
        """The id of the node at `path`; `UnknownNode` when there is none."""
        v = 0
        for step, i in enumerate(path):
            c = self.child(v, i)
            if i < 0 or c >= self.index.end[v]:
                raise UnknownNode(f"no node at path {list(path[: step + 1])}")
            v = c
        return v

    def path_of(self, v: int) -> Path:
        """The child indices on the way from the root to node `v`."""
        parent, position = self.index.parent, self.index.position
        steps = []
        while v > 0:
            steps.append(position[v])
            v = parent[v]
        return tuple(reversed(steps))

    def event_of(self, v: int) -> Event:
        """The accumulated event of node `v`: root_event intersected with
        every chance-arc event above it."""
        return Event(self.space, self.root_event.bits & self.index.routed[v])

    def subtree_of(self, v: int) -> DecisionTree:
        """The subtree rooted at node `v`, carrying its accumulated event.
        Its node `u` is this tree's node `v + u`, under the same event."""
        return DecisionTree._unchecked(self.space, self.index.nodes[v], self.event_of(v))

    def subtree_at(self, path: Path) -> DecisionTree:
        return self.subtree_of(self.id_of(path))

    def nodes(self) -> Iterator[tuple[int, Node]]:
        """Every (id, node) pair in preorder."""
        return enumerate(self.index.nodes)

    def fold(
        self,
        leaf: Callable[[Leaf], T],
        inner: Callable[[Node, int, list], T],
        keep_arc: Optional[Callable[[int], bool]] = None,
    ) -> T:
        """Fold bottom-up along the preorder index: `leaf(node)` at each
        leaf, `inner(node, id, below)` at each other node once its subtree
        is done, `below` holding its children's results in child order.
        Nodes are reached in preorder; `keep_arc(id)`, asked of each child
        of a decision node, may skip its subtree, whose result is then None."""
        nodes, end = self.index.nodes, self.index.end
        if isinstance(nodes[0], Leaf):
            return leaf(nodes[0])
        # the open inner nodes, innermost last, each with its children's results
        stack: list[tuple[int, list]] = [(0, [])]
        v = 1
        while True:
            while end[stack[-1][0]] <= v:  # the innermost open subtree is done
                u, below = stack.pop()
                result = inner(nodes[u], u, below)
                if not stack:
                    return result
                stack[-1][1].append(result)
            if keep_arc and isinstance(nodes[stack[-1][0]], Decision) and not keep_arc(v):
                stack[-1][1].append(None)
                v = end[v]
                continue
            if isinstance(nodes[v], Leaf):
                stack[-1][1].append(leaf(nodes[v]))
            else:
                stack.append((v, []))
            v += 1

    def node_counts(self) -> dict[str, int]:
        counts = {"decision": 0, "chance": 0, "leaf": 0}
        for node in self.index.nodes:
            counts[type(node).__name__.lower()] += 1
        return counts

    def leaf_rewards(self) -> tuple[str, ...]:
        return tuple(sorted({n.reward for n in self.index.nodes if isinstance(n, Leaf)}))


def validate(tree: DecisionTree) -> DecisionTree:
    """Index the tree's nodes in preorder and accept a consistent tree;
    reject with the first offending node in preorder. `DecisionTree` runs
    it on construction.

    Consistency requires every chance node's branch events to partition the
    space and every subtree's accumulated event to be non-empty.
    """
    index = NodeIndex.of(tree.space, tree.root)
    object.__setattr__(tree, "index", index)
    for v, node in enumerate(index.nodes):
        if not tree.root_event.bits & index.routed[v]:
            raise EmptySubtreeEvent(tree.path_of(v))
        if isinstance(node, Chance):
            events = [e for e, _ in node.branches]
            if not is_partition(events):
                raise NotAPartition(
                    "chance branch events must partition the space", node_id=tree.path_of(v)
                )
            tree.root_event & events[0]  # SpaceMismatch for events over another space
    return tree


def nfd_count(tree: DecisionTree, keep_arc: Optional[Callable[[int], bool]] = None) -> int:
    """Number of normal form decisions that use only the decision arcs
    (named by the child's id) `keep_arc` keeps, all by default: products at
    chance nodes, sums at decision nodes, where a skipped arc counts 0."""
    return tree.fold(
        lambda _: 1,
        lambda node, v, below: (
            sum(filter(None, below)) if isinstance(node, Decision) else math.prod(below)
        ),
        keep_arc,
    )


@dataclass(frozen=True)
class NormalFormDecision:
    """A strategy: one kept arc at every reachable decision node of `tree`.

    `choices` pairs the id of each reachable decision node with the index of
    its kept child, in id order.
    """

    tree: DecisionTree
    choices: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, tree: DecisionTree, choices: Mapping[Path, int]) -> NormalFormDecision:
        """The strategy keeping child `choices[path]` of the node at each path."""
        return cls(tree, tuple(sorted((tree.id_of(path), i) for path, i in choices.items())))

    @cached_property
    def choice_map(self) -> dict[int, int]:
        return dict(self.choices)

    def contains_node(self, v: int) -> bool:
        """True iff node `v` survives under this strategy's choices: every
        decision node above it that chooses keeps the arc towards it."""
        parent, position = self.tree.index.parent, self.tree.index.position
        chosen = self.choice_map
        while v > 0:
            u = parent[v]
            if chosen.get(u, position[v]) != position[v]:
                return False
            v = u
        return True

    @cached_property
    def gamble(self) -> Gamble:
        """The normal form gamble this strategy induces: the one pair that
        `strategies` enumerates under this strategy's own arcs."""
        arcs = frozenset(self.arcs())
        ((_, values),) = strategies(self.tree, keep_arc=arcs.__contains__)
        return Gamble(self.tree.space, values)

    def __hash__(self) -> int:
        # the members of a solution share one tree: hashing it would walk
        # the whole tree once per member
        return hash(self.choices)

    def arcs(self) -> tuple[int, ...]:
        """Kept decision arcs, each identified by the id of its child node."""
        return tuple(sorted(self.tree.child(v, i) for v, i in self.choices))

    def __repr__(self) -> str:
        arcs = ["".join(f"[{i}]" for i in self.tree.path_of(arc)) for arc in self.arcs()]
        return f"NormalFormDecision({' '.join(arcs) or 'trivial'})"


def strategies(
    tree: DecisionTree,
    keep_arc: Optional[Callable[[int], bool]] = None,
    select: Optional[Callable[[int, list[Strategy]], list[Strategy]]] = None,
) -> list[Strategy]:
    """Every strategy of `tree` as a (choices, values) pair, built bottom-up.

    `choices` is the canonical sorted tuple of (decision id, kept index)
    pairs, `values` the induced gamble's reward symbol per state. Decision
    nodes take the union of their children's pairs; chance nodes combine one
    pair per branch through a state-to-branch index built once per node. No
    strategy's choices are a prefix of another's, so the pairs come out in
    canonical choice order.

    `keep_arc(arc)` drops the decision arcs (named by the child's id) it
    rejects: extensive forms, single strategies. `select(id, candidates)`
    keeps some candidates of every non-leaf node, children first: backward
    induction. A walk holds at most `ENUMERATION_CAP` pairs per chance node:
    a larger product of its branches' lists is refused before it is built.
    """
    size = tree.space.size
    noun = "strategies" if select is None else "glued candidates"

    def combine(node: Node, v: int, below: list) -> list[Strategy]:
        if isinstance(node, Decision):
            candidates = [
                (((v, i),) + c, values)
                for i, pairs in enumerate(below)
                if pairs
                for c, values in pairs
            ]
        else:
            owner = [0] * size
            for b, (event, _) in enumerate(node.branches):
                for i in event.indices():
                    owner[i] = b
            count = math.prod(map(len, below))
            if count > ENUMERATION_CAP:
                raise EnumerationLimitExceeded(
                    f"{count} {noun} exceed the cap of {ENUMERATION_CAP}"
                )
            candidates = [
                (
                    tuple(itertools.chain.from_iterable(c for c, _ in combo)),
                    tuple([combo[b][1][i] for i, b in enumerate(owner)]),
                )
                for combo in itertools.product(*below)
            ]
        return candidates if select is None else select(v, candidates)

    return tree.fold(lambda node: [((), (node.reward,) * size)], combine, keep_arc)


def nfd(tree: DecisionTree) -> tuple[NormalFormDecision, ...]:
    """Enumerate all normal form decisions, in canonical (choice-sorted) order.
    The one walk that holds every strategy: their count is checked against
    the cap up front."""
    total = nfd_count(tree)
    if total > ENUMERATION_CAP:
        raise EnumerationLimitExceeded(
            f"{total} normal form decisions exceed the cap of {ENUMERATION_CAP}"
        )
    return tuple(NormalFormDecision(tree, choices) for choices, _ in strategies(tree))


def distinct_values(v: int, candidates: list[Strategy]) -> list[Strategy]:
    """A `select` hook keeping one choice-free pair per distinct gamble."""
    return [((), values) for values in dict.fromkeys(values for _, values in candidates)]


def gamb(tree: DecisionTree) -> GambleSet:
    """The set of normal form gambles: the root pool of the enumeration
    that keeps one choice-free pair per distinct gamble at every node."""
    pairs = strategies(tree, select=distinct_values)
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


def strategically_equivalent(t1: DecisionTree, t2: DecisionTree) -> EquivalenceVerdict:
    """Compare induced gamble sets (and, additionally, conditioning events)."""
    if t1.space != t2.space:
        raise SpaceMismatch("trees over different possibility spaces")
    return EquivalenceVerdict(gamb(t1), gamb(t2), t1.root_event == t2.root_event)


def restrict_solution(
    solution: Iterable[NormalFormDecision], path: Path
) -> frozenset[NormalFormDecision]:
    """The induced strategies on the subtree at `path` of exactly those
    members passing through it; may be empty. The members share one tree,
    as a solution's do."""
    members = list(solution)
    if not members:
        return frozenset()
    tree = members[0].tree
    v = tree.id_of(path)  # raises UnknownNode for a path not in the tree
    members = [m for m in members if m.contains_node(v)]
    if not members:
        return frozenset()
    sub, stop = tree.subtree_of(v), tree.index.end[v]
    # the choices are in id order, and stay in order once renumbered
    return frozenset(
        NormalFormDecision(sub, tuple((u - v, i) for u, i in m.choices if v <= u < stop))
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
