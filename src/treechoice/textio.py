"""Text formats: tree documents, context files, JSON-able reports, DOT export.

Tree documents are line-oriented with `#` comments:

    omega <label>+
    reward <name> = <int>[/<int>]
    event <name> = <label>+
    root_event <event-name>          (optional, defaults to the full space)
    tree = <expr>

    <expr> ::= leaf(<reward>)
             | decision(<expr> {, <expr>}*)
             | chance(<event>: <expr> {, <event>: <expr>}*)

Context files use `prob <label> = p/q` lines for a single mass function and
`credal { ... } { ... }` blocks of the same line shape for credal lists.
Rationals are serialized as `p/q` in lowest terms, integers bare.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (
    DuplicateDefinition,
    TreechoiceError,
    TreeSyntaxError,
    UnknownReference,
)
from .model import Event, Gamble, GambleSet, PossibilitySpace, RewardTable
from .props import InstanceShape
from .rules import ChoiceContext, ChoiceRule, MassFunction
from .solve import extract_extensive
from .trees import (
    Chance,
    Decision,
    DecisionTree,
    Leaf,
    Node,
    NormalFormDecision,
)

RESERVED = set("(),:=#")

# The deepest decision/chance nest a tree document may hold. The parser is
# the only reader that recurses, two frames a level where it builds the
# nodes: from the CLI, one level deeper exceeds the default recursion limit.
MAX_TREE_DEPTH = 493


def _event_named(events: Iterable[tuple[str, Event]], name: str) -> Event:
    for label, event in events:
        if label == name:
            return event
    raise UnknownReference(name)


@dataclass(frozen=True)
class TreeDocument:
    """A parsed tree file; serialization reproduces the canonical layout."""

    space: PossibilitySpace
    rewards: RewardTable
    reward_order: tuple[str, ...]
    events: tuple[tuple[str, Event], ...]
    root_event_name: Optional[str]
    tree: DecisionTree

    def event_named(self, name: str) -> Event:
        return _event_named(self.events, name)

    def serialize(self) -> str:
        lines = [f"omega {' '.join(self.space.states)}"]
        for name in self.reward_order:
            lines.append(f"reward {name} = {self.rewards.utility(name)}")
        for name, event in self.events:
            lines.append(f"event {name} = {' '.join(event.labels())}")
        if self.root_event_name is not None:
            lines.append(f"root_event {self.root_event_name}")
        names: dict[int, str] = {}
        for name, event in self.events:  # first declaration wins for aliases
            names.setdefault(event.bits, name)

        pieces: list[str] = []
        todo: list = [self.tree.root]  # popped in order: nodes, and text between them
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                pieces.append(item)
            elif isinstance(item, Leaf):
                pieces.append(f"leaf({item.reward})")
            else:
                if isinstance(item, Decision):
                    pieces.append("decision(")
                    parts = [("", child) for child in item.children]
                else:
                    for event, _ in item.branches:
                        if event.bits not in names:
                            raise UnknownReference(f"unnamed event {event!r}")
                    pieces.append("chance(")
                    parts = [(f"{names[e.bits]}: ", child) for e, child in item.branches]
                then: list = []
                for i, (label, child) in enumerate(parts):
                    then += [", " if i else "", label, child]
                todo += [")"] + then[::-1]
        lines.append(f"tree = {''.join(pieces)}")
        return "\n".join(lines) + "\n"


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_rational(text: str, line_no: int, col: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise TreeSyntaxError(f"not a rational: {text!r}", line_no, col) from None


class _ExprParser:
    """Recursive-descent parser for one tree expression."""

    def __init__(self, text: str, line_no: int, col_offset: int):
        self.text = text
        self.pos = 0
        self.line_no = line_no
        self.col_offset = col_offset

    def error(self, message: str) -> TreeSyntaxError:
        return TreeSyntaxError(message, self.line_no, self.col_offset + self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def atom(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isspace() or c in RESERVED:
                break
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def parse(self) -> "_Expr":
        expr = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input after tree expression")
        return expr

    def expr(self, depth: int = 0) -> "_Expr":
        head = self.atom()
        if head == "leaf":
            self.expect("(")
            reward = self.atom()
            self.expect(")")
            return ("leaf", reward)
        if head in ("decision", "chance") and depth == MAX_TREE_DEPTH:
            raise self.error(
                f"decision/chance nodes nested deeper than the limit of {MAX_TREE_DEPTH}"
            )
        if head == "decision":
            self.expect("(")
            children = [self.expr(depth + 1)]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                children.append(self.expr(depth + 1))
                self.skip_ws()
            self.expect(")")
            return ("decision", children)
        if head == "chance":
            self.expect("(")
            branches = []
            while True:
                # one frame per level: a branch is parsed in place
                name = self.atom()
                self.expect(":")
                branches.append((name, self.expr(depth + 1)))
                self.skip_ws()
                if self.peek() != ",":
                    break
                self.pos += 1
            self.expect(")")
            return ("chance", branches)
        raise self.error(f"expected leaf/decision/chance, got {head!r}")


_Expr = tuple


def parse_tree_file(text: str) -> TreeDocument:
    """Parse a tree document; references must resolve and the tree must be
    consistent."""
    states: Optional[tuple[str, ...]] = None
    rewards: dict[str, Fraction] = {}
    reward_order: list[str] = []
    events: list[tuple[str, tuple[str, ...]]] = []
    root_event_name: Optional[str] = None
    tree_expr = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "omega":
            if states is not None:
                raise DuplicateDefinition("omega")
            labels = rest.split()
            if not labels:
                raise TreeSyntaxError("omega needs at least one state", line_no, 1)
            states = tuple(labels)
        elif keyword == "reward":
            name, eq, value = rest.partition("=")
            name = name.strip()
            if not eq or not name or not value.strip():
                raise TreeSyntaxError("expected `reward <name> = <value>`", line_no, 1)
            if name in rewards:
                raise DuplicateDefinition(name)
            rewards[name] = _parse_rational(value.strip(), line_no, 1)
            reward_order.append(name)
        elif keyword == "event":
            name, eq, labels = rest.partition("=")
            name = name.strip()
            if not eq or not name or not labels.split():
                raise TreeSyntaxError("expected `event <name> = <label>+`", line_no, 1)
            if any(name == existing for existing, _ in events):
                raise DuplicateDefinition(name)
            events.append((name, tuple(labels.split())))
        elif keyword == "root_event":
            if root_event_name is not None:
                raise DuplicateDefinition("root_event")
            if not rest:
                raise TreeSyntaxError("expected `root_event <event-name>`", line_no, 1)
            root_event_name = rest
        elif keyword == "tree":
            eq_pos = raw.find("=")
            if eq_pos < 0 or not rest.startswith("="):
                raise TreeSyntaxError("expected `tree = <expr>`", line_no, 1)
            if tree_expr is not None:
                raise DuplicateDefinition("tree")
            body = raw[eq_pos + 1:]
            expr_text = _strip_comment(body)
            if not expr_text.strip():
                raise TreeSyntaxError("empty tree expression", line_no, eq_pos + 2)
            tree_expr = _ExprParser(expr_text, line_no, eq_pos + 1).parse()
        else:
            raise TreeSyntaxError(f"unknown directive {keyword!r}", line_no, 1)

    if states is None:
        raise TreeSyntaxError("missing omega declaration", 1, 1)
    if tree_expr is None:
        raise TreeSyntaxError("missing tree expression", 1, 1)

    space = PossibilitySpace(states)
    table = RewardTable(rewards)
    named_events = tuple((name, space.event(labels)) for name, labels in events)

    def build(expr) -> Node:
        kind = expr[0]
        if kind == "leaf":
            if expr[1] not in table:
                raise UnknownReference(expr[1])
            return Leaf(expr[1])
        if kind == "decision":
            return Decision(tuple(build(e) for e in expr[1]))
        return Chance(tuple((_event_named(named_events, n), build(e)) for n, e in expr[1]))

    root_event = space.omega
    if root_event_name is not None:
        root_event = _event_named(named_events, root_event_name)
    tree = DecisionTree(space, build(tree_expr), root_event)
    return TreeDocument(
        space=space,
        rewards=table,
        reward_order=tuple(reward_order),
        events=named_events,
        root_event_name=root_event_name,
        tree=tree,
    )


def document_for(
    tree: DecisionTree, rewards: Optional[RewardTable] = None
) -> TreeDocument:
    """Wrap a tree as a document, naming branch events e1, e2, ... in first
    preorder occurrence; rewards default to literal-valued symbols."""
    table = rewards if rewards is not None else RewardTable.from_literals(tree.leaf_rewards())
    events = [e for _, n in tree.nodes() if isinstance(n, Chance) for e, _ in n.branches]
    if not tree.root_event.is_omega:
        events.append(tree.root_event)
    names: dict[int, tuple[str, Event]] = {}  # by bits, in order of first occurrence
    for event in events:
        names.setdefault(event.bits, (f"e{len(names) + 1}", event))
    return TreeDocument(
        space=tree.space,
        rewards=table,
        reward_order=tuple(table.symbols()),
        events=tuple(names.values()),
        root_event_name=None if tree.root_event.is_omega else names[tree.root_event.bits][0],
        tree=tree,
    )


@dataclass(frozen=True)
class ContextDocument:
    probability: Optional[dict[str, Fraction]]
    credal: Optional[tuple[dict[str, Fraction], ...]]

    def bind(self, space: PossibilitySpace, utilities: RewardTable) -> ChoiceContext:
        def to_mass(mapping: dict[str, Fraction]) -> MassFunction:
            for label in mapping:
                if label not in space.states:
                    raise UnknownReference(label)
            for state in space.states:
                if state not in mapping:
                    raise UnknownReference(state, f"the mass for state {state!r} is missing")
            return MassFunction.of(space, mapping)

        return ChoiceContext(
            utilities=utilities,
            probability=None if self.probability is None else to_mass(self.probability),
            credal=None
            if self.credal is None
            else tuple(to_mass(m) for m in self.credal),
        )


def parse_context_file(text: str) -> ContextDocument:
    probability: dict[str, Fraction] = {}
    credal: list[dict[str, Fraction]] = []
    current: Optional[dict[str, Fraction]] = None

    def parse_prob(rest: str, line_no: int, into: dict[str, Fraction]) -> None:
        name, eq, value = rest.partition("=")
        name = name.strip()
        if not eq or not name or not value.strip():
            raise TreeSyntaxError("expected `prob <label> = p/q`", line_no, 1)
        if name in into:
            raise DuplicateDefinition(name)
        into[name] = _parse_rational(value.strip(), line_no, 1)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if current is None:
            if line == "credal {":
                current = {}
            elif line.startswith("prob "):
                parse_prob(line[len("prob "):], line_no, probability)
            else:
                raise TreeSyntaxError(f"unexpected line {line!r}", line_no, 1)
        else:
            if line == "} {":
                credal.append(current)
                current = {}
            elif line == "}":
                credal.append(current)
                current = None
            elif line.startswith("prob "):
                parse_prob(line[len("prob "):], line_no, current)
            else:
                raise TreeSyntaxError(f"unexpected line {line!r}", line_no, 1)
    if current is not None:
        raise TreeSyntaxError("unterminated credal block", line_no, 1)
    return ContextDocument(
        probability=probability if probability else None,
        credal=tuple(credal) if credal else None,
    )


def serialize_context(context: ContextDocument) -> str:
    lines: list[str] = []
    if context.probability is not None:
        for label, value in context.probability.items():
            lines.append(f"prob {label} = {value}")
    if context.credal is not None:
        for block in context.credal:
            lines.append("credal {")
            for label, value in block.items():
                lines.append(f"prob {label} = {value}")
            lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON-able report pieces


def gamble_json(g: Gamble) -> list[str]:
    return list(g.values)


def gamble_set_json(s: GambleSet) -> list[list[str]]:
    return [gamble_json(g) for g in s]


def event_json(e: Event) -> list[str]:
    return list(e.labels())


def member_json(member: NormalFormDecision) -> list[list[int]]:
    """The member's kept decision arcs, each as the path of its child."""
    return [[*member.tree.path_of(v), i] for v, i in member.choices]


def solution_json(solution: Iterable[NormalFormDecision]) -> list[list[list[int]]]:
    ordered = sorted(solution, key=lambda m: m.choices)
    return [member_json(m) for m in ordered]


def jsonable(value):
    """Best-effort conversion of report payloads to JSON-compatible data."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Gamble):
        return gamble_json(value)
    if isinstance(value, GambleSet):
        return gamble_set_json(value)
    if isinstance(value, Event):
        return event_json(value)
    if isinstance(value, NormalFormDecision):
        return member_json(value)
    if isinstance(value, MassFunction):
        return {s: str(m) for s, m in zip(value.space.states, value.masses)}
    if isinstance(value, ChoiceRule):
        return {"name": value.name, "context": jsonable(value.context)}
    if isinstance(value, ChoiceContext):
        out = {}
        if value.probability is not None:
            out["probability"] = jsonable(value.probability)
        if value.credal is not None:
            out["credal"] = [jsonable(m) for m in value.credal]
        out["utilities"] = {s: str(u) for s, u in value.utilities.items()}
        return out
    if isinstance(value, PossibilitySpace):
        return list(value.states)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def instance_json(instance) -> dict:
    """Serialize a property instance for re-checking: its space, its shape
    name, then each field in declaration order."""
    if not isinstance(instance, InstanceShape):
        raise TreechoiceError(f"unknown instance type: {type(instance).__name__}")
    out: dict = {"space": jsonable(instance.space), "shape": instance.shape}
    for f in fields(instance):
        out[f.name] = jsonable(getattr(instance, f.name))
    return out


# ---------------------------------------------------------------------------
# DOT export


def export_dot(
    tree: DecisionTree,
    rewards: Optional[RewardTable] = None,
    solution: Optional[Iterable[NormalFormDecision]] = None,
) -> str:
    """Graphviz text: decision nodes as boxes, chance nodes as circles,
    leaves labeled with reward and utility; decision arcs pruned by the
    solution (when given) are dashed."""
    pruned = frozenset() if solution is None else extract_extensive(tree, solution).pruned_arcs
    lines = ["digraph decision_tree {", "  rankdir=LR;"]

    def node_name(v: int) -> str:
        return "n" + "_".join(str(i) for i in tree.path_of(v))

    def quoted(label: str) -> str:
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def leaf_label(reward: str) -> str:
        if rewards is not None and reward in rewards:
            utility = rewards.utility(reward)
            if str(utility) != reward:
                return f"{reward} = {utility}"
        return reward

    for v, node in tree.nodes():
        me = node_name(v)
        if v:  # the arc from the parent, then the node
            u, i = tree.index.parent[v], tree.index.position[v]
            parent = tree.index.nodes[u]
            if isinstance(parent, Decision):
                label = f'"{i + 1}"' + (", style=dashed" if v in pruned else "")
            else:
                label = quoted("{" + ",".join(parent.branches[i][0].labels()) + "}")
            lines.append(f"  {node_name(u)} -> {me} [label={label}];")
        if isinstance(node, Leaf):
            lines.append(f"  {me} [shape=plaintext, label={quoted(leaf_label(node.reward))}];")
        else:
            shape = "box" if isinstance(node, Decision) else "circle"
            lines.append(f'  {me} [shape={shape}, label=""];')
    lines.append("}")
    return "\n".join(lines) + "\n"
