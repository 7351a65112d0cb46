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

import json
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted
from typing import Iterable, Optional

from .errors import (
    DuplicateDefinition,
    TreechoiceError,
    TreeSyntaxError,
    UnknownReference,
)
from .model import Event, Gamble, GambleSet, PossibilitySpace, RewardTable, _rational_literal
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

# The deepest decision/chance nest a tree document may hold. No reader
# recurses once per level, so this is an input bound, not a stack limit: a
# solution's arc-path listing, the DOT node names and the enumerator's arc
# tuples still grow faster than the depth.
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
    try:  # a bad literal raises on every parse: the cache keeps no exceptions
        return _rational_literal(text)
    except (ValueError, ZeroDivisionError):
        raise TreeSyntaxError(f"not a rational: {text!r}", line_no, col) from None


# A token is a name, one other character that is not white space, or the
# end of the text; a search for the next token skips white space.
_TOKEN = re.compile(r"[^\s(),:=#]+|\S|\Z")

# What must follow each head, as a stack whose top is the next token: `expr`
# is a whole expression, and `more` is a `,` and one more child, or the `)`
# that closes the node.
_AFTER_HEAD = {
    "leaf": [")", "reward", "("],
    "decision": ["more", "expr", "("],
    "chance": ["more", "expr", ":", "event", "("],
}


def _scan_tree(text: str, line_no: int, offset: int) -> list[list]:
    """Check a tree expression's syntax in one pass over its tokens, and list
    its nodes in preorder as [event of the branch the node starts, or None;
    head; reward (at a leaf) or child count]."""
    nodes: list[list] = []
    open_nodes: list[list] = []  # the decision/chance nodes not yet closed
    todo = ["end", "expr"]  # what the rest of the text must spell, as above
    label = None  # the event named by the branch whose expression comes next
    for match in _TOKEN.finditer(text):
        token, col, want = match[0], match.start(), todo.pop()
        error = None
        if want in ("expr", "reward", "event") and (not token or token in RESERVED):
            error = "expected a name"
        elif want == "reward":
            nodes[-1][2] = token
        elif want == "event":
            label = token
        elif want == "expr":
            if token not in _AFTER_HEAD:
                error, col = f"expected leaf/decision/chance, got {token!r}", col + len(token)
            elif token != "leaf" and len(open_nodes) == MAX_TREE_DEPTH:
                error = f"decision/chance nodes nested deeper than the limit of {MAX_TREE_DEPTH}"
                col += len(token)
            else:
                if open_nodes:
                    open_nodes[-1][2] += 1
                nodes.append([label, token, 0])
                if token != "leaf":
                    open_nodes.append(nodes[-1])
                todo += _AFTER_HEAD[token]
                label = None
        elif want == "more":
            if token == ",":
                todo += _AFTER_HEAD[open_nodes[-1][1]][:-1]  # as after the head, less its `(`
            elif token == ")":
                open_nodes.pop()
            else:
                error = "expected ')'"
        elif want == "end":
            error = "trailing input after tree expression" if token else None
        elif token != want:
            error = f"expected {want!r}"
        if error:
            raise TreeSyntaxError(error, line_no, offset + col + 1)
    return nodes


def _build_tree(
    nodes: list[list], table: RewardTable, events: tuple[tuple[str, Event], ...]
) -> Node:
    """The nodes a preorder listing spells. References resolve in preorder,
    each branch's event before its subtree; the nodes are built bottom-up."""
    branch_events = []
    for label, head, arg in nodes:
        branch_events.append(None if label is None else _event_named(events, label))
        if head == "leaf" and arg not in table:
            raise UnknownReference(arg)
    built: list = []  # finished subtrees, the first child on top
    for (_, head, arg), event in zip(reversed(nodes), reversed(branch_events)):
        if head == "leaf":
            node = Leaf(arg)
        else:
            below = tuple(built.pop() for _ in range(arg))
            node = Decision(below) if head == "decision" else Chance(below)
        built.append(node if event is None else (event, node))
    return built[0]


def _definition(rest: str, line_no: int, into: dict, shape: str) -> tuple[str, str]:
    """The name and value of a `<name> = <value>` line, once it is known to
    be well formed and to define a name not yet in `into`."""
    name, eq, value = rest.partition("=")
    name, value = name.strip(), value.strip()
    if not eq or not name or not value:
        raise TreeSyntaxError(f"expected `{shape}`", line_no, 1)
    if name in into:
        raise DuplicateDefinition(name)
    return name, value


def parse_tree_file(text: str) -> TreeDocument:
    """Parse a tree document; references must resolve and the tree must be
    consistent."""
    states: Optional[tuple[str, ...]] = None
    rewards: dict[str, Fraction] = {}
    events: dict[str, tuple[str, ...]] = {}
    root_event_name: Optional[str] = None
    nodes = None

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
            name, value = _definition(rest, line_no, rewards, "reward <name> = <value>")
            rewards[name] = _parse_rational(value, line_no, 1)
        elif keyword == "event":
            name, value = _definition(rest, line_no, events, "event <name> = <label>+")
            events[name] = tuple(value.split())
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
            if nodes is not None:
                raise DuplicateDefinition("tree")
            expr_text = _strip_comment(raw[eq_pos + 1:])
            if not expr_text.strip():
                raise TreeSyntaxError("empty tree expression", line_no, eq_pos + 2)
            nodes = _scan_tree(expr_text, line_no, eq_pos + 1)
        else:
            raise TreeSyntaxError(f"unknown directive {keyword!r}", line_no, 1)

    if states is None:
        raise TreeSyntaxError("missing omega declaration", 1, 1)
    if nodes is None:
        raise TreeSyntaxError("missing tree expression", 1, 1)

    space = PossibilitySpace(states)
    table = RewardTable(rewards)
    named_events = tuple((name, space.event(labels)) for name, labels in events.items())
    root_event = space.omega
    if root_event_name is not None:
        root_event = _event_named(named_events, root_event_name)
    tree = DecisionTree(space, _build_tree(nodes, table, named_events), root_event)
    return TreeDocument(
        space=space,
        rewards=table,
        reward_order=tuple(rewards),
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
    current: Optional[dict[str, Fraction]] = None  # the open credal block's masses

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("prob "):
            into = probability if current is None else current
            name, value = _definition(line[len("prob "):], line_no, into, "prob <label> = p/q")
            into[name] = _parse_rational(value, line_no, 1)
        elif current is None and line == "credal {":
            current = {}
        elif current is not None and line in ("} {", "}"):
            credal.append(current)
            current = {} if line == "} {" else None
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
    return [list(member.tree.path_of(arc)) for arc in member.arcs]


def solution_json(solution: Iterable[NormalFormDecision]) -> list[list[list[int]]]:
    ordered = sorted(solution, key=lambda m: m.arcs)
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


# Each JSON scalar's text, by its exact type: a bool is not an int here.
_SCALARS = {
    str: _quoted,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def json_text(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` byte for byte, for what `jsonable` gives:
    str-keyed dicts, lists, strings, ints, bools and None (other leaves go to
    `json.dumps`). A list of scalars of one type is one `str.join`."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str raises TypeError: no report has one
        items = [_quoted(key) + ": " + json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, value) if scalar else [json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)  # a float; a TypeError for what JSON cannot hold


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
