from pathlib import Path

import pytest

from treechoice.generate import GenConfig, rng_for, tree_corpus
from treechoice.model import GambleSet, PossibilitySpace
from treechoice.rules import ChoiceContext, ChoiceRule, make_rule
from treechoice.textio import parse_context_file, parse_tree_file
from treechoice.trees import Chance, Decision, DecisionTree, Leaf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEED = 20110916
CORPUS_CONFIG = GenConfig(max_depth=4, omega_range=(2, 8), nfd_ceiling=400)


def load_doc(name):
    return parse_tree_file((FIXTURES / name).read_text())


def load_context(name):
    return parse_context_file((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def acceptance_corpus():
    """The seeded 200-tree acceptance corpus, built once a session."""
    return tree_corpus(CORPUS_CONFIG, SEED, 200)


@pytest.fixture(scope="session")
def incomparable_doc():
    return load_doc("incomparable.tree")


@pytest.fixture(scope="session")
def lake_doc():
    return load_doc("lake.tree")


@pytest.fixture(scope="session")
def cross_doc():
    return load_doc("cross.tree")


@pytest.fixture(scope="session")
def leaf_doc():
    return load_doc("leaf.tree")


@pytest.fixture
def incomparable_dominance(incomparable_doc):
    return make_rule("pointwise_dominance", ChoiceContext(incomparable_doc.rewards))


@pytest.fixture
def incomparable_eu(incomparable_doc):
    context = load_context("incomparable_uniform.prob").bind(incomparable_doc.space, incomparable_doc.rewards)
    return make_rule("eu_max", context)


@pytest.fixture
def incomparable_credal_context(incomparable_doc):
    return load_context("incomparable_credal.ctx").bind(incomparable_doc.space, incomparable_doc.rewards)


@pytest.fixture
def lake_eu(lake_doc):
    context = load_context("lake_uniform.prob").bind(lake_doc.space, lake_doc.rewards)
    return make_rule("eu_max", context)


def gambles_by_values(gamble_set: GambleSet):
    return {g.values for g in gamble_set}


def path_choices(member):
    """A strategy's (decision node path, kept index) pairs, in id order."""
    return tuple((member.tree.path_of(v), i) for v, i in member.choices)


def over_cap_tree(rewards):
    """A chance node over two states, each branch a 317-leaf decision whose
    leaves cycle through `rewards`: 317**2 = 100,489 strategies, just over
    the enumeration cap, in 637 nodes."""
    space = PossibilitySpace(("s", "t"))
    branch = Decision(tuple(Leaf(rewards[i % len(rewards)]) for i in range(317)))
    return DecisionTree.over(
        space, Chance(((space.event(["s"]), branch), (space.event(["t"]), branch)))
    )


def same_up_to_chance_order(t1, t2):
    """Structural equality treating each chance node's branches as unordered."""
    if (t1.space, t1.root_event) != (t2.space, t2.root_event):
        return False
    ids = {}  # canonical form -> id, shared by both trees

    def canon(node, v=0, below=()):
        if isinstance(node, Leaf):
            key = ("leaf", node.reward)
        elif isinstance(node, Decision):
            key = ("decision", tuple(below))
        else:
            key = ("chance", tuple(sorted(zip((e.bits for e, _ in node.branches), below))))
        return ids.setdefault(key, len(ids))

    return t1.fold(canon, canon) == t2.fold(canon, canon)


def replace_node(root, path, new):
    """`root` with the node at `path` replaced by `new`: walk down the path,
    then rebuild each node on it from the bottom up."""
    above = []
    for index in path:
        if isinstance(root, Leaf):
            raise ValueError("path walks through a leaf")
        above.append((root, index))
        root = root.children[index] if isinstance(root, Decision) else root.branches[index][1]
    for parent, index in reversed(above):
        if isinstance(parent, Decision):
            children = list(parent.children)
            children[index] = new
            new = Decision(tuple(children))
        else:
            branches = list(parent.branches)
            branches[index] = (branches[index][0], new)
            new = Chance(tuple(branches))
    return new


def _rewrite_candidates(tree):
    """(kind, node id, child index) for every rewrite the tree allows."""
    out = []
    for v, node in tree.nodes():
        out.append(("wrap", v, None))
        if isinstance(node, Decision):
            if len(node.children) >= 2:
                out.append(("permute_decision", v, None))
            if len(node.children) == 1:
                out.append(("unwrap", v, None))
            for i, child in enumerate(node.children):
                if isinstance(child, Decision):
                    out.append(("flatten", v, i))
        if isinstance(node, Chance) and len(node.branches) >= 2:
            out.append(("permute_chance", v, None))
    return out


def equivalent_rewrite(tree, seed, steps=1):
    """Apply gamble-preserving rewrites: permute decision children, flatten
    nested decisions, insert/remove unary decision prefixes, permute chance
    branches. The result stays consistent with the same conditioning event
    and the same gamble set."""
    current = tree
    rng = rng_for("rewrite", seed)
    for _ in range(steps):
        kind, v, extra = rng.choice(_rewrite_candidates(current))
        node = current.index.nodes[v]
        if kind == "wrap":
            new = Decision((node,))
        elif kind == "unwrap":
            new = node.children[0]
        elif kind == "permute_decision":
            order = list(range(len(node.children)))
            rng.shuffle(order)
            new = Decision(tuple(node.children[i] for i in order))
        elif kind == "permute_chance":
            order = list(range(len(node.branches)))
            rng.shuffle(order)
            new = Chance(tuple(node.branches[i] for i in order))
        else:  # flatten child `extra` into this decision node
            child = node.children[extra]
            spliced = (
                node.children[:extra] + child.children + node.children[extra + 1:]
            )
            new = Decision(spliced)
        current = DecisionTree(
            current.space, replace_node(current.root, current.path_of(v), new), current.root_event
        )
    return current


class FussyPairsRule(ChoiceRule):
    """Test-only pathological rule: full set normally, but on two-element
    sets keeps only the canonically first gamble. Violates preservation
    of non-optimality (Sen's alpha)."""

    name = "fussy_pairs"

    def _select(self, gambles, given):
        members = list(gambles)
        if len(members) == 2:
            return members[:1]
        return members
