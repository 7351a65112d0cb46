from pathlib import Path

import pytest

from treechoice.generate import GenConfig, tree_corpus
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
