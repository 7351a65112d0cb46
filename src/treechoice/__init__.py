"""treechoice: finite decision trees under set-valued choice functions.

Exact-rational solvers for the normal form and backward-induction operators,
six conditional choice rules, and executable checkers for the subtree
perfectness / backward induction laws.
"""

from .errors import TreechoiceError
from .model import (
    ConsistencyVerdict,
    Event,
    Gamble,
    GambleSet,
    PossibilitySpace,
    RewardTable,
    check_a_consistency,
    combine_on_partition,
    gamble_set_sum,
)
from .rules import (
    ChoiceContext,
    ChoiceRule,
    MassFunction,
    RULES,
    conditional_expectation,
    make_rule,
)
from .trees import (
    Chance,
    Decision,
    DecisionTree,
    Leaf,
    NormalFormDecision,
    consistent_tree_for,
    gamb,
    nfd,
    nfd_count,
    restrict_solution,
    strategically_equivalent,
    validate,
)
from .solve import (
    ExtensiveSolution,
    SolveReport,
    back_opt,
    check_normal_extensive_equivalence,
    equivalence_for_solution,
    extract_extensive,
    norm_opt,
)
from .props import PropertyId
from .laws import (
    LawReport,
    check_property_instance,
    check_subtree_perfectness,
    divergence_tree_for_mixture_witness,
    falsify_property,
)
from .generate import (
    GenConfig,
    random_consistent_tree,
    random_gamble_instance,
    seeded_rule_policy,
    tree_corpus,
)
from .textio import TreeDocument, export_dot, parse_context_file, parse_tree_file

__version__ = "0.1.0"
