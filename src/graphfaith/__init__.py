"""graphfaith: Markov and faithfulness analysis for mixed graphs.

Decide whether an independence model (or an exact Gaussian distribution
given by a rational covariance matrix) is Markov to, minimally Markov to,
or faithful to a mixed graph, and when it is faithful to some graph,
construct the full Markov equivalence class of witnesses by directing the
model's skeleton along compatible preorders.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    GraphError,
    GraphFaithError,
    InternalCheckError,
    MatrixError,
    ModelError,
    ParseError,
    PreorderError,
)
from .faithfulness import (
    FaithfulnessVerdict,
    decide_graphical,
    is_faithful,
    is_markov,
    is_minimally_markov,
    is_pairwise_markov,
    pairwise_conditioning_set,
    restricted_graphical,
)
from .gaussian import (
    RationalMatrix,
    adjacency_weight_matrix,
    inverse,
    is_m_matrix,
    is_positive_definite,
    model_from_concentration,
    model_from_covariance,
    parse_matrix_csv,
    matrix_to_csv,
)
from .graphs import (
    ARC,
    ARROW,
    LINE,
    Edge,
    GraphClassReport,
    MixedGraph,
    Walk,
    ancestors,
    anteriors,
    arc,
    arrow,
    classify,
    connecting_walk_oracle,
    graph_to_text,
    induced_model,
    line,
    markov_equivalent,
    model_skeleton,
    parse_graph_text,
    separates,
    skeleton,
    walk_is_connecting,
)
from .limits import Caps, DEFAULT_CAPS
from .models import (
    CheckReport,
    IndependenceModel,
    check_composition,
    check_dag_ordered_stabilities,
    check_downward_stability,
    check_intersection,
    check_ordered_downward_stability,
    check_ordered_upward_stability,
    check_semi_graphoid,
    check_singleton_transitivity,
    check_upward_stability,
    marginalize_and_condition,
    model_to_text,
    parse_model_text,
    skeleton_pairs,
)
from .preorders import (
    Preorder,
    QuotientOrder,
    direct_skeleton,
    enumerate_compatible_preorders,
    is_compatible,
    is_valid_for,
    minimal_preorder,
    parse_preorder_text,
    preorder_to_text,
    quotient,
)
