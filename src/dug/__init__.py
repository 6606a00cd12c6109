"""Distance-uniform graph toolkit.

Builds generalized Tower-of-Hanoi state graphs with exponentially large
critical distance, solves the underlying game constructively, analyzes
arbitrary graphs for distance uniformity, and re-derives every structural
bound at desk scale.
"""

from .analyze import (
    BadParams,
    DistanceProfile,
    GrowthRow,
    TooSmall,
    UniformityReport,
    ZeroEpsilon,
    best_uniformity,
    check_min_degree,
    check_neighborhood_growth,
    check_upper_bound,
    distance_profile,
    is_distance_uniform,
    min_ball_sizes,
    radius_sequence,
)
from .graph import (
    BadVertex,
    ExplicitGraph,
    InconsistentHeader,
    ParseError,
    TooSmallTarget,
    bfs_distances,
    blow_up,
    build_explicit,
    diameter,
    distance_histograms,
    iter_distance_rows,
    load_edge_list,
    save_edge_list,
)
from .hanoi import (
    DEFAULT_STATE_CAP,
    INVOLUTE,
    Adjust,
    ConsecutiveEqual,
    HanoiParams,
    IllegalAdjust,
    IllegalInvolute,
    ImproperLeadingZero,
    InvalidState,
    Involute,
    LengthMismatch,
    Move,
    MoveError,
    OutOfAlphabet,
    State,
    TooLarge,
    TooShort,
    apply_move,
    enumerate_states,
    format_state,
    has_disjoint_support,
    involution_segment,
    legal_moves,
    make_state,
    neighbors,
    parse_state,
    state_index,
)
from .planner import OutOfRange, Plan, plan_parameters
from .solver import (
    IllegalMoveAt,
    MovePath,
    format_move,
    format_path,
    parse_move,
    parse_path,
    path_states,
    solve,
    verify_path,
)
from .truncation import (
    EmptyGraph,
    LabeledGraph,
    WrongShape,
    base_simplex,
    iterate_truncation,
    truncate_once,
    verify_isomorphism,
)
from .verification import CheckResult, run_verify_suite

__version__ = "0.1.0"
