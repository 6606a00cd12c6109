"""Distance-uniform graph toolkit.

Builds generalized Tower-of-Hanoi state graphs with exponentially large
critical distance, solves the underlying game constructively, analyzes
arbitrary graphs for distance uniformity, and re-derives every structural
bound at desk scale.

No dug module calls a BLAS routine, so when ``import dug`` is the first to
load numpy, OpenBLAS starts with one thread and no worker pool.  A caller
keeps a multi-threaded BLAS by importing numpy first or by setting
``OPENBLAS_NUM_THREADS`` (or ``GOTO_NUM_THREADS``, ``OMP_NUM_THREADS``).
"""

import os
import sys

# OpenBLAS reads its thread count once, when numpy first loads it.  The
# variable is set only around that import, so os.environ, and with it every
# child process, ends as the caller left it.
if "numpy" not in sys.modules and not any(
        name in os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
