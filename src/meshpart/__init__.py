"""Goal-oriented automatic SPMD partitioner over named device meshes.

Build or load a tensor program, declare a mesh, pick a goal schedule, and
search for a partitioning plan whose simulated runtime, peak per-device
memory, and collective pattern beat the unsharded baseline.  See the
README for the workflow; the public surface is re-exported here.
"""

from .controller import (
    BUILTIN_SCHEDULES,
    Goal,
    GoalOutcome,
    Schedule,
    ScheduleOutcome,
    builtin_schedule,
    parse_schedule,
    resolve_budgets,
    run_schedule,
)
from .costmodel import (
    ALL_GATHER,
    ALL_REDUCE,
    MEMORY,
    OBJECTIVES,
    PENALIZED_RUNTIME,
    REDUCE_SCATTER,
    RUNTIME,
    AxisLink,
    Collective,
    CostEstimate,
    CostModelConfig,
    collective_time,
    config_from_json,
    config_to_json,
    default_config,
    estimate,
    load_config_file,
    lower,
    metric_value,
)
from .engine import (
    Action,
    Fingerprint,
    ModuleState,
    StateCache,
    apply_action,
    initial_state,
    legal_actions,
    replay_plan,
)
from .errors import (
    ConfigError,
    GraphValidationError,
    IllegalActionError,
    MeshPartError,
    OracleSizeError,
    PlanReplayError,
    ShapeError,
)
from .ir import (
    Argument,
    Constant,
    DimSharding,
    DotGeneral,
    Elementwise,
    EquiShardGroup,
    Graph,
    GraphBuilder,
    Mesh,
    MeshAxis,
    Operation,
    Reduce,
    Reshape,
    Role,
    Sharding,
    TensorType,
    Transpose,
    Violation,
    check_valid,
    graph_from_json,
    graph_to_json,
    infer_result_type,
    load_graph_file,
    local_shape,
    validate_graph,
    validate_sharding,
)
from .mcts import SearchConfig, SearchResult, reward, run_search, select_child
from .models import (
    GnsLikeConfig,
    MODEL_BUILDERS,
    TransformerConfig,
    UNetLikeConfig,
    build_gns_like,
    build_named_model,
    build_transformer,
    build_unet_like,
    check_mesh_compatibility,
    gns_edge_sharding_plan,
    transformer_expert_plans,
    unet_zero3_plan,
)
from .oracle import count_action_sequences, enumerate_states, exhaustive_best

__version__ = "0.1.0"
