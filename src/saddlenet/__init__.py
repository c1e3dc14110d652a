"""Decentralized splitting methods for min-max games and monotone inclusions.

Agents on a communication graph solve a shared convex-concave saddle problem
(or, more generally, a sum-structured monotone inclusion) using only
neighbor exchanges, one resolvent/prox and one forward evaluation per round.
The same reflected primal-dual core also provides the centralized methods it
generalizes, so networked runs can be checked against their explicit
product-space formulations at machine precision.

Layout:

* :mod:`saddlenet.graphs` -- topologies, mixing matrices, certification
* :mod:`saddlenet.operators` -- prox library, forward maps, couplings
* :mod:`saddlenet.primal_dual` -- centralized reflected primal-dual core
* :mod:`saddlenet.inclusion` -- decentralized inclusion iteration, PG-EXTRA
* :mod:`saddlenet.minmax` -- decentralized min-max iteration and reductions
* :mod:`saddlenet.harness` -- simulated message-passing execution, auditing
* :mod:`saddlenet.instances` -- seeded random test instances
* :mod:`saddlenet.config` -- INI experiment configs
* :mod:`saddlenet.cli` -- ``saddlenet`` command-line tool
"""

from .graphs import (
    BlockMixing,
    Graph,
    GraphFormatError,
    MixingCertificate,
    MixingMatrix,
    certify_mixing,
    complete_graph,
    graph_to_edge_list,
    is_connected,
    laplacian,
    metropolis_mixing,
    mixing_blocks,
    mixing_from_laplacian,
    named_topology,
    parse_edge_list,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)
from .operators import (
    ForwardOperator,
    Prox,
    SmoothCoupling,
    affine_forward,
    batched_forward,
    batched_resolvent,
    bilinear_coupling,
    bilinear_couplings,
    box_prox,
    combine_couplings,
    combine_proxes,
    estimate_operator_norm,
    l1_prox,
    linear_forward,
    make_prox,
    operator_norms,
    product_resolvent,
    quadratic_coupling,
    quadratic_couplings,
    quadratic_prox,
    quadratic_proxes,
    saddle_forward,
    zero_point_prox,
    zero_prox,
)
from .primal_dual import (
    ForbState,
    MMetric,
    PdtrState,
    PrimalDualProblem,
    StepSizeError,
    StepSizes,
    balanced_step_sizes,
    condat_vu_run,
    condat_vu_step,
    forb_run,
    forb_step,
    frdr_step,
    m_metric,
    metric_lipschitz_bound,
    metric_lipschitz_ratio,
    pdhg_run,
    pdhg_step,
    pdtr_run,
    pdtr_step,
    primal_resolvent_from_dual,
)
from .inclusion import (
    AgentInclusion,
    StackedIterate,
    consensus_gap,
    inclusion_init,
    inclusion_run,
    inclusion_step,
    pg_extra_init,
    pg_extra_run,
    pg_extra_step,
    product_space_reference,
    stepsize_bound,
    uniform_lipschitz,
)
from .minmax import (
    AgentSaddleProblem,
    MinMaxState,
    minmax_init,
    minmax_run,
    minmax_step,
    product_space_problem,
    saddle_residual,
    stack_agents,
    stacked_block_mixing,
    stepsize_bound_pair,
    sum_saddle_problem,
)
from .harness import (
    InclusionProgram,
    MinMaxProgram,
    NonNeighborReadError,
    PgExtraProgram,
    RoundAudit,
    run_synchronous,
    sequential_equivalence,
)
from .instances import (
    random_inclusion_agents,
    random_monotone_matrix,
    random_saddle_problems,
    seeded_couplings,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from .trace import ConvergenceTrace, StoppingRule, TraceRow

__version__ = "0.1.0"
