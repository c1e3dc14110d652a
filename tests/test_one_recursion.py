"""One reflected recursion behind every decentralized solver and harness program.

Min-max runs as a view of the stacked inclusion, PG-EXTRA is its unreflected
case, and one agent-local program serves the inclusion, PG-EXTRA and min-max
audits over the block layout of their mixing.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from saddlenet.cli import main
from saddlenet.graphs import metropolis_mixing, path_graph, random_connected_graph, ring_graph, star_graph
from saddlenet.harness import InclusionProgram, MinMaxProgram, run_synchronous
from saddlenet.inclusion import StackedIterate, pg_extra_init, pg_extra_step
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import (
    AgentSaddleProblem,
    BlockMixing,
    minmax_init,
    minmax_run,
    minmax_step,
    stack_agents,
    stack_state,
    stacked_block_mixing,
    stepsize_bound_pair,
)
from saddlenet.operators import linear_forward, quadratic_coupling, zero_prox
from saddlenet.primal_dual import PrimalDualProblem, StepSizes, condat_vu_run
from saddlenet.trace import StoppingRule

MINMAX = """
[problem]
n = {n}
p = 1
d = 1
coupling = quadratic
seed = 0

[graph]
topology = ring
{extra_graph}

[algorithm]
name = {name}

[run]
max_iters = 20000
tol = 1e-10
"""

MINIMIZATION = """
[problem]
n = 3
p = 2
d = 0
prox_f = l1
prox_f_weight = 0.05
coupling = quadratic
seed = 1

[graph]
topology = ring

[algorithm]
name = pg_extra

[run]
max_iters = 50000
tol = 1e-10
"""


def run_audit(tmp_path, text):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out), "--audit"])
    rows = [line.split(",") for line in (out / "audit.csv").read_text().splitlines()[1:]]
    return code, (out / "summary.txt").read_text(), rows


def summary_value(summary, key):
    return summary.split(f"{key} = ")[1].splitlines()[0]


# ---------------------------------------------------------------------------
# CLI audits
# ---------------------------------------------------------------------------

def test_alg1_audit_runs_on_distinct_x_and_y_graphs(tmp_path):
    text = MINMAX.format(n=4, extra_graph="topology_y = path", name="alg1")
    code, summary, rows = run_audit(tmp_path, text)
    assert code == 0
    assert "0 illegal reads" in summary
    per_round = 2 * len(ring_graph(4).edges) + 2 * len(path_graph(4).edges)
    assert rows and all(int(messages) == per_round for _, messages, _, _ in rows)
    assert all(illegal == "0" for _, _, _, illegal in rows)


@pytest.mark.parametrize("text", [
    MINMAX.format(n=3, extra_graph="", name="alg1"),
    MINMAX.format(n=3, extra_graph="", name="alg2"),
    MINMAX.format(n=4, extra_graph="topology_y = path", name="alg1"),
    MINMAX.format(n=4, extra_graph="topology_y = path", name="alg2"),
    MINIMIZATION,
], ids=["alg1", "alg2", "alg1-two-graphs", "alg2-two-graphs", "pg_extra"])
def test_summary_messages_per_round_is_the_audited_count(tmp_path, text):
    code, summary, rows = run_audit(tmp_path, text)
    assert code == 0
    counted = {int(messages) for _, messages, _, _ in rows}
    assert counted == {int(summary_value(summary, "messages per round"))}


@pytest.mark.parametrize("name", ["pdtr", "condat_vu"])
def test_product_space_runs_converge_on_the_minimization_config(tmp_path, name):
    # K = sqrt((I - W)/2) must annihilate consensus rows to roundoff, or the
    # dual drifts by sigma K x* every step and the run spends its budget
    cfg = tmp_path / "exp.ini"
    cfg.write_text(MINIMIZATION.replace("name = pg_extra", f"name = {name}"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "stopped on = converged" in summary
    assert int(summary_value(summary, "iterations")) < 1000


# ---------------------------------------------------------------------------
# one agent-local program
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("graphs", [
    (ring_graph(6), path_graph(6)),
    (random_connected_graph(6, density=0.5, seed=3), star_graph(6)),
])
def test_minmax_program_is_the_stacked_inclusion_program(graphs):
    n, p, d = 6, 2, 3
    problems = random_saddle_problems(n, p, d, seed=4, prox_min_params={"weight": 0.1},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    mixing = BlockMixing(*(metropolis_mixing(g) for g in graphs))
    tau = 0.5 * stepsize_bound_pair(mixing, max(prob.lipschitz for prob in problems))
    rng = np.random.default_rng(4)
    x0, y0 = rng.standard_normal((n, p)), rng.standard_normal((n, d))

    mm, mm_audits = run_synchronous(MinMaxProgram(problems, mixing, x0, y0, tau), 30)
    inc, inc_audits = run_synchronous(
        InclusionProgram(stack_agents(problems), stacked_block_mixing(mixing, problems),
                         np.concatenate([x0, y0], axis=1), tau), 30)
    for a, b in zip(mm, inc):
        assert a.keys() == b.keys()
        for key in a:
            assert_array_equal(a[key], b[key])
    assert [a.messages_by_block for a in mm_audits] == [a.messages_by_block for a in inc_audits]


# ---------------------------------------------------------------------------
# min-max as a view, PG-EXTRA as the unreflected case
# ---------------------------------------------------------------------------

def test_minmax_steps_on_one_problem_list_reuse_the_kernels():
    n, p, d = 5, 2, 2
    problems = random_saddle_problems(n, p, d, seed=5)
    mixing = BlockMixing(metropolis_mixing(ring_graph(n)), metropolis_mixing(path_graph(n)))
    tau = 0.5 * stepsize_bound_pair(mixing, max(prob.lipschitz for prob in problems))
    state = minmax_init(problems, mixing, np.zeros((n, p)), np.ones((n, d)), tau)
    kernels = stack_state(state).kernels
    for _ in range(3):
        state = minmax_step(problems, mixing, state, tau)
        assert stack_state(state).kernels is kernels
    # another list of the same problems builds its own
    state = minmax_step(list(problems), mixing, state, tau)
    assert stack_state(state).kernels is not kernels


def test_pg_extra_state_is_a_stacked_iterate():
    agents = random_inclusion_agents(4, 2, seed=6)
    mixing = metropolis_mixing(ring_graph(4))
    tau = 0.5 * (1.0 + mixing.lambda_min) / max(a.lipschitz for a in agents)
    state = pg_extra_init(agents, mixing, np.ones((4, 2)), tau)
    assert isinstance(state, StackedIterate)
    # the plain gradient difference: e is g - b, without the reflection's b_prev
    assert_array_equal(state.e, state.g - state.b)
    state = pg_extra_step(agents, mixing, state, tau)
    assert isinstance(state, StackedIterate)
    assert_array_equal(state.e, state.g - state.b)


# ---------------------------------------------------------------------------
# divergence is a verdict, not a stream of warnings
# ---------------------------------------------------------------------------

def test_diverging_minmax_run_warns_nothing():
    # a coupling with declared L = 0.01 but true curvature 1000 diverges
    coupling = dataclasses.replace(
        quadratic_coupling(1000.0 * np.eye(1), np.ones((1, 1)), np.eye(1)), lipschitz=0.01)
    problems = [AgentSaddleProblem(zero_prox(), zero_prox(), coupling) for _ in range(3)]
    w = metropolis_mixing(ring_graph(3))
    mixing = BlockMixing(w, w)
    tau = 0.9 * stepsize_bound_pair(mixing, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, _, trace = minmax_run(problems, mixing, np.ones((3, 1)), np.ones((3, 1)), tau,
                                 stop=StoppingRule(tol=1e-10, max_iters=100_000))
    assert trace.status == "diverged"


def test_diverging_condat_vu_run_warns_nothing():
    # skew forward term with a step far beyond any cocoercive bound
    problem = PrimalDualProblem(
        resolvent=zero_prox(),
        forward=linear_forward(np.array([[0.0, 1000.0], [-1000.0, 0.0]]), lipschitz=1000.0),
        dual_resolvent=zero_prox(),
        k=np.zeros((1, 2)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, trace = condat_vu_run(problem, (np.ones(2), np.zeros(1)), StepSizes(1.0, 1.0),
                                 stop=StoppingRule(tol=1e-10, max_iters=100_000))
    assert trace.status == "diverged"
    assert trace.iterations < 1000
