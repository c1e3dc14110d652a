"""forb is the decentralized round of one agent on the one-vertex mixing ``W = [[1]]``.

The classical reflected forward-backward update is written out here and
the public forb functions are held to it, to each other and to
``inclusion_run`` with one agent.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from saddlenet.config import build_problems, parse_config
from saddlenet.graphs import Graph, metropolis_mixing
from saddlenet.inclusion import AgentInclusion, inclusion_run
from saddlenet.minmax import stack_agents, sum_saddle_problem
from saddlenet.operators import ForwardOperator, l1_prox, linear_forward
from saddlenet.primal_dual import ForbState, forb_run, forb_step
from saddlenet.trace import StoppingRule

README_PROBLEM = """
[problem]
n = 5
p = 3
d = 3
prox_f = l1
prox_f_weight = 0.3
prox_g = box_indicator
prox_g_lo = -1.0
prox_g_hi = 1.0
coupling = bilinear
seed = 3
"""


def readme_agent():
    """The summed agent of the README problem and the CLI forb's auto step, ``0.9 / (2 L)``."""
    central = stack_agents([sum_saddle_problem(build_problems(parse_config(README_PROBLEM)))])[0]
    return central.resolvent, central.forward, 0.45 / central.lipschitz


def classical(resolvent, forward, x0, tau, rounds, reflected_first=False):
    """The iterates of ``x+ = J(x - 2 tau B(x) + tau B(x-))`` from ``x- = x0``.

    With ``reflected_first`` the forward difference ``2 tau B(x) - tau B(x-)``
    is formed before it is subtracted from ``x``, in the order the round adds
    it (``e = g - (2 b - b_prev)`` with ``g = 0``).
    """
    x, bx_prev, out = x0, forward(x0), []
    for _ in range(rounds):
        bx = forward(x)
        if reflected_first:
            u = x - (2.0 * tau * bx - tau * bx_prev)
        else:
            u = x - 2.0 * tau * bx + tau * bx_prev
        x, bx_prev = resolvent(tau, u), bx
        out.append(x)
    return out


def step_loop(resolvent, forward, x0, tau, rounds):
    state, out = ForbState.start(forward, x0), []
    for _ in range(rounds):
        state = forb_step(resolvent, forward, state, tau)
        out.append(state.x)
    return out


def test_forb_follows_the_classical_formula_on_the_readme_problem():
    resolvent, forward, tau = readme_agent()
    x0 = np.linspace(-1.0, 1.0, 6)
    for got, want in zip(step_loop(resolvent, forward, x0, tau, 2000),
                         classical(resolvent, forward, x0, tau, 2000), strict=True):
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_forb_is_bitwise_the_formula_on_a_forward_without_jacobian():
    resolvent, forward, tau = readme_agent()
    bare = ForwardOperator(lambda z: forward(z), forward.lipschitz)
    assert bare.jacobian is None
    for x0 in (np.zeros(6), np.linspace(-1.0, 1.0, 6)):
        for got, want in zip(step_loop(resolvent, bare, x0, tau, 300),
                             classical(resolvent, bare, x0, tau, 300, reflected_first=True), strict=True):
            assert_array_equal(got, want)


@pytest.mark.parametrize("jacobian", [True, False])
def test_forb_run_step_loop_and_one_agent_inclusion_run_agree_bitwise(jacobian):
    resolvent, forward, tau = readme_agent()
    if not jacobian:
        forward = ForwardOperator(lambda z, f=forward: f(z), forward.lipschitz)
    x0, stop = np.linspace(-1.0, 1.0, 6), StoppingRule(tol=1e-12, max_iters=5000)
    seen = []
    state, trace = forb_run(resolvent, forward, x0, tau, stop, observe=lambda s: seen.append(s.x) or {})
    assert trace.converged and len(seen) == trace.iterations

    loop = step_loop(resolvent, forward, x0, tau, trace.iterations)
    assert_array_equal(np.array(seen), np.array(loop))
    # the residual is ||x_new - x_old||_F; the sup norm of the step would have stopped the run earlier
    steps = [b - a for a, b in zip([x0] + loop, loop)]
    assert list(trace.column("fp_residual")) == [np.linalg.norm(d) for d in steps]
    assert any(np.abs(d).max() <= stop.tol for d in steps[:-1])

    one = metropolis_mixing(Graph.from_edges(1, []))
    stacked, stacked_trace = inclusion_run([AgentInclusion(resolvent, forward)], one, x0[None], tau, stop)
    assert_array_equal(stacked.x[0], state.x)
    assert stacked_trace.column("fp_residual") == trace.column("fp_residual")


def test_state_and_observers_see_a_1d_x_and_the_trace_keeps_its_columns():
    resolvent, forward, tau = readme_agent()
    shapes = []
    state, trace = forb_run(resolvent, forward, np.zeros(6), tau, StoppingRule(tol=0.0, max_iters=3),
                            observe=lambda s: shapes.append(s.x.shape) or {"distance_to_reference": 0.0})
    assert shapes == [(6,)] * 3 and state.x.shape == (6,)
    assert trace.active_columns() == ["iteration", "fp_residual", "distance_to_reference"]
    assert ForbState.start(forward, np.zeros(6)).x.shape == (6,)
    assert forb_step(resolvent, forward, ForbState.start(forward, np.zeros(6)), tau).x.shape == (6,)


def test_zero_lipschitz_runs_at_tau_one():
    # the gate tau < 1 / (2 L) itself is held in test_primal_dual.py and test_step_gates.py
    flat = linear_forward(np.zeros((2, 2)), lipschitz=0.0)
    state, trace = forb_run(l1_prox(0.5), flat, np.array([2.0, -0.25]), 1.0, StoppingRule(tol=1e-12))
    assert trace.converged
    assert_array_equal(state.x, [0.0, 0.0])


def test_steps_keep_their_kernels_and_their_tau():
    resolvent, forward, tau = readme_agent()
    first = forb_step(resolvent, forward, ForbState.start(forward, np.zeros(6)), tau)
    second = forb_step(resolvent, forward, first, tau)
    assert second.stacked.kernels is first.stacked.kernels
    other = ForwardOperator(lambda z: forward(z), forward.lipschitz)
    assert forb_step(resolvent, other, second, tau).stacked.kernels is not first.stacked.kernels
    with pytest.raises(ValueError, match="tau"):
        forb_step(resolvent, forward, second, 0.5 * tau)
