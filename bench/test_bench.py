"""Tests of the benchmark's own checks, tracing and workloads.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from saddlenet.graphs import metropolis_mixing, random_connected_graph  # noqa: E402
from saddlenet.inclusion import (  # noqa: E402
    AgentInclusion,
    inclusion_run,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents  # noqa: E402
from saddlenet.trace import StoppingRule  # noqa: E402

from tracer import Tracer, TracedForward, TracedMixing, TracedProx  # noqa: E402
from workloads import (  # noqa: E402
    AUDIT_CAP,
    Random500Inclusion,
    Random50MinMaxAudit,
    Ring5MinMax,
    inclusion_failures,
    setup_failures,
)


def test_infeasible_boxes_converge_but_count_as_failed():
    # The default prox pool's random boxes have an empty intersection here.
    # inclusion_run stops on its residual, yet the agents never agree.
    g = random_connected_graph(200, 0.05, seed=11)
    mixing = metropolis_mixing(g)
    agents = random_inclusion_agents(200, 8, seed=11)
    tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
    state, trace = inclusion_run(agents, mixing, np.zeros((200, 8)), tau,
                                 StoppingRule(tol=1e-8, max_iters=100_000))
    assert trace.converged and trace.iterations == 953
    failures = inclusion_failures(state.x, trace)
    assert len(failures) == 1 and failures[0].startswith("consensus gap")


def test_traced_minmax_solve_is_bitwise_and_charged_per_span():
    wl = Ring5MinMax()
    tracer = Tracer()
    setup = replace(wl.setup(wl.inputs(0), tracer), stop=StoppingRule(tol=1e-10, max_iters=300))
    plain = wl.solve(setup, tracer)
    with tracer.span("traced"):
        traced = wl.solve(wl.traced(setup, tracer), tracer)
    assert traced.iterations == plain.iterations == 300
    assert np.array_equal(traced.point, plain.point)
    assert plain.span.calls == {}
    span = traced.span
    assert span.parent is not None and tracer.spans[span.parent].name == "traced"
    # the bootstrap proxes once and takes gradients at x0 and x1 without mixing;
    # each of the 299 rounds applies the shared matrix twice per block
    assert span.busy("mix")[0] == 4 * 299
    assert span.busy("prox")[0] == 2 * 5 * 300
    assert span.busy("forward")[0] == 2 * 5 * 301
    assert 0.0 < span.self_time() < span.duration


def test_traced_inclusion_solve_is_bitwise():
    agents = random_inclusion_agents(20, 4, seed=5, pool=("zero", "quadratic"))
    mixing = metropolis_mixing(random_connected_graph(20, 0.2, seed=5))
    tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 4))
    stop = StoppingRule(tol=1e-8, max_iters=5000)
    plain, plain_trace = inclusion_run(agents, mixing, x0, tau, stop)
    tracer = Tracer()
    traced_agents = [AgentInclusion(TracedProx(a.resolvent, tracer), TracedForward(a.forward, tracer))
                     for a in agents]
    with tracer.span("solve") as span:
        traced, traced_trace = inclusion_run(traced_agents, TracedMixing(mixing, tracer), x0, tau, stop)
    assert traced_trace.iterations == plain_trace.iterations
    assert np.array_equal(traced.x, plain.x)
    assert span.busy("prox")[0] == 20 * traced_trace.iterations
    assert span.busy("prox.quadratic")[0] + span.busy("prox.zero")[0] == span.busy("prox")[0]


def _check_workload(wl, seed):
    tracer = Tracer()
    setup = wl.setup(wl.inputs(seed), tracer)
    assert setup_failures(setup) == []
    reference = None
    if wl.has_reference:
        reference, ref_trace = wl.reference(setup, tracer)
        assert ref_trace.converged
    solve = wl.solve(setup, tracer)
    assert wl.failures(setup, solve, reference) == []
    if wl.audits:
        audit = wl.audit(setup, min(solve.iterations, AUDIT_CAP), tracer)
        assert wl.audit_failures(setup, audit) == []
    return setup


@pytest.mark.parametrize("workload", [Ring5MinMax(instance_seed=7), Random500Inclusion(instance_seed=12),
                                      Random50MinMaxAudit(instance_seed=8)],
                         ids=lambda wl: wl.name)
def test_output_checks_pass_on_an_instance_seed_not_used_for_sizing(workload):
    _check_workload(workload, seed=2)


def test_audit_workload_sends_438_messages_per_round_at_seed_7():
    wl = Random50MinMaxAudit()
    setup = wl.setup(wl.inputs(0), Tracer())
    assert wl.messages_per_round(setup) == 2 * 169 + 2 * 50 == 438


def test_run_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ring5-minmax", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
