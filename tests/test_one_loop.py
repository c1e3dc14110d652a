"""One run loop for every solver, and one decentralized path in the CLI.

Every runner keeps the stopping contract of ``StoppingRule`` through the same
loop, and the CLI runs alg1, alg2 and pg_extra through one call, so the two
saddle algorithms report the same trace columns and honour the same declared
Lipschitz constant.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from saddlenet.cli import main
from saddlenet.graphs import metropolis_mixing, ring_graph
from saddlenet.inclusion import (
    inclusion_init,
    inclusion_run,
    pg_extra_run,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import (
    BlockMixing,
    minmax_run,
    product_space_problem,
    stack_agents,
    stepsize_bound_pair,
    sum_saddle_problem,
)
from saddlenet.primal_dual import StepSizes, condat_vu_run, forb_run, pdhg_run, pdtr_run
from saddlenet.trace import StoppingRule

N, P, D = 4, 2, 2


def rows(seed, n, h):
    return 0.1 * np.random.default_rng(seed).standard_normal((n, h))


def inclusion_case(run):
    agents = random_inclusion_agents(N, 3, seed=1, pool=("zero", "quadratic"))
    mixing = metropolis_mixing(ring_graph(N))
    tau = 0.5 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = rows(2, N, 3)

    def solve(stop):
        state, trace = run(agents, mixing, x0, tau, stop)
        return state.x, trace

    return x0, solve


def minmax_case():
    problems = random_saddle_problems(N, P, D, seed=3)
    w = metropolis_mixing(ring_graph(N))
    mixing = BlockMixing(w, w)
    tau = 0.5 * stepsize_bound_pair(mixing, max(p.lipschitz for p in problems))
    x0, y0 = rows(4, N, P), rows(5, N, D)

    def solve(stop):
        x, y, trace = minmax_run(problems, mixing, x0, y0, tau, stop)
        return np.concatenate([x, y]), trace

    return np.concatenate([x0.mean(axis=0), y0.mean(axis=0)]), solve


def primal_dual_case(run):
    problems = random_saddle_problems(N, P, D, seed=3)
    w = metropolis_mixing(ring_graph(N))
    problem = product_space_problem(problems, BlockMixing(w, w))
    tau = 0.5 * stepsize_bound_pair(BlockMixing(w, w), problem.lipschitz)
    z0, y0 = rows(6, N, P + D).reshape(-1), rows(7, 1, problem.dual_dim)[0]

    def solve(stop):
        state, trace = run(problem, (z0, y0), StepSizes(tau, 1.0 / tau), stop)
        return np.concatenate([state.x, state.y]), trace

    return np.concatenate([z0, y0]), solve


def forb_case():
    central = stack_agents([sum_saddle_problem(random_saddle_problems(N, P, D, seed=3))])[0]
    z0 = rows(8, 1, P + D)[0]

    def solve(stop):
        state, trace = forb_run(central.resolvent, central.forward, z0,
                                0.4 / central.lipschitz, stop)
        return state.x, trace

    return z0, solve


CASES = {
    "inclusion_run": lambda: inclusion_case(inclusion_run),
    "pg_extra_run": lambda: inclusion_case(pg_extra_run),
    "minmax_run": minmax_case,
    "pdtr_run": lambda: primal_dual_case(pdtr_run),
    "pdhg_run": lambda: primal_dual_case(pdhg_run),
    "condat_vu_run": lambda: primal_dual_case(condat_vu_run),
    "forb_run": forb_case,
}


@pytest.mark.parametrize("runner", sorted(CASES))
@pytest.mark.parametrize("stop, status", [(StoppingRule(tol=math.inf), "converged"),
                                          (StoppingRule(tol=1e-10, max_iters=0), "budget")],
                         ids=["tol_inf", "max_iters_0"])
def test_a_run_that_may_not_step_takes_no_round_and_returns_its_start(runner, stop, status):
    start, solve = CASES[runner]()
    end, trace = solve(stop)
    assert trace.rows == [] and trace.iterations == 0
    assert trace.status == status
    assert_array_equal(end, start)


@pytest.mark.parametrize("runner", sorted(CASES))
def test_a_budget_of_one_records_exactly_one_row(runner):
    _, solve = CASES[runner]()
    _, trace = solve(StoppingRule(tol=0.0, max_iters=1))
    assert [r.iteration for r in trace.rows] == [1]
    assert trace.status == "budget"


def test_the_first_decentralized_row_is_the_bootstrap():
    agents = random_inclusion_agents(N, 3, seed=1, pool=("zero", "quadratic"))
    mixing = metropolis_mixing(ring_graph(N))
    tau = 0.5 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = rows(2, N, 3)
    for premix in (False, True):
        state, trace = inclusion_run(agents, mixing, x0, tau, StoppingRule(tol=0.0, max_iters=1),
                                     premix=premix)
        first = inclusion_init(agents, mixing, x0, tau, premix=premix)
        assert_array_equal(state.x, first.x)
        assert trace.rows[0].fp_residual == float(np.linalg.norm(first.x - x0))


# ---------------------------------------------------------------------------
# the CLI: one decentralized path
# ---------------------------------------------------------------------------

SADDLE = """
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
{extra_problem}

[graph]
topology = ring

[algorithm]
name = {name}

[run]
max_iters = {max_iters}
tol = 1e-10
"""


def run_cli(tmp_path, name, extra_problem="", max_iters=300):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(SADDLE.format(name=name, extra_problem=extra_problem, max_iters=max_iters))
    out = tmp_path / name
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    return code, out


def columns(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return {name: [line.split(",")[k] for line in lines[1:]] for k, name in enumerate(header)}


def test_alg1_and_alg2_write_the_same_trace_but_for_messages(tmp_path):
    _, out1 = run_cli(tmp_path, "alg1")
    _, out2 = run_cli(tmp_path, "alg2")
    trace1, trace2 = columns(out1 / "trace.csv"), columns(out2 / "trace.csv")
    assert "consensus_gap_y" in trace1
    assert trace1.keys() == trace2.keys()
    for name in trace1:
        if name != "messages_cum":
            assert trace1[name] == trace2[name], name
    assert (out1 / "solution.csv").read_text() == (out2 / "solution.csv").read_text()

    def gaps(out):
        return [line for line in (out / "summary.txt").read_text().splitlines()
                if line.startswith("final consensus gap")]

    assert len(gaps(out1)) == 2 and gaps(out1) == gaps(out2)


def test_alg2_honours_the_declared_lipschitz_constant(tmp_path, capsys):
    lines = {}
    codes = {}
    for name in ("alg1", "alg2"):
        codes[name], out = run_cli(tmp_path, name, extra_problem="lipschitz = 0.5")
        lines[name] = next(line for line in (out / "summary.txt").read_text().splitlines()
                           if line.startswith("tau = "))
    assert "error" not in capsys.readouterr().err
    assert codes["alg2"] == codes["alg1"] == 3
    assert lines["alg2"] == lines["alg1"]


# ---------------------------------------------------------------------------
# compare.csv keeps every algorithm's final row
# ---------------------------------------------------------------------------

COMPARE = """
[problem]
n = 3
p = 1
d = 1
coupling = quadratic
seed = 0

[graph]
topology = ring

[algorithm]
name = alg2, forb, pdtr

[run]
max_iters = 20000
tol = 1e-6
trace_every = 100
"""


def test_compare_keeps_every_algorithms_final_row(tmp_path):
    cfg = tmp_path / "cmp.ini"
    cfg.write_text(COMPARE)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    table = columns(out / "compare.csv")
    iterations = {}
    for line in (out / "summary.txt").read_text().splitlines()[2:]:
        name, _, count = line.split()[:3]
        iterations[name] = int(count)
    assert len(set(iterations.values())) == 3  # the final rows fall on different lines
    for name, count in iterations.items():
        cells = table[f"fp_residual_{name}"]
        last = max(k for k, cell in enumerate(cells) if cell)
        assert int(table["iteration"][last]) == count
        assert float(cells[last]) <= 1e-6


def test_compare_with_only_empty_traces_writes_the_header(tmp_path):
    cfg = tmp_path / "cmp.ini"
    cfg.write_text(COMPARE.replace("tol = 1e-6", "tol = inf"))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "compare.csv").read_text() == \
        "iteration,fp_residual_alg2,fp_residual_forb,fp_residual_pdtr\n"
