"""Acceptance gate: one test per promised behavior, each pinned to the
tolerance and budget it advertises.  ``pytest -v`` on this file prints one
verdict line per promise.  Numbered prefixes keep the report ordered.
"""

import time

import numpy as np
import pytest

from saddlenet.cli import main
from saddlenet.graphs import (
    certify_mixing,
    laplacian,
    metropolis_mixing,
    mixing_from_laplacian,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)
from saddlenet.harness import InclusionProgram, MinMaxProgram, PgExtraProgram, run_synchronous
from saddlenet.inclusion import (
    inclusion_init,
    inclusion_step,
    product_space_reference,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import (
    BlockMixing,
    minmax_init,
    minmax_run,
    minmax_step,
    stack_agents,
    stack_state,
    stacked_block_mixing,
    stepsize_bound_pair,
    sum_saddle_problem,
)
from saddlenet.operators import (
    box_prox,
    l1_prox,
    linear_forward,
    product_resolvent,
    saddle_forward,
)
from saddlenet.primal_dual import (
    ForbState,
    PdtrState,
    PrimalDualProblem,
    StepSizeError,
    StepSizes,
    balanced_step_sizes,
    forb_run,
    forb_step,
    frdr_step,
    metric_lipschitz_bound,
    metric_lipschitz_ratio,
    pdhg_step,
    pdtr_step,
)
from saddlenet.trace import StoppingRule


def random_monotone_problem(seed, p, q, lip_scale=0.5):
    rng = np.random.default_rng(seed)
    skew = rng.standard_normal((p, p))
    skew = 0.5 * (skew - skew.T)
    sym = rng.standard_normal((p, p))
    sym = 0.1 * (sym @ sym.T)
    b = linear_forward(lip_scale * (skew + sym))
    k = rng.standard_normal((q, p))
    return PrimalDualProblem(
        resolvent=l1_prox(0.1), forward=b, dual_resolvent=box_prox(-1.0, 1.0), k=k
    )


def graph_corpus():
    """Connected graphs on at most 20 vertices: paths, rings, stars, random."""
    graphs = [path_graph(n) for n in range(2, 21)]
    graphs += [ring_graph(n) for n in range(3, 21)]
    graphs += [star_graph(n) for n in range(3, 21)]
    graphs += [random_connected_graph(n, density=0.4, seed=n) for n in range(5, 21, 3)]
    return graphs


# ---------------------------------------------------------------------------
# 1. mixing matrices: constructions certify, rigged candidates fail
# ---------------------------------------------------------------------------

def test_01_mixing_certification_corpus():
    t0 = time.perf_counter()
    graphs = graph_corpus()
    assert len(graphs) >= 50

    for g in graphs:
        lam_max = float(np.linalg.eigvalsh(laplacian(g))[-1])
        for w in (metropolis_mixing(g), mixing_from_laplacian(g, lam_max)):
            cert = certify_mixing(w.w, g, tol=1e-9)
            assert cert.passed, cert.summary()

    # negative controls on a representative graph: the identity keeps every
    # agent fixed (consensus eigenvalue is not simple), and the half-lambda_max
    # Laplacian scaling puts -1 in the spectrum (built raw; the constructor
    # itself refuses it)
    g = ring_graph(6)
    ident = certify_mixing(np.eye(6), g, tol=1e-9)
    assert not ident.passed and not ident.kernel

    lam_max = float(np.linalg.eigvalsh(laplacian(g))[-1])
    w_bad = np.eye(6) - laplacian(g) / (0.5 * lam_max)
    edge = certify_mixing(w_bad, g, tol=1e-9)
    assert not edge.passed and not edge.spectral

    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. the network recursion is the product-space splitting in disguise
# ---------------------------------------------------------------------------

def test_02_network_recursion_matches_product_space_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for seed in range(20):
        n = int(rng.integers(3, 11))
        h = int(rng.integers(1, 6))
        builder = (path_graph, ring_graph, star_graph)[seed % 3]
        g = builder(n)
        mixing = metropolis_mixing(g)
        assert certify_mixing(mixing.w, g).passed

        agents = random_inclusion_agents(n, h, seed=seed)
        tau = float(rng.uniform(0.2, 0.9)) * stepsize_bound(mixing, uniform_lipschitz(agents))
        x0 = rng.standard_normal((n, h))

        ref = product_space_reference(agents, mixing, x0, tau, 200)
        state = inclusion_init(agents, mixing, x0, tau)
        assert np.max(np.abs(state.x - ref[0])) <= 1e-10
        for k in range(1, 200):
            state = inclusion_step(agents, mixing, state, tau)
            assert np.max(np.abs(state.x - ref[k])) <= 1e-10
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 3. the saddle iteration is the inclusion iteration on stacked blocks
# ---------------------------------------------------------------------------

def test_03_saddle_iteration_matches_stacked_inclusion():
    rng = np.random.default_rng(77)
    for seed in range(20):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        problems = random_saddle_problems(n, p, d, seed=seed,
                                          prox_min_params={"weight": 0.2},
                                          prox_max_params={"lo": -1.5, "hi": 1.5})
        w1 = metropolis_mixing(ring_graph(n) if n >= 3 else path_graph(n))
        w2 = metropolis_mixing(random_connected_graph(n, density=0.6, seed=seed))
        mixing = BlockMixing(w1, w2)
        lip = max(pr.lipschitz for pr in problems)
        tau = float(rng.uniform(0.2, 0.8)) * stepsize_bound_pair(mixing, lip)
        x0 = rng.standard_normal((w1.n, p))
        y0 = rng.standard_normal((w1.n, d))

        mm = minmax_init(problems, mixing, x0, y0, tau)
        agents = stack_agents(problems)
        stacked_mix = stacked_block_mixing(mixing, problems)
        inc = inclusion_init(agents, stacked_mix, np.concatenate([x0, y0], axis=1), tau)
        for _ in range(15):
            view = stack_state(mm)
            assert np.max(np.abs(view.x - inc.x)) <= 1e-14
            assert np.max(np.abs(view.u - inc.u)) <= 1e-14
            mm = minmax_step(problems, mixing, mm, tau)
            inc = inclusion_step(agents, stacked_mix, inc, tau)


# ---------------------------------------------------------------------------
# 4. limiting cases collapse onto the classical methods exactly
# ---------------------------------------------------------------------------

def test_04_reductions_recover_classical_methods():
    # no forward term: the twice-reflected update is plain primal-dual
    rng = np.random.default_rng(40)
    problem = PrimalDualProblem(
        resolvent=l1_prox(0.2),
        forward=linear_forward(np.zeros((4, 4)), lipschitz=0.0),
        dual_resolvent=box_prox(-2.0, 2.0),
        k=rng.standard_normal((3, 4)),
    )
    steps = balanced_step_sizes(0.0, problem.k_norm, margin=0.9)
    a = PdtrState.start(problem, rng.standard_normal(4), rng.standard_normal(3))
    b = a
    for _ in range(100):
        a = pdtr_step(problem, a, steps)
        b = pdhg_step(problem, b, steps)
        assert np.max(np.abs(a.x - b.x)) <= 1e-14
        assert np.max(np.abs(a.y - b.y)) <= 1e-14

    # no coupling: primal block is the reflected forward-backward method and
    # the dual block iterates its resolvent on its own
    problem = random_monotone_problem(41, p=4, q=3)
    problem = PrimalDualProblem(
        resolvent=problem.resolvent,
        forward=problem.forward,
        dual_resolvent=problem.dual_resolvent,
        k=np.zeros((3, 4)),
    )
    steps = StepSizes(0.9 / (2.0 * problem.lipschitz), 0.7)
    x0, y0 = rng.standard_normal(4), rng.standard_normal(3)
    a = PdtrState.start(problem, x0, y0)
    f = ForbState.start(problem.forward, x0)
    y = y0
    for _ in range(100):
        a = pdtr_step(problem, a, steps)
        f = forb_step(problem.resolvent, problem.forward, f, steps.tau)
        y = problem.dual_resolvent(steps.sigma, y)
        assert np.max(np.abs(a.x - f.x)) <= 1e-14
        assert np.max(np.abs(a.y - y)) <= 1e-14

    # identity coupling: change of variables gamma = 1/sigma gives the
    # reflected Douglas-Rachford scheme
    n = 3
    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    problem = PrimalDualProblem(
        resolvent=l1_prox(0.3),
        forward=linear_forward(0.4 * skew),
        dual_resolvent=box_prox(-1.0, 1.0),
        k=np.eye(n),
    )
    gamma = 2.0
    tau = 0.9 * gamma / (1.0 + 2.0 * gamma * problem.lipschitz)
    steps = StepSizes(tau, 1.0 / gamma)
    a = PdtrState.start(problem, rng.standard_normal(n), rng.standard_normal(n))
    b = a
    for _ in range(50):
        a = pdtr_step(problem, a, steps)
        b = frdr_step(problem, b, gamma, tau)
        assert np.max(np.abs(a.x - b.x)) <= 1e-12
        assert np.max(np.abs(a.y - b.y)) <= 1e-12


# ---------------------------------------------------------------------------
# 5. the metric Lipschitz constant never exceeds its closed-form bound
# ---------------------------------------------------------------------------

def test_05_sampled_metric_lipschitz_ratio_stays_below_bound():
    margins = (0.6, 0.75, 0.9)
    for seed in range(10):
        problem = random_monotone_problem(seed, p=3 + seed % 3, q=2 + seed % 4,
                                          lip_scale=0.3 + 0.05 * seed)
        steps = balanced_step_sizes(problem.lipschitz, problem.k_norm,
                                    margin=margins[seed % 3])
        ratio = metric_lipschitz_ratio(problem, steps, samples=10_000, seed=seed)
        bound = metric_lipschitz_bound(steps, problem.lipschitz, problem.k_norm)
        assert ratio <= bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# 6. a five-agent ring drives both blocks to the centralized saddle point
# ---------------------------------------------------------------------------

def test_06_ring_network_converges_to_centralized_reference():
    t0 = time.perf_counter()
    n, p, d = 5, 3, 3
    problems = random_saddle_problems(n, p, d, seed=3,
                                      prox_min_params={"weight": 0.3},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    w = metropolis_mixing(ring_graph(n))
    mixing = BlockMixing(w, w)
    lip = max(pr.lipschitz for pr in problems)
    tau = 0.9 * stepsize_bound_pair(mixing, lip)

    # single-machine reference on the summed problem, run to a much tighter
    # residual than the claim being checked
    central = sum_saddle_problem(problems)
    fwd = saddle_forward(central.coupling)
    resolvent = product_resolvent(central.prox_min, central.prox_max, split=p)
    ref_state, ref_trace = forb_run(resolvent, fwd, np.zeros(p + d),
                                    0.45 / fwd.lipschitz,
                                    stop=StoppingRule(tol=1e-12, max_iters=500_000))
    assert ref_trace.converged
    x_ref, y_ref = ref_state.x[:p], ref_state.x[p:]

    _, _, trace = minmax_run(problems, mixing, np.zeros((n, p)), np.zeros((n, d)), tau,
                             stop=StoppingRule(tol=1e-12, max_iters=100_000),
                             reference=(x_ref, y_ref))
    last = trace.rows[-1]
    assert trace.iterations <= 100_000
    assert last.consensus_gap_x <= 1e-8
    assert last.consensus_gap_y <= 1e-8
    assert last.distance_to_reference <= 1e-6
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 7. the step-size interval is open on the right
# ---------------------------------------------------------------------------

def test_07_step_size_gate_is_strict_at_the_bound():
    agents = random_inclusion_agents(4, 3, seed=11)
    mixing = metropolis_mixing(ring_graph(4))
    bound = stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.zeros((4, 3))
    with pytest.raises(StepSizeError):
        inclusion_init(agents, mixing, x0, bound)
    state = inclusion_init(agents, mixing, x0, 0.999 * bound)
    assert state.x.shape == (4, 3)

    problems = random_saddle_problems(4, 2, 2, seed=11,
                                      prox_min_params={"weight": 0.2},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    pair = BlockMixing(mixing, metropolis_mixing(star_graph(4)))
    pair_bound = stepsize_bound_pair(pair, max(pr.lipschitz for pr in problems))
    y0 = np.zeros((4, 2))
    with pytest.raises(StepSizeError):
        minmax_init(problems, pair, np.zeros((4, 2)), y0, pair_bound)
    mm = minmax_init(problems, pair, np.zeros((4, 2)), y0, 0.999 * pair_bound)
    assert mm.x.shape == (4, 2)


# ---------------------------------------------------------------------------
# 8. every algorithm is implementable with neighbor-only messages
# ---------------------------------------------------------------------------

def test_08_message_audit_shows_neighbor_only_traffic():
    rounds = 9

    agents = random_inclusion_agents(5, 3, seed=8)
    ring = metropolis_mixing(ring_graph(5))
    tau = 0.5 * stepsize_bound(ring, uniform_lipschitz(agents))
    x0 = np.random.default_rng(8).standard_normal((5, 3))
    programs = [
        (InclusionProgram(agents, ring, x0, tau), {"x": ring.graph}),
        (PgExtraProgram(agents, ring, x0, tau, premix=True), {"x": ring.graph}),
    ]

    problems = random_saddle_problems(5, 2, 2, seed=8,
                                      prox_min_params={"weight": 0.2},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    star = metropolis_mixing(star_graph(5))
    pair = BlockMixing(ring, star)
    tau2 = 0.5 * stepsize_bound_pair(pair, max(pr.lipschitz for pr in problems))
    rng = np.random.default_rng(8)
    programs.append((
        MinMaxProgram(problems, pair, rng.standard_normal((5, 2)), rng.standard_normal((5, 2)), tau2),
        {"x": ring.graph, "y": star.graph},
    ))

    for program, blocks in programs:
        _, audits = run_synchronous(program, rounds, audit=True)
        assert len(audits) == rounds
        for row in audits:
            assert row.illegal_attempts == 0
            for block, g in blocks.items():
                assert row.messages_by_block[block] == 2 * len(g.edges)
        total = sum(row.messages for row in audits)
        assert total == rounds * sum(2 * len(g.edges) for g in blocks.values())


# ---------------------------------------------------------------------------
# 9. on pure minimization the recursion is PG-EXTRA
# ---------------------------------------------------------------------------

def test_09_pure_minimization_matches_independent_pg_extra():
    # no dual block: each agent carries an l1 prox and a constant drift term,
    # so the reflected and plain gradient differences both vanish and the
    # recursion must reproduce PG-EXTRA step for step
    n, p = 4, 3
    weight = 0.15
    problems = random_saddle_problems(n, p, 0, seed=5,
                                      prox_min_params={"weight": weight},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    agents = stack_agents(problems, lipschitz=1.0)
    mixing = metropolis_mixing(ring_graph(n))
    tau = 0.9 * stepsize_bound(mixing, 1.0)
    x0 = np.random.default_rng(5).standard_normal((n, p))

    # baseline written out here, straight from the textbook recursion
    w = mixing.w

    def soft(v):
        return np.sign(v) * np.maximum(np.abs(v) - tau * weight, 0.0)

    def grads(x):
        return np.vstack([problems[i].coupling.grad_x(x[i], np.zeros(0)) for i in range(n)])

    g_prev = grads(x0)
    u = w @ x0 - tau * g_prev
    x, prev = soft(u), x0
    baseline = [x]
    for _ in range(60):
        g = grads(x)
        u = w @ x + u - 0.5 * (prev + w @ prev) - tau * (g - g_prev)
        prev, x, g_prev = x, soft(u), g
        baseline.append(x)

    state = inclusion_init(agents, mixing, x0, tau, premix=True)
    for k, expected in enumerate(baseline):
        if k:
            state = inclusion_step(agents, mixing, state, tau)
        assert np.max(np.abs(state.x - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# 10. reflected forward handling outlasts the cocoercivity-based variant
# ---------------------------------------------------------------------------

PURE_SKEW = """
[problem]
n = 3
p = 1
d = 1
coupling_m = 1.0
x0 = 1.0
y0 = 1.0

[graph]
topology = ring

[algorithm]
name = pdtr, condat_vu

[run]
max_iters = 3000
tol = 1e-6
"""


def test_10_compare_flags_condat_vu_on_pure_skew_coupling(tmp_path):
    cfg = tmp_path / "skew.ini"
    cfg.write_text(PURE_SKEW, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0

    summary = (out / "summary.txt").read_text()
    assert "shared steps: tau = " in summary
    lines = summary.splitlines()
    pdtr_line = next(line for line in lines if line.startswith("pdtr "))
    cv_line = next(line for line in lines if line.startswith("condat_vu "))
    assert "NOT CONVERGED" not in pdtr_line and "converged" in pdtr_line
    assert "NOT CONVERGED" in cv_line


def test_10_long_budget_reports_condat_vu_divergence_as_a_verdict(tmp_path):
    # with room to run, Condat-Vu overflows on the skew coupling; the run
    # stops on the non-finite residual and compare still exits 0
    cfg = tmp_path / "skew.ini"
    cfg.write_text(PURE_SKEW.replace("max_iters = 3000", "max_iters = 200000"), encoding="utf-8")
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0

    lines = (out / "summary.txt").read_text().splitlines()
    pdtr_line = next(line for line in lines if line.startswith("pdtr "))
    cv_line = next(line for line in lines if line.startswith("condat_vu "))
    assert "NOT CONVERGED" not in pdtr_line and "converged" in pdtr_line
    assert "NOT CONVERGED (diverged)" in cv_line
    assert int(cv_line.split()[2]) < 200000
