"""The lazy Metropolis mixing, the config default: the least lazy shift
``(1 - c) I + c W`` of the Metropolis weights that is positive semidefinite.
It certifies, keeps the graph support, and every equivalence of
``test_acceptance.py`` that runs on a mixing holds on it at the same
tolerance.  Run through the CLI, it takes fewer rounds than Metropolis."""

import ast

import numpy as np
import pytest

from saddlenet import graphs
from saddlenet.cli import main
from saddlenet.config import _SCHEMES, MixingConfig
from saddlenet.graphs import (
    certify_mixing,
    complete_graph,
    lazy_metropolis_mixing,
    metropolis_mixing,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)
from saddlenet.harness import InclusionProgram, MinMaxProgram, run_synchronous
from saddlenet.inclusion import (
    inclusion_init,
    inclusion_step,
    product_space_reference,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import BlockMixing, minmax_init, minmax_step, stepsize_bound_pair


def graph_corpus():
    """The acceptance corpus (paths, rings, stars, random graphs) and complete graphs."""
    graphs = [path_graph(n) for n in range(2, 21)]
    graphs += [ring_graph(n) for n in range(3, 21)]
    graphs += [star_graph(n) for n in range(3, 21)]
    graphs += [random_connected_graph(n, density=0.4, seed=n) for n in range(5, 21, 3)]
    graphs += [complete_graph(n) for n in range(2, 9)]
    return graphs


CORPUS = graph_corpus()


def graph_id(g):
    return f"n{g.n}-e{len(g.edge_array)}"


@pytest.mark.parametrize("g", CORPUS, ids=graph_id)
def test_lazy_mixing_certifies_with_lambda_min_zero_or_is_metropolis(g):
    base, lazy = metropolis_mixing(g), lazy_metropolis_mixing(g)
    assert certify_mixing(lazy.w, g).passed
    if base.lambda_min < 0:
        assert abs(lazy.lambda_min) <= 1e-12
    else:
        assert lazy.w.tobytes() == base.w.tobytes()
        assert lazy.lambda_min == base.lambda_min


@pytest.mark.parametrize("g", CORPUS, ids=graph_id)
def test_lazy_mixing_keeps_the_graph_support(g):
    base, lazy = metropolis_mixing(g), lazy_metropolis_mixing(g)
    assert lazy.graph == g
    assert np.array_equal(lazy.w != 0, base.w != 0)


def test_the_3_ring_and_complete_graphs_keep_their_metropolis_weights():
    # their lambda_min is 0, computed within rounding of it on either side
    for g in (ring_graph(3), complete_graph(4), complete_graph(7), star_graph(9)):
        assert abs(metropolis_mixing(g).lambda_min) <= 1e-15
        assert lazy_metropolis_mixing(g).w.tobytes() == metropolis_mixing(g).w.tobytes()


def test_a_round_sends_the_same_messages_on_both_matrices():
    problems = random_saddle_problems(6, 2, 2, seed=4, prox_min_params={"weight": 0.1})
    rng = np.random.default_rng(4)
    x0, y0 = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    counts = []
    for build in (metropolis_mixing, lazy_metropolis_mixing):
        mixing = BlockMixing(build(ring_graph(6)), build(star_graph(6)))
        tau = 0.5 * stepsize_bound_pair(mixing, max(pr.lipschitz for pr in problems))
        _, audits = run_synchronous(MinMaxProgram(problems, mixing, x0, y0, tau), 5, audit=True)
        assert all(a.illegal_attempts == 0 for a in audits)
        counts.append([a.messages_by_block for a in audits])
    assert counts[0] == counts[1]


def test_at_n_500_the_lazy_matrix_keeps_the_gather_and_reads_back_bitwise():
    g = random_connected_graph(500, 0.02, seed=11)
    lazy = lazy_metropolis_mixing(g)
    assert lazy.product == "gather"
    assert lazy.lambda_min > -1e-12
    assert lazy.w.tobytes() == graphs._SCHEMES["lazy_metropolis"](g, None, 1e-9)[0].tobytes()


def test_the_network_recursion_matches_the_product_space_oracle():
    rng = np.random.default_rng(2025)
    for seed in range(12):
        n = int(rng.integers(3, 11))
        h = int(rng.integers(1, 6))
        g = (path_graph, ring_graph, star_graph, lambda k: random_connected_graph(k, 0.4, seed))[seed % 4](n)
        mixing = lazy_metropolis_mixing(g)
        agents = random_inclusion_agents(n, h, seed=seed)
        tau = float(rng.uniform(0.2, 0.9)) * stepsize_bound(mixing, uniform_lipschitz(agents))
        x0 = rng.standard_normal((n, h))

        ref = product_space_reference(agents, mixing, x0, tau, 200)
        state = inclusion_init(agents, mixing, x0, tau)
        assert np.max(np.abs(state.x - ref[0])) <= 1e-10
        for k in range(1, 200):
            state = inclusion_step(agents, mixing, state, tau)
            assert np.max(np.abs(state.x - ref[k])) <= 1e-10


def test_inclusion_program_matches_the_stacked_rows():
    n, h, rounds = 7, 3, 12
    agents = random_inclusion_agents(n, h, seed=5)
    mixing = lazy_metropolis_mixing(ring_graph(n))
    tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(5).standard_normal((n, h))
    states, _ = run_synchronous(InclusionProgram(agents, mixing, x0, tau), rounds)
    stacked = inclusion_init(agents, mixing, x0, tau)
    for _ in range(rounds - 1):
        stacked = inclusion_step(agents, mixing, stacked, tau)
    assert np.max(np.abs(np.array([s["x"] for s in states]) - stacked.x)) <= 1e-12


def test_minmax_program_matches_the_stacked_rows():
    n, p, d, rounds = 6, 2, 3, 10
    problems = random_saddle_problems(n, p, d, seed=6, prox_min_params={"weight": 0.1})
    mixing = BlockMixing(lazy_metropolis_mixing(ring_graph(n)),
                         lazy_metropolis_mixing(random_connected_graph(n, 0.4, seed=6)))
    tau = 0.9 * stepsize_bound_pair(mixing, max(pr.lipschitz for pr in problems))
    rng = np.random.default_rng(6)
    x0, y0 = rng.standard_normal((n, p)), rng.standard_normal((n, d))
    states, _ = run_synchronous(MinMaxProgram(problems, mixing, x0, y0, tau), rounds)
    stacked = minmax_init(problems, mixing, x0, y0, tau)
    for _ in range(rounds - 1):
        stacked = minmax_step(problems, mixing, stacked, tau)
    assert np.max(np.abs(np.array([s["x"] for s in states]) - stacked.x)) <= 1e-12
    assert np.max(np.abs(np.array([s["y"] for s in states]) - stacked.y)) <= 1e-12


README_ALG2 = """
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

[graph]
topology = ring

[algorithm]
name = alg2

[run]
max_iters = 100000
tol = 1e-10
"""


def run_summary(tmp_path, text, name):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    return dict(line.split(" = ", 1) for line in (tmp_path / name / "summary.txt").read_text().splitlines()
                if " = " in line)


def test_the_default_scheme_is_lazy_metropolis():
    assert MixingConfig().scheme == "lazy_metropolis"


def test_the_readme_config_converges_in_fewer_rounds_than_with_metropolis(tmp_path):
    lazy = run_summary(tmp_path, README_ALG2, "lazy")
    explicit = README_ALG2.replace("[algorithm]", "[mixing]\nscheme = metropolis\n\n[algorithm]")
    metro = run_summary(tmp_path, explicit, "metro")
    assert int(lazy["iterations"]) < int(metro["iterations"])
    assert lazy["messages per round"] == metro["messages per round"] == "20"
    # every agent's step is larger (each at 0.99 of its own gate)
    assert all(a > b for a, b in zip(ast.literal_eval(lazy["tau"]), ast.literal_eval(metro["tau"]),
                                     strict=True))
    # the summary shows each block's lambda_min
    ring = ring_graph(5)
    assert metro["lambda_min(W)"] == f"x: {metropolis_mixing(ring).lambda_min!r}, " \
                                     f"y: {metropolis_mixing(ring).lambda_min!r}"
    assert lazy["lambda_min(W)"] == f"x: {lazy_metropolis_mixing(ring).lambda_min!r}, " \
                                    f"y: {lazy_metropolis_mixing(ring).lambda_min!r}"


def test_check_mixing_certifies_every_config_scheme(tmp_path, capsys):
    edges = tmp_path / "ring.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
    for scheme in _SCHEMES:
        assert main(["check-mixing", str(edges), "--scheme", scheme, "--alpha", "4.0"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
    lazy = lazy_metropolis_mixing(ring_graph(5))
    assert main(["check-mixing", str(edges), "--scheme", "lazy_metropolis"]) == 0
    assert f"lambda_min = {lazy.lambda_min!r}" in capsys.readouterr().out
