"""With no y block (d = 0) only the x block is exchanged: the harness, the
CLI's messages per round and the audit agree, and the step gate still takes
the smaller lambda_min of the two mixings."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saddlenet.cli import main
from saddlenet.graphs import metropolis_mixing, path_graph, ring_graph
from saddlenet.harness import MinMaxProgram, run_synchronous
from saddlenet.instances import random_saddle_problems
from saddlenet.minmax import BlockMixing, minmax_init, minmax_step, stepsize_bound_pair
from saddlenet.primal_dual import StepSizeError

MINIMIZATION_ALG2 = """
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
name = alg2

[run]
max_iters = 50000
tol = 1e-10
"""


def minimization_setup(n=4):
    problems = random_saddle_problems(n, 2, 0, seed=5, coupling_kind="quadratic",
                                      prox_min_params={"weight": 0.05})
    # the y graph mixes slower: its lambda_min is the smaller one
    mixing = BlockMixing(metropolis_mixing(path_graph(n)), metropolis_mixing(ring_graph(n)))
    x0 = np.random.default_rng(5).standard_normal((n, 2))
    return problems, mixing, x0, np.zeros((n, 0))


def test_minmax_program_without_y_block_sends_only_x():
    problems, mixing, x0, y0 = minimization_setup()
    tau = 0.5 * stepsize_bound_pair(mixing, max(p.lipschitz for p in problems))
    program = MinMaxProgram(problems, mixing, x0, y0, tau)
    assert set(program.blocks) == {"x"}
    states, audits = run_synchronous(program, 6, audit=True)
    per_round = 2 * len(path_graph(4).edges)
    assert all(a.messages == per_round and a.messages_by_block == {"x": per_round} for a in audits)
    assert all(a.bytes == per_round * 2 * 8 for a in audits)
    dense = minmax_init(problems, mixing, x0, y0, tau)
    for _ in range(5):
        dense = minmax_step(problems, mixing, dense, tau)
    for i, s in enumerate(states):
        assert_allclose(s["x"], dense.x[i], atol=1e-12)


def test_step_gate_without_y_block_keeps_both_mixings():
    problems, mixing, x0, y0 = minimization_setup()
    lip = max(p.lipschitz for p in problems)
    assert mixing.w2.lambda_min < mixing.w1.lambda_min
    tau = (1.0 + mixing.w1.lambda_min) / (4.0 * lip) * 0.999  # admissible for W1 alone
    with pytest.raises(StepSizeError):
        minmax_init(problems, mixing, x0, y0, tau)
    with pytest.raises(StepSizeError):
        MinMaxProgram(problems, mixing, x0, y0, tau)


def test_alg2_summary_and_audit_count_only_the_x_block(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(MINIMIZATION_ALG2, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--audit"]) == 0
    summary = (out / "summary.txt").read_text()
    assert "messages per round = 6\n" in summary
    rows = (out / "audit.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[1:] == ["6", "96", "0"] for row in rows)
