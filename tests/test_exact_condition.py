"""The exact per-agent step condition ``2 max_i tau_i L_i + rho < 1``.

``rho = max_b lambda_max(C^{1/2} (I - W_b) C^{1/2}) / 2`` with ``C = diag(tau_i / max tau)``
(:func:`~saddlenet.inclusion._rho`) is the coupling term of pdtr's condition on the product
space with the diagonal step ``T = diag(tau_i)`` and ``sigma = 1 / max tau`` (Pock & Chambolle
2011).  Since ``C <= I`` it is at most the closed form ``(1 - lambda_min) / 2``, which it is
bitwise at equal steps.
"""

import numpy as np
import pytest

from saddlenet import inclusion
from saddlenet.cli import _execute, _Setup, main
from saddlenet.config import parse_config
from saddlenet.graphs import (
    BlockMixing,
    lazy_metropolis_mixing,
    metropolis_mixing,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)
from saddlenet.inclusion import _agent_gates, _rho, inclusion_init
from saddlenet.instances import random_inclusion_agents
from saddlenet.primal_dual import StepSizes, metric_lipschitz_ratio

CONFIG = """
[problem]
n = {n}
p = {p}
d = {d}
prox_f = l1
prox_f_weight = 0.3
coupling = {coupling}
seed = {seed}

[graph]
topology = {topology}
seed = {seed}
density = 0.5

[mixing]
scheme = {scheme}

[algorithm]
name = alg2
"""

# the README's alg2 example
README = """
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
name = alg2, pdtr

[run]
max_iters = 100000
tol = 1e-10
"""


def random_setups(count, seed):
    rng = np.random.default_rng(seed)
    for k in range(count):
        d = int(rng.integers(0, 3))
        yield _Setup(parse_config(CONFIG.format(
            n=int(rng.integers(3, 7)), p=int(rng.integers(1, 3)), d=d, seed=k,
            coupling=("quadratic", "bilinear")[k % 2] if d else "quadratic",
            topology=("ring", "random", "path")[k % 3], scheme=("lazy_metropolis", "metropolis")[k % 2])))


def test_the_metric_lipschitz_ratio_at_the_auto_steps_is_below_its_exact_bound():
    # pdtr's forward map in the metric M = [[T^-1, -K'], [-K, I / sigma]] is Lipschitz with at most
    # max tau_i L_i / (1 - rho), which the auto steps hold below safety / 2 < 1 / 2
    for setup in random_setups(12, seed=40):
        tau = np.array(setup.agent_tau)
        h = setup.z0.shape[1]
        bound = max((tau * np.array(setup.lip)).tolist()) / (1.0 - setup.rho)
        assert bound < 0.5
        ratio = metric_lipschitz_ratio(setup.product_space, StepSizes(np.repeat(tau, h), 1.0 / tau.max()),
                                       samples=2000, seed=1)
        assert 0.0 < ratio <= bound * (1.0 + 1e-9)


def test_every_step_the_closed_form_gates_admit_the_exact_check_admits():
    rng = np.random.default_rng(41)
    for k in range(40):
        n, h = int(rng.integers(3, 9)), int(rng.integers(1, 4))
        graph = (path_graph, ring_graph, star_graph)[k % 3](n)
        mixing = (metropolis_mixing, lazy_metropolis_mixing)[k % 2](graph)
        agents = random_inclusion_agents(n, h, seed=k)
        closed = np.array(_agent_gates(agents, mixing))
        tau = rng.uniform(0.01, 1.0, n) * closed
        if k % 4 == 0:  # every agent just below its closed-form gate
            tau = np.nextafter(closed, 0.0)
        rho = _rho(mixing, tau / tau.max(), h)
        assert rho <= (1.0 - mixing.lambda_min) / 2.0
        assert (np.array(_agent_gates(agents, mixing, rho=rho)) >= closed).all()
        assert np.isfinite(inclusion_init(agents, mixing, rng.standard_normal((n, h)), tau).x).all()


@pytest.mark.parametrize("mixing", [
    metropolis_mixing(ring_graph(6)),
    lazy_metropolis_mixing(random_connected_graph(7, 0.4, seed=2)),
    BlockMixing(metropolis_mixing(path_graph(5)), lazy_metropolis_mixing(ring_graph(5)), split=2),
], ids=["metropolis", "lazy-random", "two-blocks"])
def test_at_equal_steps_rho_is_bitwise_the_closed_form(mixing):
    closed = (1.0 - mixing.lambda_min) / 2.0
    assert _rho(mixing, np.ones(mixing.n), 3) == closed
    tau = np.full(mixing.n, 0.123)
    assert _rho(mixing, tau / tau.max(), 3) == closed
    # and the gates at it are bitwise the closed-form gates (1 + lambda_min) / (4 L_i)
    agents = random_inclusion_agents(mixing.n, 3, seed=3)
    assert _agent_gates(agents, mixing, rho=closed) == [(1.0 + mixing.lambda_min) / (4.0 * a.lipschitz)
                                                        for a in agents]


def test_unequal_steps_take_one_eigensolve_per_distinct_block(monkeypatch):
    one, other = metropolis_mixing(ring_graph(5)), lazy_metropolis_mixing(path_graph(5))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    c = np.linspace(0.5, 1.0, 5)
    exact = _rho(one, c, 4)
    assert calls == [(5, 5)]
    assert _rho(BlockMixing(one, one, split=2), c, 4) == exact and len(calls) == 2
    assert _rho(BlockMixing(one, other, split=2), c, 4) >= exact
    assert len(calls) == 4
    assert exact < (1.0 - one.lambda_min) / 2.0


def test_the_summary_reports_the_rho_the_run_was_checked_at(monkeypatch):
    # the rule takes rho at the ratios L~_min / L~_i, the check at tau / max tau; they differ by
    # rounding, and the summary's rho and gates are the check's
    checked = []
    gates = inclusion._agent_gates
    monkeypatch.setattr(inclusion, "_agent_gates",
                        lambda agents, mixing, reflect=True, rho=None:
                        checked.append(rho) or gates(agents, mixing, reflect, rho))
    setup = _Setup(parse_config(README), ("alg2",))
    assert len(set(setup.agent_tau)) > 1
    assert _execute("alg2", setup).info["rho"] == setup.rho
    assert checked == [setup.rho]
    tau = np.array(setup.agent_tau)
    assert setup.rho == _rho(setup.block_mixing, tau / tau.max(), setup.z0.shape[1])


def test_compare_of_alg2_and_pdtr_converges_on_the_readme_config(tmp_path):
    # pdtr takes the one-tau step at max L_i, not the least per-agent step, which breaks its
    # condition 2 tau L + tau sigma ||K||^2 < 1
    path = tmp_path / "exp.ini"
    path.write_text(README, encoding="utf-8")
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
    assert "NOT CONVERGED" not in summary
    setup = _Setup(parse_config(README))
    assert setup.tau < min(setup.agent_tau)
    lip, k_norm = setup.product_space.lipschitz, setup.product_space.k_norm
    assert 2.0 * setup.tau * lip + setup.tau * setup.sigma * k_norm**2 < 1.0
