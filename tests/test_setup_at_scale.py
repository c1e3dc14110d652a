"""The set-up's linear algebra at a thousand agents: the certified Metropolis
matrix, its smallest eigenvalue and every agent's Lipschitz constant are
exact (no timing is asserted here)."""

import numpy as np

from saddlenet.graphs import _metropolis_weights, metropolis_mixing, random_connected_graph
from saddlenet.instances import random_inclusion_agents


def test_mixing_and_lipschitz_constants_are_exact_at_a_thousand_agents():
    g = random_connected_graph(1000, 0.01, 11)
    mixing = metropolis_mixing(g)
    assert np.array_equal(mixing.w, _metropolis_weights(g))
    assert abs(mixing.lambda_min - float(np.linalg.eigvalsh(mixing.w)[0])) <= 1e-12

    agents = random_inclusion_agents(1000, 8, 11)
    for agent in agents:
        m = agent.forward.jacobian
        assert agent.forward.lipschitz == float(np.linalg.svd(m, compute_uv=False)[0])
