import numpy as np
import pytest
from numpy.testing import assert_allclose

from saddlenet.graphs import metropolis_mixing, path_graph, random_connected_graph, ring_graph
from saddlenet.harness import (
    InclusionProgram,
    MinMaxProgram,
    NonNeighborReadError,
    PgExtraProgram,
    _states_equal,
    run_synchronous,
    sequential_equivalence,
)
from saddlenet.inclusion import (
    inclusion_init,
    inclusion_step,
    pg_extra_init,
    pg_extra_step,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import BlockMixing, minmax_init, minmax_step, stepsize_bound_pair
from saddlenet.primal_dual import StepSizeError


def make_inclusion_setup(seed=0, n=5, h=3):
    agents = random_inclusion_agents(n, h, seed=seed)
    mixing = metropolis_mixing(ring_graph(n))
    tau = 0.5 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(seed).standard_normal((n, h))
    return agents, mixing, x0, tau


# ---------------------------------------------------------------------------
# agreement with the dense stacked implementations
# ---------------------------------------------------------------------------

def test_inclusion_program_matches_dense_rows():
    agents, mixing, x0, tau = make_inclusion_setup(seed=1)
    rounds = 12
    program = InclusionProgram(agents, mixing, x0, tau)
    states, _ = run_synchronous(program, rounds)

    dense = inclusion_init(agents, mixing, x0, tau)
    for _ in range(rounds - 1):
        dense = inclusion_step(agents, mixing, dense, tau)
    for i, s in enumerate(states):
        assert_allclose(s["x"], dense.x[i], atol=1e-12)
        assert_allclose(s["u"], dense.u[i], atol=1e-12)


def test_inclusion_program_premix_matches_dense():
    agents, mixing, x0, tau = make_inclusion_setup(seed=2)
    states, _ = run_synchronous(InclusionProgram(agents, mixing, x0, tau, premix=True), 8)
    dense = inclusion_init(agents, mixing, x0, tau, premix=True)
    for _ in range(7):
        dense = inclusion_step(agents, mixing, dense, tau)
    for i, s in enumerate(states):
        assert_allclose(s["x"], dense.x[i], atol=1e-12)


def test_pg_extra_program_matches_dense():
    agents, mixing, x0, tau = make_inclusion_setup(seed=3)
    states, _ = run_synchronous(PgExtraProgram(agents, mixing, x0, tau), 10)
    dense = pg_extra_init(agents, mixing, x0, tau)
    for _ in range(9):
        dense = pg_extra_step(agents, mixing, dense, tau)
    for i, s in enumerate(states):
        assert_allclose(s["x"], dense.x[i], atol=1e-12)


def test_minmax_program_matches_dense_with_two_graphs():
    n, p, d = 5, 2, 2
    problems = random_saddle_problems(n, p, d, seed=6,
                                      prox_min_params={"weight": 0.1})
    mixing = BlockMixing(
        metropolis_mixing(ring_graph(n)),
        metropolis_mixing(random_connected_graph(n, density=0.4, seed=6)),
    )
    lip = max(prob.lipschitz for prob in problems)
    tau = 0.5 * stepsize_bound_pair(mixing, lip)
    rng = np.random.default_rng(6)
    x0, y0 = rng.standard_normal((n, p)), rng.standard_normal((n, d))

    rounds = 10
    states, _ = run_synchronous(MinMaxProgram(problems, mixing, x0, y0, tau), rounds)
    dense = minmax_init(problems, mixing, x0, y0, tau)
    for _ in range(rounds - 1):
        dense = minmax_step(problems, mixing, dense, tau)
    for i, s in enumerate(states):
        assert_allclose(s["x"], dense.x[i], atol=1e-12)
        assert_allclose(s["y"], dense.y[i], atol=1e-12)


def test_program_step_size_gates():
    agents, mixing, x0, _ = make_inclusion_setup(seed=4)
    bound = stepsize_bound(mixing, uniform_lipschitz(agents))
    with pytest.raises(StepSizeError):
        InclusionProgram(agents, mixing, x0, bound)


# ---------------------------------------------------------------------------
# message accounting
# ---------------------------------------------------------------------------

def test_message_counts_are_two_per_edge_per_round():
    agents, mixing, x0, tau = make_inclusion_setup(seed=5, n=6, h=4)
    edges = len(mixing.graph.edges)
    _, audits = run_synchronous(InclusionProgram(agents, mixing, x0, tau), 7)
    assert len(audits) == 7
    for r, row in enumerate(audits, start=1):
        assert row.round_index == r
        assert row.messages == 2 * edges
        assert row.messages_by_block == {"x": 2 * edges}
        assert row.bytes == 2 * edges * 4 * 8  # h doubles per float64


def test_minmax_message_counts_split_by_block():
    n = 4
    problems = random_saddle_problems(n, 2, 1, seed=8)
    g1, g2 = ring_graph(n), path_graph(n)
    mixing = BlockMixing(metropolis_mixing(g1), metropolis_mixing(g2))
    lip = max(prob.lipschitz for prob in problems)
    tau = 0.5 * stepsize_bound_pair(mixing, lip)
    rng = np.random.default_rng(8)
    program = MinMaxProgram(problems, mixing, rng.standard_normal((n, 2)),
                            rng.standard_normal((n, 1)), tau)
    _, audits = run_synchronous(program, 5)
    for row in audits:
        assert row.messages_by_block == {
            "x": 2 * len(g1.edges), "y": 2 * len(g2.edges)
        }
        assert row.messages == 2 * len(g1.edges) + 2 * len(g2.edges)


def test_no_illegal_reads_in_the_shipped_programs():
    agents, mixing, x0, tau = make_inclusion_setup(seed=7)
    _, audits = run_synchronous(InclusionProgram(agents, mixing, x0, tau), 10, audit=True)
    assert all(row.illegal_attempts == 0 for row in audits)


# ---------------------------------------------------------------------------
# schedule independence
# ---------------------------------------------------------------------------

def test_sequential_equivalence_for_all_programs():
    agents, mixing, x0, tau = make_inclusion_setup(seed=9)
    assert sequential_equivalence(InclusionProgram(agents, mixing, x0, tau), 8)
    assert sequential_equivalence(PgExtraProgram(agents, mixing, x0, tau), 8)

    problems = random_saddle_problems(5, 2, 2, seed=9)
    mixing2 = BlockMixing(metropolis_mixing(ring_graph(5)),
                          metropolis_mixing(path_graph(5)))
    lip = max(prob.lipschitz for prob in problems)
    rng = np.random.default_rng(9)
    program = MinMaxProgram(problems, mixing2, rng.standard_normal((5, 2)),
                            rng.standard_normal((5, 2)),
                            0.5 * stepsize_bound_pair(mixing2, lip))
    assert sequential_equivalence(program, 8)


class OrderProgram:
    """Agents on a path that add their neighbours' values; records the compute order."""

    def __init__(self, n):
        self.n = n
        self.blocks = {"x": path_graph(n)}
        self.order = []

    def initial_state(self, i):
        return {"x": np.array([float(i + 1)])}

    def outgoing(self, i, state):
        return {"x": state["x"]}

    def compute(self, i, state, inboxes, round_index):
        self.order.append(i)
        return {"x": state["x"] + sum(inboxes["x"][j] for j in inboxes["x"].sources())}


def test_sequential_equivalence_draws_a_schedule_other_than_the_identity():
    # seed 0's first permutation of two agents is the identity, so another one is drawn
    assert np.random.default_rng(0).permutation(2).tolist() == [0, 1]
    program = OrderProgram(2)
    assert sequential_equivalence(program, 1, seed=0)
    assert program.order == [0, 1, 1, 0]
    # one agent has only the identity schedule
    single = OrderProgram(1)
    assert sequential_equivalence(single, 2)
    assert single.order == [0, 0, 0, 0]


def test_states_with_other_keys_are_not_equal():
    assert not _states_equal({"x": np.zeros(1)}, {"y": np.zeros(1)})
    assert _states_equal({"x": np.zeros(1)}, {"x": np.zeros(1)})


def test_order_must_be_a_permutation():
    agents, mixing, x0, tau = make_inclusion_setup(seed=10)
    program = InclusionProgram(agents, mixing, x0, tau)
    with pytest.raises(ValueError):
        run_synchronous(program, 2, order=[0, 0, 1, 2, 3])


# ---------------------------------------------------------------------------
# isolation: non-neighbor reads fail loudly
# ---------------------------------------------------------------------------

class RogueProgram:
    """Agent 0 peeks at agent 2 on a path 0-1-2 where they are not adjacent."""

    def __init__(self, peek_round=2):
        self.n = 3
        self.blocks = {"x": path_graph(3)}
        self.peek_round = peek_round

    def initial_state(self, i):
        return {"x": np.array([float(i)])}

    def outgoing(self, i, state):
        return {"x": state["x"]}

    def compute(self, i, state, inboxes, round_index):
        if i == 0 and round_index == self.peek_round:
            inboxes["x"][2]  # not a neighbor: must raise
        return {"x": state["x"] + 1.0}


def test_non_neighbor_read_raises_with_context():
    with pytest.raises(NonNeighborReadError) as err:
        run_synchronous(RogueProgram(), 3)
    exc = err.value
    assert (exc.agent, exc.source, exc.block) == (0, 2, "x")
    assert "non-neighbor" in str(exc)


def test_illegal_attempt_is_recorded_in_audit_mode():
    with pytest.raises(NonNeighborReadError) as err:
        run_synchronous(RogueProgram(peek_round=2), 5, audit=True)
    audits = err.value.audits
    assert audits is not None
    assert audits[-1].round_index == 2
    assert audits[-1].illegal_attempts == 1
    assert audits[0].illegal_attempts == 0


def test_inbox_interface():
    agents, mixing, x0, tau = make_inclusion_setup(seed=11, n=4)
    program = InclusionProgram(agents, mixing, x0, tau)

    seen = {}

    class Probe(InclusionProgram):
        def compute(self, i, state, inboxes, round_index):
            if i == 0:
                seen["sources"] = inboxes["x"].sources()
                seen["has_neighbor"] = 1 in inboxes["x"]
                seen["has_far"] = 2 in inboxes["x"]
            return super().compute(i, state, inboxes, round_index)

    probe = Probe(agents, mixing, x0, tau)
    run_synchronous(probe, 2)
    assert seen["sources"] == sorted(mixing.graph.neighbors(0))
    assert seen["has_neighbor"] is True
    assert seen["has_far"] is False
