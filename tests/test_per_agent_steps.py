"""Per-agent steps: each agent steps at its own gate ``tau_i < (1 - rho) / (2 L_i)``.

``rho = lambda_max(C^{1/2} (I - W) C^{1/2}) / 2`` at the ratios ``C = diag(tau_i / max tau)`` is
at most ``(1 - lambda_min) / 2`` and equal to it at equal steps, where the gate is the closed form
``(1 + lambda_min) / (4 L_i)``.

With an ``(n,)`` ``tau`` agent ``i`` scales its exchange by ``c_i = tau_i / max tau``.
That recursion is pdtr on the product space with ``T = diag(tau_i) (x) I_h`` and
``sigma = 1 / max tau`` (:func:`~saddlenet.inclusion.product_space_reference`), on the
one-product and on the structured kernels alike.  A run turns one ``tau`` into the
``(n,)`` array of equal entries, so the two make the same run bitwise.  Through the config,
``tau = auto`` gives alg1 and alg2 each agent's own step.
"""

import ast
import json

import numpy as np
import pytest

from saddlenet import cli, inclusion
from saddlenet.cli import _Setup, main
from saddlenet.config import declared_lipschitz, parse_config, resolve_steps
from saddlenet.graphs import (
    BlockMixing,
    lazy_metropolis_mixing,
    metropolis_mixing,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)
from saddlenet.harness import InclusionProgram, MinMaxProgram, PgExtraProgram, run_synchronous
from saddlenet.inclusion import (
    AgentInclusion,
    _agent_gates,
    inclusion_init,
    inclusion_run,
    inclusion_step,
    pg_extra_init,
    pg_extra_run,
    product_space_reference,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import (
    AgentSaddleProblem,
    minmax_init,
    minmax_run,
    minmax_step,
    stack_agents,
    stacked_block_mixing,
)
from saddlenet.operators import Prox, bilinear_coupling
from saddlenet.primal_dual import StepSizeError
from saddlenet.trace import StoppingRule

ROUNDS = 150
# the one-product kernel's size limit that picks each path
PATHS = {"one-product": 10**9, "structured": 0}

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
name = alg2

[run]
max_iters = 100000
tol = 1e-10
"""


@pytest.fixture(params=sorted(PATHS))
def path(request, monkeypatch):
    monkeypatch.setattr(inclusion, "_ONE_PRODUCT_MAX_NH", PATHS[request.param])
    return request.param


def unequal_steps(rng, agents, mixing):
    """Each agent at a random share in [0.2, 0.95) of its own gate."""
    return np.array([rng.uniform(0.2, 0.95) * gate for gate in _agent_gates(agents, mixing)])


def assert_path(state, path):
    assert isinstance(state.kernels, inclusion._OneProduct) == (path == "one-product")


def test_the_recursion_matches_the_diagonal_oracle_on_stacked_inclusions(path):
    rng = np.random.default_rng(32)
    for seed in range(12):
        n, h = int(rng.integers(3, 9)), int(rng.integers(1, 5))
        graph = (path_graph, ring_graph, star_graph)[seed % 3](n)
        mixing = (metropolis_mixing, lazy_metropolis_mixing)[seed % 2](graph)
        agents = random_inclusion_agents(n, h, seed=seed)
        if seed % 4 == 3:  # a custom resolvent runs per row, at its own agent's step
            agents[0] = AgentInclusion(Prox(lambda t, v: v / (1.0 + t)), agents[0].forward)
        tau = unequal_steps(rng, agents, mixing)
        x0 = rng.standard_normal((n, h))
        premix = bool(seed % 2)
        ref = product_space_reference(agents, mixing, x0, tau, ROUNDS, premix=premix)
        state = inclusion_init(agents, mixing, x0, tau, premix=premix)
        assert_path(state, path)
        for k in range(ROUNDS):
            if k:
                state = inclusion_step(agents, mixing, state, tau)
            assert np.abs(state.x - ref[k]).max() <= 1e-10


def test_the_recursion_matches_the_diagonal_oracle_on_two_graph_minmax(path):
    rng = np.random.default_rng(33)
    for seed in range(8):
        n, p, d = int(rng.integers(3, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        mixing = BlockMixing(metropolis_mixing(random_connected_graph(n, 0.5, seed=seed)),
                             lazy_metropolis_mixing(ring_graph(n)))
        problems = random_saddle_problems(n, p, d, seed=seed,
                                          coupling_kind=("bilinear", "quadratic")[seed % 2],
                                          prox_min_params={"weight": 0.2},
                                          prox_max_params={"lo": -1.5, "hi": 1.5})
        agents, stacked = stack_agents(problems), stacked_block_mixing(mixing, problems)
        tau = unequal_steps(rng, agents, stacked)
        x0, y0 = rng.standard_normal((n, p)), rng.standard_normal((n, d))
        ref = product_space_reference(agents, stacked, np.concatenate([x0, y0], axis=1), tau, ROUNDS)
        state = minmax_init(problems, mixing, x0, y0, tau)
        assert_path(state.stacked, path)
        for k in range(ROUNDS):
            if k:
                state = minmax_step(problems, mixing, state, tau)
            assert np.abs(np.concatenate([state.x, state.y], axis=1) - ref[k]).max() <= 1e-10


def same_trace(a, b):
    assert a.iterations == b.iterations and a.status == b.status
    assert a.active_columns() == b.active_columns()
    for col in a.active_columns():
        assert np.asarray(a.column(col)).tobytes() == np.asarray(b.column(col)).tobytes()


def test_an_equal_per_agent_tau_is_the_one_tau_run_bitwise(path):
    rng = np.random.default_rng(34)
    stop = StoppingRule(tol=1e-9, max_iters=300)
    n, h = 6, 3
    mixing = lazy_metropolis_mixing(ring_graph(n))
    agents = random_inclusion_agents(n, h, seed=34)
    x0 = rng.standard_normal((n, h))
    for run, share in ((inclusion_run, 0.25), (pg_extra_run, 1.0)):
        tau = share * 0.9 * min(_agent_gates(agents, mixing))
        one, one_trace = run(agents, mixing, x0, tau, stop, reference=x0[0])
        each, each_trace = run(agents, mixing, x0, np.full(n, tau), stop, reference=x0[0])
        assert_path(each, path)
        assert np.array_equal(each.tau, one.tau) and np.array_equal(one.tau, np.full(n, tau))
        assert one.x.tobytes() == each.x.tobytes()
        same_trace(one_trace, each_trace)
    problems = random_saddle_problems(n, 2, 1, seed=34)
    tau = 0.9 * min(_agent_gates(stack_agents(problems), stacked_block_mixing(BlockMixing(mixing, mixing),
                                                                               problems)))
    x0, y0 = rng.standard_normal((n, 2)), rng.standard_normal((n, 1))
    one = minmax_run(problems, BlockMixing(mixing, mixing), x0, y0, tau, stop)
    each = minmax_run(problems, BlockMixing(mixing, mixing), x0, y0, [tau] * n, stop)
    assert one[0].tobytes() == each[0].tobytes() and one[1].tobytes() == each[1].tobytes()
    same_trace(one[2], each[2])


def exact_gates(agents, mixing, tau, h):
    """Each agent's gate in the exact condition at the ratios of ``tau``."""
    return np.array(_agent_gates(agents, mixing, rho=inclusion._rho(mixing, tau / tau.max(), h)))


def test_the_gate_names_the_agent_whose_step_exceeds_its_own_gate():
    n, h = 5, 2
    mixing = metropolis_mixing(path_graph(n))
    agents = random_inclusion_agents(n, h, seed=35)
    gates = np.array(_agent_gates(agents, mixing))  # the closed form (1 + lambda_min) / (4 L_i)
    x0 = np.random.default_rng(35).standard_normal((n, h))
    # every agent just below its own closed-form gate runs, although all but one exceed the gate of max L_i
    below = np.nextafter(gates, 0.0)
    assert (below > gates.min()).sum() == n - 1
    assert np.isfinite(inclusion_init(agents, mixing, x0, below).x).all()
    # agent 3 just above its exact gate at the others' 0.95 of theirs: its step is not the
    # largest, so raising it raises rho and lowers its own gate
    at = 0.95 * gates
    at[3] = np.nextafter(exact_gates(agents, mixing, at, h)[3], np.inf)
    exact = exact_gates(agents, mixing, at, h)
    assert at[3] < at.max() and at[3] > exact[3] > gates[3]
    assert (np.delete(at, 3) < np.delete(exact, 3)).all()
    # midway between its closed-form and its exact gate it runs
    inside = at.copy()
    inside[3] = 0.5 * (gates[3] + exact[3])
    assert np.isfinite(inclusion_init(agents, mixing, x0, inside).x).all()
    for start in (lambda t: inclusion_init(agents, mixing, x0, t),
                  lambda t: product_space_reference(agents, mixing, x0, t, 1),
                  lambda t: InclusionProgram(agents, mixing, x0, t)):
        with pytest.raises(StepSizeError, match=r"the step of agent 3 exceeds its own gate: tau_3="):
            start(at)
    with pytest.raises(StepSizeError, match="agent 0"):
        inclusion_init(agents, mixing, x0, -below)
    with pytest.raises(ValueError, match="one entry per agent"):
        inclusion_init(agents, mixing, x0, below[:-1])


def test_one_tau_is_gated_at_the_largest_lipschitz_constant_and_names_its_agent():
    # one tau is every agent's step, checked against every agent's own gate: just above the
    # least gate (at max L_i) only the agent with the largest L_i fails, and the message names it
    n, h, p, d = 5, 2, 2, 1
    rng = np.random.default_rng(39)
    mixing = metropolis_mixing(path_graph(n))
    agents = random_inclusion_agents(n, h, seed=39)
    x0 = rng.standard_normal((n, h))
    problems = random_saddle_problems(n, p, d, seed=39)
    pair = BlockMixing(mixing, lazy_metropolis_mixing(ring_graph(n)))
    stacked = stack_agents(problems)
    mx, my = rng.standard_normal((n, p)), rng.standard_normal((n, d))
    cases = [  # (the agents the gate reads, their mixing, reflect, start at one tau)
        (agents, mixing, True, lambda t: inclusion_init(agents, mixing, x0, t)),
        (agents, mixing, False, lambda t: pg_extra_init(agents, mixing, x0, t)),
        (stacked, stacked_block_mixing(pair, problems), True, lambda t: minmax_init(problems, pair, mx, my, t)),
        (agents, mixing, True, lambda t: product_space_reference(agents, mixing, x0, t, 2)),
        (agents, mixing, True, lambda t: run_synchronous(InclusionProgram(agents, mixing, x0, t), 2)),
        (stacked, stacked_block_mixing(pair, problems), True,
         lambda t: run_synchronous(MinMaxProgram(problems, pair, mx, my, t), 2)),
    ]
    for gated, on, reflect, start in cases:
        lips = [a.lipschitz for a in gated]
        top = int(np.argmax(lips))
        assert lips.count(lips[top]) == 1
        gate = min(_agent_gates(gated, on, reflect))
        assert gate == _agent_gates(gated, on, reflect)[top]
        assert start(float(np.nextafter(gate, 0.0))) is not None
        with pytest.raises(StepSizeError, match=rf"step size exceeds its bound: the step of agent {top} "
                                                rf"exceeds its own gate: tau_{top}="):
            start(float(np.nextafter(gate, np.inf)))


def test_pg_extra_steps_at_one_tau():
    n, h = 4, 2
    mixing = metropolis_mixing(ring_graph(n))
    agents = random_inclusion_agents(n, h, seed=36)
    x0 = np.random.default_rng(36).standard_normal((n, h))
    tau = 0.5 * np.array(_agent_gates(agents, mixing, reflect=False))
    for start in (lambda t: pg_extra_init(agents, mixing, x0, t),
                  lambda t: PgExtraProgram(agents, mixing, x0, t)):
        with pytest.raises(ValueError, match="one tau"):
            start(tau)
        assert start(np.full(n, tau.min())) is not None


def test_a_zero_curvature_agent_admits_any_step():
    n = 4
    mixing = BlockMixing(*(metropolis_mixing(ring_graph(n)),) * 2)
    problems = random_saddle_problems(n, 2, 2, seed=37)
    problems[1] = AgentSaddleProblem(problems[1].prox_min, problems[1].prox_max,
                                     bilinear_coupling(p=2, d=2))
    assert problems[1].lipschitz == 0.0
    gates = _agent_gates(stack_agents(problems), stacked_block_mixing(mixing, problems))
    assert gates[1] == np.inf
    tau = [0.9 * g if g < np.inf else 1e3 for g in gates]
    state = minmax_init(problems, mixing, np.zeros((n, 2)), np.zeros((n, 2)), tau)
    assert np.isfinite(state.x).all() and np.isfinite(state.y).all()


@pytest.mark.parametrize("per_agent", [True, False], ids=["per-agent", "one-tau"])
def test_the_harness_sends_the_same_messages_at_per_agent_steps(per_agent):
    n, p, d, rounds = 6, 2, 2, 12
    rng = np.random.default_rng(38)
    mixing = BlockMixing(metropolis_mixing(random_connected_graph(n, 0.5, seed=38)),
                         lazy_metropolis_mixing(ring_graph(n)))
    problems = random_saddle_problems(n, p, d, seed=38, coupling_kind="quadratic")
    gates = np.array(_agent_gates(stack_agents(problems), stacked_block_mixing(mixing, problems)))
    tau = 0.9 * gates if per_agent else 0.9 * gates.min()
    x0, y0 = rng.standard_normal((n, p)), rng.standard_normal((n, d))
    states, audits = run_synchronous(MinMaxProgram(problems, mixing, x0, y0, tau), rounds, audit=True)
    dense = minmax_init(problems, mixing, x0, y0, tau)
    for _ in range(rounds - 1):
        dense = minmax_step(problems, mixing, dense, tau)
    for i, s in enumerate(states):
        assert np.abs(s["x"] - dense.x[i]).max() <= 1e-12
        assert np.abs(s["y"] - dense.y[i]).max() <= 1e-12
    expected = 2 * len(mixing.w1.graph.edges) + 2 * len(mixing.w2.graph.edges)
    assert [a.messages for a in audits] == [expected] * rounds
    assert sum(a.illegal_attempts for a in audits) == 0


def _run(tmp_path, text, *flags):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    code = main(["run", *flags, "--config", str(path), "--out", str(tmp_path / "out")])
    summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8").splitlines()
    return code, dict(line.split(" = ", 1) for line in summary if " = " in line), summary


def test_run_audit_of_alg2_at_auto_passes_on_the_readme_config(tmp_path):
    code, fields, summary = _run(tmp_path, README, "--audit")
    assert code == 0
    setup = _Setup(parse_config(README))
    tau = ast.literal_eval(fields["tau"])
    # each agent's gate (1 - rho) / (2 L_i) in the exact condition 2 max tau_i L_i + rho < 1
    gates = tuple((1.0 - setup.rho) / (2.0 * lip) for lip in setup.lip)
    assert setup.rho < (1.0 - setup.block_mixing.lambda_min) / 2.0
    # each agent's tau_i at 0.99 of its own gate (every L_i is above L_max / 2), sigma = 1 / max tau_i
    assert min(setup.lip) > max(setup.lip) / 2.0
    assert len(set(tau)) == 5 and tau == setup.agent_tau
    assert np.divide(tau, gates) == pytest.approx(0.99, rel=1e-14)
    assert fields["sigma"] == repr(1.0 / max(tau))
    assert fields["step gate"] == repr(gates)
    assert fields["tau / gate"] == repr(max(np.divide(tau, gates).tolist()))
    # 0.99 to one rounding, as CI reads it: the rule's rho and the checked one differ in the last bit
    assert fields["tau / gate"] in ("0.9899999999999999", "0.99", "0.9900000000000001")
    assert fields["rho"] == repr(setup.rho)
    condition = 2.0 * max(np.multiply(tau, setup.lip).tolist()) + setup.rho
    assert fields["2 max tau_i L_i + rho"] == repr(condition) and condition < 1.0
    assert fields["iterations"] == "5504" and fields["converged"].startswith("yes")
    assert fields["messages per round"] == "20"
    audit_line = next(line for line in summary if line.startswith("audit: "))
    assert audit_line.startswith("audit: 50 rounds on the message harness, 0 illegal reads")
    assert float(audit_line.split("the run ")[1].split()[0]) <= 1e-12 and audit_line.endswith(" pass")
    audit = (tmp_path / "out" / "audit.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [int(row.split(",")[1]) for row in audit] == [20] * 50


@pytest.mark.parametrize("scheme, per_agent, one_tau", [("lazy_metropolis", 5504, 13012),
                                                         ("metropolis", 7143, 20103)])
def test_per_agent_steps_take_fewer_rounds_on_the_readme_ring(tmp_path, scheme, per_agent, one_tau):
    text = README.replace("topology = ring", f"topology = ring\n\n[mixing]\nscheme = {scheme}")
    setup = _Setup(parse_config(text))
    # the problem.lipschitz override gives every agent the worst constant: the one-tau run
    override = text.replace("seed = 3", f"seed = 3\nlipschitz = {max(setup.lip)!r}")
    (tmp_path / "each").mkdir()
    (tmp_path / "one").mkdir()
    _, each, _ = _run(tmp_path / "each", text)
    _, one, _ = _run(tmp_path / "one", override)
    assert (int(each["iterations"]), int(one["iterations"])) == (per_agent, one_tau)
    # the one-tau run takes the product-space step, below every per-agent step (rho < its closed form)
    assert float(one["tau"]) == setup.tau < min(ast.literal_eval(each["tau"]))
    for fields in (each, one):
        assert float(fields["tau / gate"]) == pytest.approx(0.99, rel=1e-14)


def test_the_per_agent_auto_tau_is_json_serializable_floats():
    cfg = parse_config(README)
    setup = _Setup(cfg)
    tau, _ = resolve_steps(cfg, setup.mixing, declared_lipschitz(cfg, setup.problems))
    assert type(tau) is tuple and all(type(t) is float for t in tau)
    assert json.loads(json.dumps(tau)) == list(tau)


def test_verify_checks_the_per_agent_recursion_against_the_diagonal_oracle(monkeypatch, capsys):
    seen = []

    def recorded(agents, mixing, x0, tau, iterations, premix=False):
        seen.append(tau)
        return product_space_reference(agents, mixing, x0, tau, iterations, premix)

    monkeypatch.setattr(cli, "product_space_reference", recorded)
    setup = _Setup(parse_config(README))
    rows = {name: (dev, tol) for name, dev, tol in cli._verify_rows(setup)}
    assert seen == [setup.agent_tau]
    dev, tol = rows["recursion vs explicit coupled form"]
    assert dev <= tol == 1e-10
    assert all(dev <= tol for dev, tol in rows.values())


def test_a_stacked_agent_keeps_its_own_declared_constant():
    problems = random_saddle_problems(3, 1, 1, seed=39)
    lips = [0.5, 2.0, 1.0]
    agents = stack_agents(problems, lipschitz=lips)
    assert [a.lipschitz for a in agents] == lips
    assert [a.lipschitz for a in stack_agents(problems, lipschitz=1.5)] == [1.5] * 3
    assert [a.lipschitz for a in stack_agents(problems)] == [p.lipschitz for p in problems]
