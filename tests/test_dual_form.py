"""The recursion in its dual form: the round's shape, the dual sum and its two kernels.

Every round, round 1 included, mixes once per block.  The dual sum ``g``
stays in the range of ``W - I``, so its rows sum to zero per column.  On a
small affine stack the round's linear part is one matrix product; the
structured path (``mixing.apply`` and the batched forward) must run the
same method, which a duck-typed mixing without a dense ``w`` forces.
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from saddlenet import inclusion
from saddlenet.config import build_block_mixing, build_problems, build_start, declared_lipschitz
from saddlenet.config import parse_config, resolve_steps
from saddlenet.graphs import BlockMixing, metropolis_mixing, path_graph, random_connected_graph
from saddlenet.graphs import ring_graph, star_graph
from saddlenet.inclusion import (
    AgentInclusion,
    inclusion_init,
    inclusion_run,
    inclusion_step,
    pg_extra_init,
    pg_extra_run,
    pg_extra_step,
    stepsize_bound,
    uniform_lipschitz,
)
from saddlenet.instances import random_inclusion_agents, random_saddle_problems
from saddlenet.minmax import minmax_init, minmax_run, minmax_step, stack_state, stepsize_bound_pair
from saddlenet.operators import affine_forward
from saddlenet.trace import StoppingRule

EPS = np.finfo(float).eps


class CountingMixing:
    """A mixing with only ``apply``, ``n`` and ``lambda_min``: the structured path runs."""

    def __init__(self, inner):
        self._inner = inner
        self.n = inner.n
        self.lambda_min = inner.lambda_min
        self.calls = 0

    def apply(self, x):
        self.calls += 1
        return self._inner.apply(x)


class Delegating:
    """A proxy that delegates every attribute, as the benchmark's traced mixings do."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


def affine_agents(n, h, seed, pool=("zero", "quadratic", "l1", "box_indicator")):
    """Library proxes with affine forwards ``J_i x + c_i`` (nonzero offsets)."""
    rng = np.random.default_rng(seed + 1000)
    return [AgentInclusion(a.resolvent, affine_forward(a.forward.jacobian, rng.standard_normal(h),
                                                       lipschitz=a.lipschitz))
            for a in random_inclusion_agents(n, h, seed, pool=pool)]


METHODS = {
    "reflected": (inclusion_init, inclusion_step, inclusion_run, 0.9, False),
    "reflected, premixed": (inclusion_init, inclusion_step, inclusion_run, 0.9, True),
    "pg-extra": (pg_extra_init, pg_extra_step, pg_extra_run, 3.6, False),
}


def step_size(mixing, agents, share):
    """``share`` of the reflected bound; PG-EXTRA's own bound is four times as wide."""
    return share * stepsize_bound(mixing, uniform_lipschitz(agents))


# ---------------------------------------------------------------------------
# the round's shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_every_round_mixes_once_round_1_included(method):
    init, step, run, share, premix = METHODS[method]
    n, h = 6, 3
    agents = affine_agents(n, h, seed=1)
    mixing = CountingMixing(metropolis_mixing(random_connected_graph(n, 0.5, seed=2)))
    tau = step_size(mixing, agents, share)
    x0 = np.random.default_rng(3).standard_normal((n, h))
    run(agents, mixing, x0, tau, StoppingRule(tol=0.0, max_iters=0), premix=premix)
    start = mixing.calls
    # the start forms W x0 once, premixed or not; each round then mixes its new x
    assert start == 1
    state = init(agents, mixing, x0, tau, premix=premix)
    assert mixing.calls == 2 * start + 1
    for _ in range(20):
        before = mixing.calls
        state = step(agents, mixing, state, tau)
        assert mixing.calls == before + 1


def test_each_matrix_of_a_two_graph_block_mixing_mixes_once_per_round():
    n, p, d = 5, 2, 3
    problems = random_saddle_problems(n, p, d, seed=4, coupling_kind="quadratic")
    w1 = CountingMixing(metropolis_mixing(ring_graph(n)))
    w2 = CountingMixing(metropolis_mixing(random_connected_graph(n, 0.6, seed=4)))
    mixing = BlockMixing(w1, w2)
    tau = 0.8 * stepsize_bound_pair(mixing, max(prob.lipschitz for prob in problems))
    rng = np.random.default_rng(5)
    state = minmax_init(problems, mixing, rng.standard_normal((n, p)), rng.standard_normal((n, d)), tau)
    assert (w1.calls, w2.calls) == (2, 2)  # the start's dual sum and round 1
    for _ in range(20):
        before = (w1.calls, w2.calls)
        state = minmax_step(problems, mixing, state, tau)
        assert (w1.calls, w2.calls) == (before[0] + 1, before[1] + 1)


def test_a_step_with_another_tau_raises():
    n, h = 4, 2
    agents = affine_agents(n, h, seed=6)
    mixing = metropolis_mixing(ring_graph(n))
    tau = step_size(mixing, agents, 0.5)
    state = inclusion_init(agents, mixing, np.zeros((n, h)), tau)
    assert state.tau == tau
    with pytest.raises(ValueError, match="tau"):
        inclusion_step(agents, mixing, state, 0.5 * tau)


# ---------------------------------------------------------------------------
# the dual sum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("structured", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_dual_rows_sum_to_zero_in_every_round(method, structured):
    init, step, _, share, premix = METHODS[method]
    n, h = 7, 3
    agents = affine_agents(n, h, seed=7)
    mixing = metropolis_mixing(random_connected_graph(n, 0.5, seed=8))
    if structured:
        mixing = CountingMixing(mixing)
    tau = step_size(mixing, agents, share)
    state = init(agents, mixing, np.random.default_rng(9).standard_normal((n, h)), tau, premix=premix)
    assert isinstance(state.kernels, inclusion._OneProduct) != structured
    scale = 0.0
    for k in range(1, 301):
        scale = max(scale, float(np.abs(state.x).max()))
        assert np.abs(state.g.sum(axis=0)).max() <= k * n * EPS * scale
        state = step(agents, mixing, state, tau)


# ---------------------------------------------------------------------------
# the one-product kernel against the structured path
# ---------------------------------------------------------------------------

def assert_same_run(one, structured):
    """Same status and iterations, rows within ``1e-12 max|x|``."""
    (x_one, trace_one), (x_str, trace_str) = one, structured
    assert trace_one.status == trace_str.status
    assert trace_one.iterations == trace_str.iterations
    assert np.abs(x_one - x_str).max(initial=0.0) <= 1e-12 * np.abs(x_str).max(initial=0.0)


def both_paths(run, agents, mixing, *args, **kwargs):
    """``run`` on the one-product path, then through a mixing without ``w``."""
    return run(agents, mixing, *args, **kwargs), run(agents, CountingMixing(mixing), *args, **kwargs)


@pytest.fixture
def any_size(monkeypatch):
    """Lift the size limit of the one-product kernel for the test."""
    monkeypatch.setattr(inclusion, "_ONE_PRODUCT_MAX_NH", 10**9)


@pytest.mark.parametrize("topology", [ring_graph, path_graph, star_graph])
@pytest.mark.parametrize("method", METHODS)
def test_one_product_matches_structured_path_on_small_graphs(topology, method, any_size):
    _, _, run, share, premix = METHODS[method]
    for n in range(2, 12):
        if topology is ring_graph and n < 3:
            continue
        mixing = metropolis_mixing(topology(n))
        for h in range(1, 7):
            # a pool whose agents always share a solution, so many runs converge
            agents = affine_agents(n, h, seed=10 * n + h, pool=("zero", "quadratic"))
            tau = step_size(mixing, agents, share)
            x0 = np.random.default_rng(n + h).standard_normal((n, h))
            stop = StoppingRule(tol=1e-6, max_iters=200)
            one, structured = both_paths(run, agents, mixing, x0, tau, stop, premix=premix)
            assert isinstance(one[0].kernels, inclusion._OneProduct)
            assert not isinstance(structured[0].kernels, inclusion._OneProduct)
            assert_same_run((one[0].x, one[1]), (structured[0].x, structured[1]))


@pytest.mark.parametrize("p, d", [(2, 3), (0, 3), (3, 0)])
def test_one_product_matches_structured_path_on_two_graphs(p, d):
    n = 6
    problems = random_saddle_problems(n, p, d, seed=11, coupling_kind="quadratic")
    w1 = metropolis_mixing(ring_graph(n))
    w2 = metropolis_mixing(random_connected_graph(n, 0.6, seed=11))
    rng = np.random.default_rng(12)
    x0, y0 = rng.standard_normal((n, p)), rng.standard_normal((n, d))
    tau = 0.8 * stepsize_bound_pair(BlockMixing(w1, w2), max(prob.lipschitz for prob in problems))
    stop = StoppingRule(tol=1e-10, max_iters=3000)
    runs = []
    for mixing in (BlockMixing(w1, w2), BlockMixing(CountingMixing(w1), CountingMixing(w2))):
        x, y, trace = minmax_run(problems, mixing, x0, y0, tau, stop)
        runs.append((np.concatenate([x, y]), trace))
    assert_same_run(*runs)
    assert isinstance(stack_state(minmax_init(problems, BlockMixing(w1, w2), x0, y0, tau)).kernels,
                      inclusion._OneProduct)


def test_a_delegating_proxy_takes_the_same_path_as_the_bare_mixing():
    n, h = 5, 4
    agents = affine_agents(n, h, seed=13)
    mixing = metropolis_mixing(ring_graph(n))
    tau = step_size(mixing, agents, 0.9)
    x0 = np.random.default_rng(14).standard_normal((n, h))
    bare = inclusion_init(agents, mixing, x0, tau)
    proxied = inclusion_init([AgentInclusion(a.resolvent, Delegating(a.forward)) for a in agents],
                             Delegating(mixing), x0, tau)
    assert type(bare.kernels) is type(proxied.kernels) is inclusion._OneProduct
    assert_array_equal(bare.x, proxied.x)
    # a block mixing behind a proxy is laid out by its blocks, as the bare one
    blocks = BlockMixing(mixing, metropolis_mixing(path_graph(n)), split=2)
    bare = inclusion_init(agents, blocks, x0, tau)
    proxied = inclusion_init(agents, Delegating(blocks), x0, tau)
    assert type(bare.kernels) is type(proxied.kernels) is inclusion._OneProduct
    assert_array_equal(bare.x, proxied.x)
    # past the size limit the structured path runs, for both alike
    agents = affine_agents(20, 6, seed=15)
    mixing = metropolis_mixing(ring_graph(20))
    tau = step_size(mixing, agents, 0.9)
    state = inclusion_init(agents, Delegating(mixing), np.zeros((20, 6)), tau)
    assert type(state.kernels) is inclusion._Kernels


RING5 = """
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
x0 = 0.05, -0.02, 0.07
y0 = -0.03, 0.01, 0.04

[graph]
topology = ring

[algorithm]
name = alg2

[run]
max_iters = 100000
tol = 1e-10
"""


def test_ring5_instance_runs_the_same_on_both_paths():
    cfg = parse_config(RING5)
    problems, mixing = build_problems(cfg), build_block_mixing(cfg)
    tau, _ = resolve_steps(cfg, mixing, declared_lipschitz(cfg, problems))
    x0, y0 = build_start(cfg)
    stop = StoppingRule(tol=cfg.run.tol, max_iters=cfg.run.max_iters)
    runs = []
    for mix in (mixing, BlockMixing(CountingMixing(mixing.w1), CountingMixing(mixing.w2))):
        x, y, trace = minmax_run(problems, mix, x0, y0, tau, stop)
        runs.append((np.concatenate([x, y]), trace))
    assert runs[0][1].converged
    assert_same_run(*runs)


def test_random50_instance_runs_the_same_on_both_paths(any_size):
    n = 50
    mixing = BlockMixing(metropolis_mixing(random_connected_graph(n, 0.1, seed=7)),
                         metropolis_mixing(ring_graph(n)))
    problems = random_saddle_problems(n, 3, 3, seed=7, coupling_kind="quadratic",
                                      prox_min_params={"weight": 0.05},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    tau = 0.9 * stepsize_bound_pair(mixing, max(p.lipschitz for p in problems))
    x0, y0 = np.random.default_rng(1).uniform(-0.1, 0.1, (2, n, 3))
    stop = StoppingRule(tol=1e-10, max_iters=100_000)
    runs = []
    for mix in (mixing, BlockMixing(CountingMixing(mixing.w1), CountingMixing(mixing.w2))):
        x, y, trace = minmax_run(problems, mix, x0, y0, tau, stop)
        runs.append((np.concatenate([x, y]), trace))
    assert runs[0][1].converged
    assert_same_run(*runs)


def test_random500_instance_runs_on_the_structured_path_whatever_its_mixing():
    """Its ``(3 n h, n h)`` product matrix would take 384 MB, so the kernel is
    never built at this size: a bare and a ``w``-less mixing run the same
    structured round, bitwise."""
    n, h = 500, 8
    mixing = metropolis_mixing(random_connected_graph(n, 0.02, seed=11))
    agents = random_inclusion_agents(n, h, 11, pool=("zero", "quadratic"))
    tau = 0.9 * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(1).uniform(-0.1, 0.1, (n, h))
    stop = StoppingRule(tol=1e-8, max_iters=40)
    (bare, bare_trace), (duck, duck_trace) = both_paths(inclusion_run, agents, mixing, x0, tau, stop)
    assert type(bare.kernels) is inclusion._Kernels
    assert bare_trace.iterations == duck_trace.iterations == 40
    assert_array_equal(bare.x, duck.x)


def test_every_state_keeps_the_exchange_of_its_own_x_on_both_paths():
    n, h = 4, 3
    agents = affine_agents(n, h, seed=16)
    mixing = metropolis_mixing(ring_graph(n))
    tau = step_size(mixing, agents, 0.9)
    x0 = np.random.default_rng(16).standard_normal((n, h))
    for kernels, mixed in ((inclusion._OneProduct, mixing), (inclusion._Kernels, CountingMixing(mixing))):
        start, _ = inclusion_run(agents, mixed, x0, tau, StoppingRule(tol=0.0, max_iters=0))
        state = inclusion_init(agents, mixed, x0, tau)
        assert type(state.kernels) is kernels
        for s in (start, state, inclusion_step(agents, mixed, state, tau)):
            w = mixing.apply(s.x)
            assert np.abs(s.w - w).max() <= 1e-15
            assert np.abs(s.half - 0.5 * (w - s.x)).max() <= 1e-15
    # a new agent list rebuilds the kernels
    again = inclusion_step(list(agents), mixed, dataclasses.replace(state), tau)
    assert again.kernels is not state.kernels


@pytest.mark.parametrize("n, kernels", [(6, inclusion._OneProduct), (40, inclusion._Kernels)])
def test_a_step_with_another_mixing_mixes_with_it(n, kernels):
    """A state made on a ring and stepped on a path mixes over the path, not with a stale ``W x``."""
    h = 3
    agents = affine_agents(n, h, seed=17)
    ring, path = metropolis_mixing(ring_graph(n)), metropolis_mixing(path_graph(n))
    tau = min(step_size(m, agents, 0.5) for m in (ring, path))
    state = inclusion_init(agents, ring, np.random.default_rng(17).standard_normal((n, h)), tau)
    assert type(state.kernels) is kernels
    stepped = inclusion_step(agents, path, state, tau)
    assert np.abs(stepped.u - (path.apply(state.x) + state.e)).max() <= 1e-14
