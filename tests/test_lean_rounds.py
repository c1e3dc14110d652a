"""Bitwise pins for the lean round paths.

A two-graph :class:`~saddlenet.graphs.BlockMixing` writes both of its
products into one output array, and a run steps its own kernels without the
checks of the public one-step functions.  Neither may change a bit: the
block products equal the products of each block's contiguous columns, and a
run equals the ``*_init`` + ``*_step`` loop that the public functions make.
"""

import numpy as np
import pytest

from saddlenet import inclusion, minmax
from saddlenet.graphs import BlockMixing, metropolis_mixing, path_graph, random_connected_graph
from saddlenet.graphs import ring_graph
from saddlenet.inclusion import (
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
from saddlenet.minmax import minmax_init, minmax_run, minmax_step, stepsize_bound_pair
from saddlenet.trace import StoppingRule, _norm

FIELDS = ("u", "x", "g", "b", "e", "w", "half")


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def blockwise(w1, w2, split, z):
    """Each block's own product of its contiguous columns, side by side."""
    z = np.asarray(z, dtype=float)
    return np.concatenate([w1.apply(np.ascontiguousarray(z[:, :split])),
                           w2.apply(np.ascontiguousarray(z[:, split:]))], axis=1)


# ---------------------------------------------------------------------------
# the two-block exchange
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pairs():
    """Two dense blocks at n = 6, and a dense and a gather block at n = 450."""
    small = (metropolis_mixing(ring_graph(6)), metropolis_mixing(random_connected_graph(6, 0.6, seed=3)))
    dense = metropolis_mixing(random_connected_graph(450, 0.1, seed=5))
    gather = metropolis_mixing(ring_graph(450))
    assert (small[0].product, small[1].product, dense.product, gather.product) == \
        ("dense", "dense", "dense", "gather")
    return {"dense, dense": small, "dense, gather": (dense, gather), "gather, dense": (gather, dense)}


def rows_with_bad_agents(n, h, seed):
    """Random rows in which one agent holds an inf and another a NaN."""
    z = np.random.default_rng(seed).standard_normal((n, h))
    z[1, 0] = np.inf
    z[2, h - 1] = np.nan
    return z


@pytest.mark.parametrize("pair", ["dense, dense", "dense, gather", "gather, dense"])
@pytest.mark.parametrize("split, h", [(0, 5), (5, 5), (2, 5), (3, 6), (1, 1), (4, 7)])
def test_two_graph_exchange_is_bitwise_the_blockwise_products(pairs, pair, split, h):
    w1, w2 = pairs[pair]
    mixing = BlockMixing(w1, w2, split=split)
    z = np.random.default_rng(h + 10 * split).standard_normal((w1.n, h))
    assert same_bytes(mixing.apply(z), blockwise(w1, w2, split, z))
    bad = rows_with_bad_agents(w1.n, h, split)
    with np.errstate(invalid="ignore"):
        assert same_bytes(mixing.apply(bad), blockwise(w1, w2, split, bad))


@pytest.mark.parametrize("pair", ["dense, dense", "dense, gather"])
def test_a_shared_matrix_is_one_product(pairs, pair):
    w = pairs[pair][1]
    z = np.random.default_rng(1).standard_normal((w.n, 5))
    for split in (0, 2, 5):
        assert same_bytes(BlockMixing(w, w, split=split).apply(z), w.apply(z))


@pytest.mark.parametrize("pair", ["dense, dense", "dense, gather"])
def test_rows_that_are_not_c_contiguous_mix_as_their_copy(pairs, pair):
    w1, w2 = pairs[pair]
    wide = np.random.default_rng(2).standard_normal((w1.n, 10))
    for z in (np.asfortranarray(wide[:, :5]), wide[:, 1:6], wide[::-1, :5], wide[::-1, ::2]):
        assert not z.flags.c_contiguous
        for split in range(6):
            assert same_bytes(BlockMixing(w1, w2, split=split).apply(z),
                              blockwise(w1, w2, split, np.ascontiguousarray(z)))


def test_a_delegating_proxy_mixes_as_the_bare_matrix(pairs):
    """A dense block's ``w`` is read through the proxy, whose ``apply`` is not
    called; a gather block is its own ``apply``."""
    class Delegating:
        def __init__(self, inner):
            self._inner = inner
            self.calls = 0

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def apply(self, x):
            self.calls += 1
            return self._inner.apply(x)

    for w1, w2 in pairs.values():
        z = np.random.default_rng(3).standard_normal((w1.n, 6))
        p1, p2 = Delegating(w1), Delegating(w2)
        assert same_bytes(BlockMixing(p1, p2, split=4).apply(z), BlockMixing(w1, w2, split=4).apply(z))
        assert (p1.calls, p2.calls) == (w1.product == "gather", w2.product == "gather")


# ---------------------------------------------------------------------------
# runs against the public one-step loop
# ---------------------------------------------------------------------------

def manual_loop(first, next_state, start, rounds, reference=None, split=None):
    """``rounds`` states from ``first()`` and ``next_state``, with the run's trace columns.

    ``start`` is the round-0 iterate; a round's residual is the norm of its
    change of ``x`` and of ``g``, which grows by the ``half`` of the old ``x``.
    """
    states, residuals, old = [], [], start
    for k in range(rounds):
        state = first() if k == 0 else next_state(states[-1])
        residuals.append(_norm(stacked(state).x - old.x, old.half))
        states.append(state)
        old = stacked(state)
    columns = inclusion._stacked_columns(reference, split)([stacked(s).x for s in states])
    return states[-1], {"fp_residual": residuals, **columns}


def stacked(state):
    return getattr(state, "stacked", state)


def assert_same_trace(trace, columns):
    assert sorted(trace.active_columns()) == sorted(["iteration", *columns])
    for name, values in columns.items():
        assert same_bytes(np.asarray(trace.column(name)), np.asarray(values, dtype=float)), name


METHODS = {
    "inclusion": (inclusion_init, inclusion_step, inclusion_run, 0.9),
    "pg_extra": (pg_extra_init, pg_extra_step, pg_extra_run, 1.8),
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("premix", [False, True])
@pytest.mark.parametrize("n, h", [(5, 3), (40, 4)])
def test_a_run_is_bitwise_its_init_and_step_loop(method, premix, n, h):
    init, step, run, share = METHODS[method]
    agents = random_inclusion_agents(n, h, seed=n + h, pool=("zero", "quadratic", "l1"))
    mixing = metropolis_mixing(random_connected_graph(n, 0.5 if n < 10 else 0.1, seed=n))
    tau = share * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(n).standard_normal((n, h))
    reference = np.zeros(h)
    for stop in (StoppingRule(tol=0.0, max_iters=150), StoppingRule(tol=1e-6, max_iters=100_000)):
        state, trace = run(agents, mixing, x0, tau, stop, premix=premix, reference=reference)
        assert trace.iterations > 20
        start = inclusion._start(agents, mixing, x0, tau, premix, reflect=method == "inclusion")
        last, columns = manual_loop(lambda: init(agents, mixing, x0, tau, premix=premix),
                                    lambda s: step(agents, mixing, s, tau), start, trace.iterations,
                                    reference)
        assert type(state.kernels) is type(last.kernels)
        for name in FIELDS:
            assert same_bytes(getattr(state, name), getattr(last, name)), name
        assert_same_trace(trace, columns)


@pytest.mark.parametrize("n", [6, 30])
def test_a_two_graph_minmax_run_is_bitwise_its_init_and_step_loop(n):
    p, d = 2, 3
    problems = random_saddle_problems(n, p, d, seed=n, coupling_kind="quadratic",
                                      prox_min_params={"weight": 0.05},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    mixing = BlockMixing(metropolis_mixing(random_connected_graph(n, 0.5, seed=n)),
                         metropolis_mixing(path_graph(n)))
    tau = 0.9 * stepsize_bound_pair(mixing, max(prob.lipschitz for prob in problems))
    rng = np.random.default_rng(n)
    x0, y0 = rng.uniform(-0.1, 0.1, (n, p)), rng.uniform(-0.1, 0.1, (n, d))
    ref_x, ref_y = np.zeros(p), np.zeros(d)
    for stop in (StoppingRule(tol=0.0, max_iters=150), StoppingRule(tol=1e-8, max_iters=100_000)):
        x, y, trace = minmax_run(problems, mixing, x0, y0, tau, stop, reference=(ref_x, ref_y))
        assert trace.iterations > 20
        start = inclusion._start(*minmax._stacked_setup(problems, mixing, x0, y0), tau, False, True)
        last, columns = manual_loop(lambda: minmax_init(problems, mixing, x0, y0, tau),
                                    lambda s: minmax_step(problems, mixing, s, tau), start,
                                    trace.iterations, np.zeros(p + d), split=p)
        mean = last.stacked.x.mean(axis=0)
        assert same_bytes(x, mean[:p]) and same_bytes(y, mean[p:])
        assert_same_trace(trace, columns)


@pytest.mark.parametrize("method", METHODS)
def test_a_step_continues_a_returned_state_as_a_longer_run(method):
    init, step, run, share = METHODS[method]
    n, h = 8, 3
    agents = random_inclusion_agents(n, h, seed=2)
    mixing = metropolis_mixing(ring_graph(n))
    tau = share * stepsize_bound(mixing, uniform_lipschitz(agents))
    x0 = np.random.default_rng(4).standard_normal((n, h))
    state, _ = run(agents, mixing, x0, tau, StoppingRule(tol=0.0, max_iters=40))
    longer, _ = run(agents, mixing, x0, tau, StoppingRule(tol=0.0, max_iters=41))
    stepped = step(agents, mixing, state, tau)
    assert stepped.kernels is state.kernels
    for name in FIELDS:
        assert same_bytes(getattr(stepped, name), getattr(longer, name)), name
