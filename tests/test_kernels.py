"""Row-batched operator kernels and the one-exchange-per-block round.

A library prox evaluates one point as one row of its batched kernel, so
batched and per-point results agree bit for bit; both are held to the
textbook formulas (``np.clip``, soft thresholding, ``np.linalg.solve``,
``J z + F(0)``), bitwise where the arithmetic is the same and within 1e-14
where the kernel reorders it (a cached inverse instead of a solve, a
stacked ``matmul`` instead of a matrix-vector product).
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from saddlenet.graphs import metropolis_mixing, random_connected_graph, ring_graph
from saddlenet.inclusion import AgentInclusion, inclusion_init, inclusion_run, inclusion_step, pg_extra_run
from saddlenet.instances import random_monotone_matrix, random_saddle_problems
from saddlenet.minmax import (
    AgentSaddleProblem,
    BlockMixing,
    minmax_init,
    minmax_run,
    minmax_step,
    stack_agents,
    stepsize_bound_pair,
)
from saddlenet.operators import (
    ForwardOperator,
    Prox,
    SmoothCoupling,
    affine_forward,
    batched_forward,
    batched_resolvent,
    box_prox,
    l1_prox,
    linear_forward,
    product_resolvent,
    quadratic_prox,
    saddle_forward,
    _affine_rows,
    zero_point_prox,
    zero_prox,
)
from saddlenet.trace import StoppingRule

N, H = 6, 4
TAU = 0.37


def rows(seed=0, n=N, h=H):
    return np.random.default_rng(seed).standard_normal((n, h)) * 2.0


def per_agent(proxes, tau, u):
    return np.stack([prox(tau, u[i]) for i, prox in enumerate(proxes)])


def random_quadratic(rng, h=H):
    g = rng.standard_normal((h, h))
    return quadratic_prox(g @ g.T / h, rng.standard_normal(h))


def random_box(rng, h=H):
    lo = rng.uniform(-2.0, 0.0, size=h)
    return box_prox(lo, lo + rng.uniform(0.5, 3.0, size=h))


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------

BITWISE_KINDS = {
    "zero": lambda rng: zero_prox(),
    "zero_set_indicator": lambda rng: zero_point_prox(),
    "l1": lambda rng: l1_prox(float(rng.uniform(0.0, 1.0))),
    "scalar box": lambda rng: box_prox(-float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))),
    "per-coordinate box": random_box,
    "product of l1 and box": lambda rng: product_resolvent(
        l1_prox(float(rng.uniform(0.0, 1.0))), random_box(rng, 2), split=2),
    "box with infinite bounds": lambda rng: box_prox([-np.inf, -1.0, -np.inf, 0.0],
                                                     [np.inf, np.inf, 0.5, 0.0]),
    # scalar boxes whose bounds are signed zeros: ties at ±0 pick the same operand
    "scalar box at -0": lambda rng: box_prox(-0.0, -0.0),
    "scalar box at +0": lambda rng: box_prox(0.0, 0.0),
    "scalar box from -0 to +0": lambda rng: box_prox(-0.0, 0.0),
    "product of l1 and a signed-zero box": lambda rng: product_resolvent(
        l1_prox(0.3), box_prox(-0.0, 0.0), split=2),
}

NON_FINITE_AND_SIGNED_ZEROS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def kinks(prox, h, tau):
    """Rows where ``prox`` switches branch: ``±tau w`` (l1), the bounds (box), per factor."""
    if prox.kind == "l1":
        return [np.full(h, tau * prox.params["weight"]), np.full(h, -tau * prox.params["weight"])]
    if prox.kind == "box_indicator":
        return [np.broadcast_to(prox.params[bound], (h,)) for bound in ("lo", "hi")]
    if prox.kind == "product":
        split = prox.params["split"]
        first = kinks(prox.params["first"], split, tau)
        second = kinks(prox.params["second"], h - split, tau)
        return [np.concatenate(pair) for pair in zip(first, second)]
    return []


def edge_rows(proxes, tau):
    """Random rows, rows of signed zeros, infinities and NaN, and rows at every agent's kinks."""
    out = [rows(2)]
    shifted = np.arange(N * H).reshape(N, H) + np.arange(N)[:, None]
    count = len(NON_FINITE_AND_SIGNED_ZEROS)
    out += [NON_FINITE_AND_SIGNED_ZEROS[(shifted + k) % count] for k in range(count)]
    agent_kinks = [kinks(prox, H, tau) or [np.zeros(H)] for prox in proxes]
    out += [np.stack([k[j % len(k)] for k in agent_kinks]) for j in range(2)]
    return out


@pytest.mark.parametrize("name", sorted(BITWISE_KINDS))
def test_batched_resolvent_is_bitwise_per_agent(name):
    rng = np.random.default_rng(1)
    proxes = [BITWISE_KINDS[name](rng) for _ in range(N)]
    fn = batched_resolvent(proxes, H)
    for tau in (TAU, 2.5, TAU):  # the cached l1 thresholds follow a change of tau
        for u in edge_rows(proxes, tau):
            got, want = fn(tau, u), per_agent(proxes, tau, u)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # the sign of a zero counts


def plain(prox, tau, row):
    """The textbook formula of a clip-family prox on one row."""
    if prox.kind == "l1":
        return np.sign(row) * np.maximum(np.abs(row) - tau * prox.params["weight"], 0.0)
    if prox.kind == "box_indicator":
        return np.clip(row, prox.params["lo"], prox.params["hi"])
    if prox.kind == "zero":
        return row.copy()
    split = prox.params["split"]
    return np.concatenate([plain(prox.params["first"], tau, row[:split]),
                           plain(prox.params["second"], tau, row[split:])])


CLIP_FAMILY = {
    "l1": BITWISE_KINDS["l1"],
    "box": random_box,
    "zero": BITWISE_KINDS["zero"],
    "product of l1 and box": BITWISE_KINDS["product of l1 and box"],
    "product of box and l1": lambda rng: product_resolvent(
        random_box(rng, 3), l1_prox(float(rng.uniform(0.0, 1.0))), split=3),
    "product of l1 and zero": lambda rng: product_resolvent(
        l1_prox(float(rng.uniform(0.0, 1.0))), zero_prox(), split=1),
    "nested product": lambda rng: product_resolvent(
        product_resolvent(zero_prox(), l1_prox(0.4), split=1), random_box(rng, 2), split=2),
}


@pytest.mark.parametrize("name", sorted(CLIP_FAMILY) + ["every kind in one group"])
def test_clip_family_kernels_are_the_plain_formulas(name):
    rng = np.random.default_rng(2)
    makers = list(CLIP_FAMILY.values()) if name not in CLIP_FAMILY else [CLIP_FAMILY[name]]
    proxes = [makers[i % len(makers)](rng) for i in range(N)]
    fn = batched_resolvent(proxes, H)
    for tau in (TAU, 2.5, TAU):
        for u in edge_rows(proxes, tau):
            assert_array_equal(fn(tau, u), np.stack([plain(p, tau, u[i]) for i, p in enumerate(proxes)]))


def test_the_l1_dead_zone_is_positive_zero():
    """``u - clip(u, -t w, t w)`` is ``+0.0`` on the whole dead zone, negative ``u`` included."""
    u = np.array([-0.5, -0.2, -0.0, 0.0, 0.2, 0.5, -1.0, 1.0])
    want = np.array([0.0] * 6 + [-0.5, 0.5])
    prox = l1_prox(1.0)
    for got in (prox(0.5, u), batched_resolvent([prox], 8)(0.5, u[None])[0],
                batched_resolvent([product_resolvent(prox, box_prox(-1.0, 1.0), split=8)], 9)(
                    0.5, np.append(u, 2.0)[None])[0, :8]):
        assert got.tobytes() == want.tobytes()


def test_per_point_quadratic_prox_is_the_textbook_solve():
    rng = np.random.default_rng(39)
    for _ in range(N):
        prox = random_quadratic(rng)
        q, qv = prox.params["q_matrix"], prox.params["q_vec"]
        for tau in (TAU, 2.5, TAU):
            v = rng.standard_normal(H) * 2.0
            want = np.linalg.solve(np.eye(H) + tau * q, v - tau * qv)
            assert np.abs(prox(tau, v) - want).max() <= 1e-14


def test_batched_quadratic_matches_per_agent_solves():
    rng = np.random.default_rng(3)
    proxes = [random_quadratic(rng) for _ in range(N)]
    fn = batched_resolvent(proxes, H)
    for tau in (TAU, 2.5, TAU):  # the cached inverse follows a change of tau
        u = rows(4)
        assert np.abs(fn(tau, u) - per_agent(proxes, tau, u)).max() <= 1e-14


def test_batched_product_with_quadratic_factor():
    rng = np.random.default_rng(5)
    proxes = [product_resolvent(random_quadratic(rng, 3), l1_prox(0.2), split=3) for _ in range(N)]
    u = rows(6)
    assert np.abs(batched_resolvent(proxes, H)(TAU, u) - per_agent(proxes, TAU, u)).max() <= 1e-14


def test_agents_of_mixed_kinds_are_grouped_by_row():
    rng = np.random.default_rng(7)
    makers = [lambda: zero_prox(), lambda: l1_prox(0.3), lambda: random_box(rng),
              lambda: random_quadratic(rng), lambda: zero_point_prox()]
    proxes = [makers[int(k)]() for k in rng.integers(0, len(makers), size=12)]
    u = rows(8, n=12)
    out = batched_resolvent(proxes, H)(TAU, u)
    ref = per_agent(proxes, TAU, u)
    exact = [i for i, p in enumerate(proxes) if p.kind != "quadratic"]
    assert len(exact) < len(proxes)
    assert_array_equal(out[exact], ref[exact])
    assert np.abs(out - ref).max() <= 1e-14


class CountingProx(Prox):
    """A custom-kind prox that counts its calls."""

    def __init__(self):
        super().__init__(lambda t, v: v / (1.0 + t))
        self.calls = 0

    def __call__(self, tau, point):
        self.calls += 1
        return super().__call__(tau, point)


def test_batched_resolvent_checks_tau_on_every_call():
    fn = batched_resolvent([l1_prox(0.1), zero_prox()], H)
    fn(TAU, rows(n=2))
    for tau in (0.0, -1.0, np.nan, [TAU, 0.0]):
        with pytest.raises(ValueError, match="tau must be positive"):
            fn(tau, rows(n=2))
    with pytest.raises(ValueError, match="one entry per row"):
        fn([TAU] * 3, rows(n=2))


def test_batched_resolvent_steps_each_row_at_its_own_tau():
    proxes = [l1_prox(0.1), random_quadratic(np.random.default_rng(46)),
              product_resolvent(l1_prox(0.2), box_prox(-1.0, 1.0), split=2), zero_prox()]
    steps = [0.3, 1.7, 0.05, 2.0]
    u = rows(47, n=4)
    assert_array_equal(batched_resolvent(proxes, H)(steps, u),
                       np.stack([p(t, row) for p, t, row in zip(proxes, steps, u)]))


LIBRARY_KINDS = {**BITWISE_KINDS, "quadratic": random_quadratic,
                 "product of quadratic and l1": lambda rng: product_resolvent(
                     random_quadratic(rng, 3), l1_prox(0.2), split=3)}


@pytest.mark.parametrize("name", sorted(LIBRARY_KINDS))
def test_a_library_prox_rejects_a_nan_or_nonpositive_step(name):
    prox = LIBRARY_KINDS[name](np.random.default_rng(40))
    for tau in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="tau must be positive"):
            prox(tau, rows()[0])


@pytest.mark.parametrize("name", sorted(LIBRARY_KINDS))
def test_a_library_prox_rejects_a_point_that_is_not_1d(name):
    prox = LIBRARY_KINDS[name](np.random.default_rng(41))
    for point in (rows(n=2), rows(n=1), np.float64(0.5), np.ones((H, 1))):
        with pytest.raises(ValueError, match="expects a 1-D point"):
            prox(TAU, point)


@pytest.mark.parametrize("name", sorted(LIBRARY_KINDS))
def test_a_library_prox_is_one_row_of_its_kernel_built_once_per_length(name, monkeypatch):
    from saddlenet import operators

    built = []
    prox_rows = operators._prox_rows

    def counting(proxes, h, tau):
        built.append(h)
        return prox_rows(proxes, h, tau)

    monkeypatch.setattr(operators, "_prox_rows", counting)
    prox = LIBRARY_KINDS[name](np.random.default_rng(42))
    u = rows(43, n=3)
    for tau in (TAU, 2.5):
        got = np.stack([prox(tau, row) for row in u])
        assert got.tobytes() == batched_resolvent([prox] * 3, H)(tau, u).tobytes()
    assert built.count(H) == 4  # the per-point kernel once per step, and one per batched build
    if name in ("zero", "zero_set_indicator", "l1", "scalar box"):  # any length is legal
        prox(TAU, np.ones(H + 3))
        assert built.count(H + 3) == 1


def test_library_factories_define_no_callables():
    rng = np.random.default_rng(44)
    for make in LIBRARY_KINDS.values():
        assert make(rng)._fn is None
    matrix = random_monotone_matrix(H, rng)
    forwards = [linear_forward(matrix), affine_forward(matrix, rng.standard_normal(H))]
    for kind in ("bilinear", "quadratic"):
        forwards += [saddle_forward(prob.coupling)
                     for prob in random_saddle_problems(2, 3, H - 3, seed=45, coupling_kind=kind)]
    assert all(f.fn is None for f in forwards)


@pytest.mark.parametrize("prox", [
    quadratic_prox(np.eye(3)),
    box_prox(np.zeros(3), np.ones(3)),
    product_resolvent(l1_prox(0.1), zero_prox(), split=H + 1),
])
def test_batched_resolvent_checks_dim_at_build(prox):
    with pytest.raises(ValueError):
        batched_resolvent([zero_prox(), prox], H)


def test_inclusion_init_rejects_a_prox_of_the_wrong_dim():
    w = metropolis_mixing(ring_graph(3))
    agents = [AgentInclusion(quadratic_prox(np.eye(3)), linear_forward(np.eye(H), lipschitz=1.0))
              for _ in range(3)]
    with pytest.raises(ValueError):
        inclusion_init(agents, w, np.zeros((3, H)), 0.1)


# ---------------------------------------------------------------------------
# forward maps
# ---------------------------------------------------------------------------

def test_batched_linear_and_affine_forwards():
    rng = np.random.default_rng(9)
    forwards = [linear_forward(random_monotone_matrix(H, rng), lipschitz=1.0) for _ in range(3)]
    forwards += [affine_forward(random_monotone_matrix(H, rng), rng.standard_normal(H), lipschitz=1.0)
                 for _ in range(3)]
    z = rows(10)
    ref = np.stack([f(z[i]) for i, f in enumerate(forwards)])
    assert np.abs(batched_forward(forwards, H)(z) - ref).max() <= 1e-14


@pytest.mark.parametrize("kind", ["bilinear", "quadratic"])
def test_batched_saddle_forward(kind):
    p, d = 3, 2
    problems = random_saddle_problems(N, p, d, seed=11, coupling_kind=kind)
    forwards = [saddle_forward(prob.coupling) for prob in problems]
    z = rows(12, h=p + d)
    ref = np.stack([f(z[i]) for i, f in enumerate(forwards)])
    assert np.abs(batched_forward(forwards, p + d)(z) - ref).max() <= 1e-14


def test_per_point_affine_forwards_are_the_textbook_formula():
    rng = np.random.default_rng(46)
    matrix = random_monotone_matrix(H, rng)
    cases = [(linear_forward(matrix), matrix, np.zeros(H))]
    offset = rng.standard_normal(H)
    cases.append((affine_forward(matrix, offset), matrix, offset))
    for prob in random_saddle_problems(3, 2, H - 2, seed=47, coupling_kind="quadratic"):
        c = prob.coupling
        pm, m, rm, a, b = (c.params[k] for k in ("p_matrix", "m", "r_matrix", "a", "b"))
        cases.append((saddle_forward(c), np.block([[pm, m], [-m.T, rm]]), np.concatenate([a, b])))
    for forward, jac, f0 in cases:
        for z in rows(48):
            assert np.abs(forward(z) - (jac @ z + f0)).max() <= 1e-14


def test_affine_forward_is_evaluated_through_its_jacobian():
    calls = []
    matrix = random_monotone_matrix(H, np.random.default_rng(13))
    offset = np.arange(float(H))

    def fn(z):
        calls.append(1)
        return matrix @ z + offset

    forward = ForwardOperator(fn, 1.0, matrix)
    assert len(calls) == 1  # F(0), once, when the map is built
    batched = batched_forward([forward] * N, H)
    z = rows(14)
    for _ in range(3):
        out = batched(z)
        point = forward(z[0])
    assert len(calls) == 1
    assert np.abs(out - (z @ matrix.T + offset)).max() <= 1e-14
    assert np.abs(point - (matrix @ z[0] + offset)).max() <= 1e-14


class CountingForward:
    """A forward map without a Jacobian that counts its calls."""

    jacobian = None
    lipschitz = 1.0

    def __init__(self):
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return 0.5 * z


def test_custom_prox_and_jacobianless_forward_run_once_per_agent_per_round():
    n = 4
    mixing = metropolis_mixing(ring_graph(n))
    agents = [AgentInclusion(CountingProx(), CountingForward()) for _ in range(n)]
    # one library agent in the mix: the custom ones still run on their own rows
    agents[2] = AgentInclusion(l1_prox(0.1), linear_forward(0.5 * np.eye(H), lipschitz=1.0))
    custom = [a for a in agents if isinstance(a.resolvent, CountingProx)]
    state = inclusion_init(agents, mixing, rows(15, n=n), 0.1)
    before = [(a.resolvent.calls, a.forward.calls) for a in custom]
    for k in range(1, 4):
        state = inclusion_step(agents, mixing, state, 0.1)
        assert [(a.resolvent.calls, a.forward.calls) for a in custom] == \
            [(r + k, f + k) for r, f in before]


def test_custom_coupling_gradients_run_once_per_agent_per_round():
    n, p, d = 3, 2, 2
    calls = {"x": 0, "y": 0}
    m = np.array([[1.0, 0.5], [0.0, 1.0]])

    def grad_x(x, y):
        calls["x"] += 1
        return m @ y

    def grad_y(x, y):
        calls["y"] += 1
        return m.T @ x

    coupling = SmoothCoupling(p=p, d=d, grad_x=grad_x, grad_y=grad_y, lipschitz=2.0)
    problems = [AgentSaddleProblem(l1_prox(0.1), zero_prox(), coupling) for _ in range(n)]
    w = metropolis_mixing(ring_graph(n))
    mixing = BlockMixing(w, w)
    state = minmax_init(problems, mixing, rows(16, n=n, h=p), rows(17, n=n, h=d), 0.05)
    for k in range(1, 4):
        before = dict(calls)
        state = minmax_step(problems, mixing, state, 0.05)
        assert calls == {"x": before["x"] + n, "y": before["y"] + n}


# ---------------------------------------------------------------------------
# one exchange per block per round
# ---------------------------------------------------------------------------

class CountingMixing:
    """A mixing that counts its exchanges.

    It has only ``apply``, ``n`` and ``lambda_min`` (no dense ``w``), so the
    solvers mix through ``apply`` rather than the one-product kernel.
    """

    def __init__(self, inner):
        self._inner = inner
        self.n = inner.n
        self.lambda_min = inner.lambda_min
        self.calls = 0

    def apply(self, x):
        self.calls += 1
        return self._inner.apply(x)


def shifted_agents(n, h, seed):
    rng = np.random.default_rng(seed)
    return [AgentInclusion(l1_prox(0.05), affine_forward(np.eye(h), rng.standard_normal(h), lipschitz=1.0))
            for _ in range(n)]


@pytest.mark.parametrize("run", [inclusion_run, pg_extra_run])
@pytest.mark.parametrize("premix", [False, True])
def test_stacked_runs_exchange_once_per_round(run, premix):
    n = 6
    mixing = CountingMixing(metropolis_mixing(random_connected_graph(n, 0.5, seed=2)))
    agents = shifted_agents(n, 3, seed=3)
    _, trace = run(agents, mixing, rows(18, n=n, h=3), 0.2,
                   StoppingRule(tol=1e-9, max_iters=5000), premix=premix)
    assert trace.converged and trace.iterations > 10
    # the start forms W x0 once, premixed or not; each round then mixes its new x
    assert mixing.calls == trace.iterations + 1


def test_minmax_run_exchanges_once_per_block_per_round():
    """One product per block and round; blocks that share one matrix share one product."""
    n, p, d = 5, 2, 3
    problems = random_saddle_problems(n, p, d, seed=4, coupling_kind="quadratic")
    w1 = CountingMixing(metropolis_mixing(ring_graph(n)))
    w2 = CountingMixing(metropolis_mixing(random_connected_graph(n, 0.6, seed=4)))
    shared = CountingMixing(metropolis_mixing(ring_graph(n)))
    for mixing in (BlockMixing(w1, w2), BlockMixing(shared, shared)):
        tau = 0.8 * stepsize_bound_pair(mixing, max(prob.lipschitz for prob in problems))
        _, _, trace = minmax_run(problems, mixing, rows(19, n=n, h=p), rows(20, n=n, h=d), tau,
                                 StoppingRule(tol=1e-10, max_iters=20000))
        assert trace.converged and trace.iterations > 10
        # one product per round, and one for the start's dual sum
        assert (mixing.w1.calls, mixing.w2.calls) == (trace.iterations + 1, trace.iterations + 1)


def test_a_state_without_its_cached_products_steps_the_same():
    n = 5
    agents = shifted_agents(n, 3, seed=5)
    tau = 0.15
    for mixing in (metropolis_mixing(ring_graph(n)), CountingMixing(metropolis_mixing(ring_graph(n)))):
        state = inclusion_step(agents, mixing, inclusion_init(agents, mixing, rows(21, n=n, h=3), tau), tau)
        assert state.w is not None  # the kernels formed W x with b
        kept = inclusion_step(agents, mixing, state, tau)
        for bare in (dataclasses.replace(state, w=None), dataclasses.replace(state, kernels=None)):
            stepped = inclusion_step(agents, mixing, bare, tau)
            for name in ("u", "x", "g", "b", "e", "w", "half"):
                assert_array_equal(getattr(stepped, name), getattr(kept, name))


# ---------------------------------------------------------------------------
# affine maps carry their value at 0; shared proxes are read once
# ---------------------------------------------------------------------------

def test_library_affine_maps_carry_their_value_at_zero():
    rng = np.random.default_rng(30)
    matrix = random_monotone_matrix(H, rng)
    forwards = [linear_forward(matrix), affine_forward(matrix, rng.standard_normal(H))]
    for kind in ("bilinear", "quadratic"):
        forwards += [saddle_forward(prob.coupling)
                     for prob in random_saddle_problems(2, 3, H - 3, seed=31, coupling_kind=kind)]
    for f in forwards:
        assert_array_equal(f.offset, f(np.zeros(H)))


def test_batched_forward_stacks_offsets_without_calling_the_maps():
    calls = []
    matrix = random_monotone_matrix(H, np.random.default_rng(32))
    offset = np.arange(float(H))

    def fn(z):
        calls.append(1)
        return matrix @ z + offset

    forwards = [ForwardOperator(fn, 1.0, matrix, offset)] * N
    z = rows(33)
    out = batched_forward(forwards, H)(z)
    assert calls == []
    assert np.abs(out - (z @ matrix.T + offset)).max() <= 1e-14
    # tau folded into the stack: (tau J) z + tau F(0)
    scaled = batched_forward(forwards, H, scale=TAU)(z)
    assert np.abs(scaled - TAU * out).max() <= 1e-14 * np.abs(out).max()


def test_all_zero_offsets_are_not_added():
    rng = np.random.default_rng(34)
    forwards = [linear_forward(random_monotone_matrix(H, rng)) for _ in range(3)]
    jac, offset = _affine_rows(forwards, H)
    assert offset is None
    z = rows(35, n=3)
    assert_array_equal(batched_forward(forwards, H)(z), np.matmul(jac, z[:, :, None])[:, :, 0])


def test_jacobianless_forwards_are_scaled_per_row():
    forwards = [CountingForward() for _ in range(3)]
    z = rows(36, n=3)
    assert_array_equal(batched_forward(forwards, H, scale=TAU)(z), TAU * (0.5 * z))


def test_agents_sharing_their_proxes_share_one_product_resolvent():
    problems = random_saddle_problems(8, 2, 3, seed=37)
    agents = stack_agents(problems)
    assert len({id(a.resolvent) for a in agents}) == 1
    other = AgentSaddleProblem(l1_prox(0.2), problems[0].prox_max, problems[0].coupling)
    assert len({id(a.resolvent) for a in stack_agents(problems + [other])}) == 2


def test_clip_columns_are_derived_once_per_distinct_prox(monkeypatch):
    from saddlenet import operators

    seen = []
    clip_columns = operators._clip_columns

    def counting(prox, h):
        seen.append(prox)
        return clip_columns(prox, h)

    monkeypatch.setattr(operators, "_clip_columns", counting)
    shared = product_resolvent(l1_prox(0.1), box_prox(-1.0, 1.0), split=2)
    proxes = [shared] * 20 + [l1_prox(0.3)] * 5
    u = rows(38, n=25)
    out = batched_resolvent(proxes, H)(TAU, u)
    assert [p.kind for p in seen].count("product") == 1
    assert [p.kind for p in seen].count("l1") == 2  # the product's factor and the other prox
    assert_array_equal(out, per_agent(proxes, TAU, u))
