"""The instance families are built as stacks: one check, one Jacobian assembly
and one operator-norm pass per family.  Every seeded coupling, prox, Jacobian
and Lipschitz bound equals, bit for bit, the per-agent construction written
out here as the reference, drawn in the documented order."""

import numpy as np
import pytest

from saddlenet.config import build_problems, parse_config
from saddlenet.instances import (
    random_inclusion_agents,
    random_monotone_matrix,
    random_saddle_problems,
    seeded_couplings,
)
from saddlenet.operators import (
    bilinear_couplings,
    operator_norms,
    quadratic_coupling,
    quadratic_couplings,
    quadratic_prox,
    quadratic_proxes,
    saddle_forward,
)


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def looped_norm(m):
    """Reference: one SVD per matrix; 0 for an all-zero or empty one."""
    return float(np.linalg.norm(m, 2)) if np.any(m) else 0.0


def looped_couplings(n, p, d, seed, kind, scale=1.0):
    """Reference: the per-agent draws, Jacobian (``np.block``) and norm of each coupling."""
    rng = np.random.default_rng(seed)
    s = scale / np.sqrt(max(p, d, 1))
    out = []
    for _ in range(n):
        if kind == "zero":
            m, a, b = np.zeros((p, d)), np.zeros(p), np.zeros(d)
        else:
            if kind == "quadratic":
                gp = rng.standard_normal((p, p))
                gr = rng.standard_normal((d, d))
            m = rng.standard_normal((p, d)) * s
            a = rng.standard_normal(p) * s
            b = rng.standard_normal(d) * s
        if kind == "quadratic":
            pm = (gp @ gp.T) / max(p, 1) * s
            rm = (gr @ gr.T) / max(d, 1) * s
            jac = np.block([[pm, m], [-m.T, rm]])
            out.append(({"p_matrix": pm, "m": m, "r_matrix": rm, "a": a, "b": b},
                        jac, looped_norm(jac)))
        else:
            jac = np.block([[np.zeros((p, p)), m], [-m.T, np.zeros((d, d))]])
            out.append(({"m": m, "a": a, "b": b}, jac, looped_norm(m)))
    return out


def assert_couplings_match(couplings, reference, kind):
    x_rng = np.random.default_rng(0)
    for c, (params, jac, lip) in zip(couplings, reference, strict=True):
        assert c.kind == ("bilinear" if kind == "zero" else kind)
        assert params.keys() == c.params.keys()
        for key, value in params.items():
            assert_bitwise(c.params[key], value)
        assert_bitwise(c.jacobian, jac)
        assert_bitwise(saddle_forward(c).jacobian, jac)
        assert type(c.lipschitz) is float and c.lipschitz == lip
        # each agent's gradients read its own row of the stacks
        x, y = x_rng.standard_normal(c.p), x_rng.standard_normal(c.d)
        pm = params.get("p_matrix", np.zeros((c.p, c.p)))
        rm = params.get("r_matrix", np.zeros((c.d, c.d)))
        np.testing.assert_allclose(c.grad_x(x, y), pm @ x + params["m"] @ y + params["a"],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(c.grad_y(x, y), params["m"].T @ x - rm @ y - params["b"],
                                   rtol=0, atol=1e-12)


DIMS = [(3, 3), (4, 2), (1, 5), (8, 8), (0, 3), (3, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("kind", ["bilinear", "quadratic", "zero"])
@pytest.mark.parametrize("p, d", DIMS, ids=[f"p{p}-d{d}" for p, d in DIMS])
def test_seeded_couplings_are_bitwise_the_per_agent_construction(kind, p, d):
    assert_couplings_match(seeded_couplings(30, p, d, seed=5, kind=kind, scale=1.5),
                           looped_couplings(30, p, d, 5, kind, scale=1.5), kind)


def test_an_empty_stack_builds_no_agents():
    assert seeded_couplings(0, 3, 2, seed=1, kind="quadratic") == []
    assert random_inclusion_agents(0, 3, seed=1) == []


def test_operator_norms_are_the_per_matrix_norms():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((40, 5, 3))
    stack[::7] = 0.0
    norms = operator_norms(stack)
    assert norms.tolist() == [looped_norm(m) for m in stack]
    assert operator_norms(np.zeros((3, 0, 4))).tolist() == [0.0] * 3
    assert operator_norms(np.zeros((3, 4, 4))).tolist() == [0.0] * 3


def test_the_random50_instance_is_the_per_agent_construction():
    problems = random_saddle_problems(50, 3, 3, seed=7, coupling_kind="quadratic",
                                      prox_min_params={"weight": 0.05},
                                      prox_max_params={"lo": -1.0, "hi": 1.0})
    assert_couplings_match([prob.coupling for prob in problems],
                           looped_couplings(50, 3, 3, 7, "quadratic"), "quadratic")
    # one immutable prox of each kind, shared by every agent
    assert all(prob.prox_min is problems[0].prox_min for prob in problems)
    assert all(prob.prox_max is problems[0].prox_max for prob in problems)
    assert problems[0].prox_min.params == {"weight": 0.05}


def test_the_ring5_config_instance_is_the_per_agent_construction():
    cfg = parse_config("[problem]\nn = 5\np = 3\nd = 3\nprox_f = l1\nprox_f_weight = 0.3\n"
                       "prox_g = box_indicator\ncoupling = bilinear\nseed = 3\n"
                       "[graph]\ntopology = ring\n[algorithm]\nname = alg2\n")
    problems = build_problems(cfg)
    assert_couplings_match([prob.coupling for prob in problems],
                           looped_couplings(5, 3, 3, 3, "bilinear"), "bilinear")


def test_an_inline_coupling_is_built_once_for_every_agent():
    cfg = parse_config("[problem]\nn = 4\np = 2\nd = 1\ncoupling_m = 1; 2\n"
                       "[graph]\ntopology = ring\n[algorithm]\nname = alg2\n")
    problems = build_problems(cfg)
    assert all(prob.coupling is problems[0].coupling for prob in problems)
    assert problems[0].lipschitz == looped_norm(np.array([[1.0], [2.0]]))


def looped_inclusion_agents(n, h, seed, pool):
    """Reference: per agent the prox kind and its draws, then the forward matrix and its norm."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        kind = pool[int(rng.integers(0, len(pool)))]
        params = {}
        if kind == "l1":
            params = {"weight": float(rng.uniform(0.01, 0.5))}
        elif kind == "box_indicator":
            lo = rng.uniform(-2.0, 0.0, size=h)
            params = {"lo": lo, "hi": lo + rng.uniform(0.5, 3.0, size=h)}
        elif kind == "quadratic":
            g = rng.standard_normal((h, h))
            params = {"q_matrix": (g @ g.T) / h, "q_vec": rng.standard_normal(h) * 0.5}
        forward = random_monotone_matrix(h, rng)
        out.append((kind, params, forward, looped_norm(forward)))
    return out


@pytest.mark.parametrize("n, h, seed, pool", [
    (500, 8, 11, ("zero", "quadratic")),  # the benchmark's random500-inclusion agents
    (200, 3, 5, ("zero", "l1", "box_indicator", "quadratic")),
    (40, 1, 2, ("zero", "l1", "box_indicator", "quadratic")),
])
def test_inclusion_agents_are_bitwise_the_per_agent_construction(n, h, seed, pool):
    agents = random_inclusion_agents(n, h, seed, pool=pool)
    v = np.linspace(-3.0, 3.0, h)
    for agent, (kind, params, forward, lip) in zip(agents, looped_inclusion_agents(n, h, seed, pool),
                                                   strict=True):
        assert agent.resolvent.kind == kind
        assert agent.resolvent.params.keys() == params.keys()
        for key, value in params.items():
            assert_bitwise(agent.resolvent.params[key], value)
        if kind == "quadratic":
            # bit for bit the per-agent construction's prox; the textbook solve within 1e-14
            got = agent.resolvent(0.7, v)
            assert_bitwise(got, quadratic_prox(params["q_matrix"], params["q_vec"])(0.7, v))
            expected = np.linalg.solve(np.eye(h) + 0.7 * params["q_matrix"], v - 0.7 * params["q_vec"])
            assert np.abs(got - expected).max() <= 1e-14
        assert_bitwise(agent.forward.jacobian, forward)
        assert_bitwise(agent.forward(v), forward @ v)
        assert type(agent.lipschitz) is float and agent.lipschitz == lip


def psd_stack(n, k, seed):
    g = np.random.default_rng(seed).standard_normal((n, k, k))
    return np.matmul(g, np.swapaxes(g, 1, 2))


@pytest.mark.parametrize("fault, message", [
    ("asymmetric", "must be square symmetric"),
    ("indefinite", "must be positive semidefinite"),
])
@pytest.mark.parametrize("block", ["P", "R"])
def test_one_bad_agent_fails_the_coupling_stack_as_it_fails_alone(fault, message, block):
    n, p, d = 6, 3, 2
    pm, rm = psd_stack(n, p, 1), psd_stack(n, d, 2)
    bad = pm if block == "P" else rm
    if fault == "asymmetric":
        bad[4, 0, 1] += 1e-6
    else:
        bad[4] = -np.eye(bad.shape[1])
    m, a, b = np.zeros((n, p, d)), np.zeros((n, p)), np.zeros((n, d))
    expected = f"{block} {message}"
    with pytest.raises(ValueError, match=expected):
        quadratic_coupling(pm[4], m[4], rm[4])
    with pytest.raises(ValueError, match=expected):
        quadratic_couplings(pm, m, rm, a, b)


@pytest.mark.parametrize("fault, message", [
    ("asymmetric", "Q must be symmetric"),
    ("indefinite", "Q must be positive semidefinite"),
])
def test_one_bad_agent_fails_the_prox_stack_as_it_fails_alone(fault, message):
    q = psd_stack(5, 3, 3)
    if fault == "asymmetric":
        q[2, 1, 0] -= 1e-6
    else:
        q[2] = -np.eye(3)
    with pytest.raises(ValueError, match=message):
        quadratic_prox(q[2])
    with pytest.raises(ValueError, match=message):
        quadratic_proxes(q, np.zeros((5, 3)))
    with pytest.raises(ValueError, match="Q must be square"):
        quadratic_proxes(np.zeros((5, 3, 2)), np.zeros((5, 3)))


def test_stacks_of_mismatched_lengths_are_rejected():
    with pytest.raises(ValueError, match="inconsistent coupling dimensions"):
        bilinear_couplings(np.zeros((4, 3, 2)), np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="inconsistent coupling dimensions"):
        bilinear_couplings(np.zeros((4, 3, 2)), np.zeros((3, 3)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="inconsistent coupling dimensions"):
        quadratic_couplings(psd_stack(4, 3, 0), np.zeros((4, 3, 2)), psd_stack(3, 2, 0),
                            np.zeros((4, 3)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="q has the wrong length"):
        quadratic_proxes(psd_stack(4, 3, 0), np.zeros((4, 2)))
