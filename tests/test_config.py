import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saddlenet import config, graphs, instances
from saddlenet.config import (
    ConfigError,
    ExperimentConfig,
    build_block_mixing,
    build_problems,
    build_start,
    declared_lipschitz,
    load_config,
    parse_config,
    resolve_steps,
    serialize_config,
)
from saddlenet.graphs import random_connected_graph
from saddlenet.inclusion import _step_gate

FULL = """
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
scale = 1.0

[graph]
topology = ring

[mixing]
scheme = metropolis

[algorithm]
name = alg2
tau = auto
safety = 0.9

[run]
max_iters = 100000
tol = 1e-12
"""


def test_parse_full_config():
    cfg = parse_config(FULL)
    assert cfg.problem.n == 5
    assert cfg.problem.prox_f == "l1"
    assert cfg.problem.prox_f_weight == 0.3
    assert cfg.graph.topology == "ring"
    assert cfg.algorithm.names == ("alg2",)
    assert cfg.algorithm.tau == "auto"
    assert cfg.run.tol == 1e-12


def test_defaults_come_from_empty_text():
    cfg = parse_config("")
    assert cfg.problem.n == 3
    assert cfg.algorithm.names == ("alg2",)
    assert cfg.run.max_iters == 100_000
    assert cfg.run.reference is False


def test_round_trip_is_exact():
    for text in ("", FULL):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_with_inline_matrices_and_starts():
    text = """
[problem]
n = 3
p = 2
d = 1
coupling_m = 1.0, 0.5; -0.25, 0.125
coupling_a = 0.1, 0.2
x0 = 1.0, -1.0
y0 = 0.5
"""
    cfg = parse_config(text)
    assert cfg.problem.coupling_m == ((1.0, 0.5), (-0.25, 0.125))
    assert cfg.problem.x0 == (1.0, -1.0)
    assert parse_config(serialize_config(cfg)) == cfg


def test_unknown_section_and_key_are_named():
    with pytest.raises(ConfigError, match="solver"):
        parse_config("[solver]\nx = 1\n")
    with pytest.raises(ConfigError, match="problem.frobnicate"):
        parse_config("[problem]\nfrobnicate = 1\n")
    with pytest.raises(ConfigError, match="run.tol"):
        parse_config("[run]\ntol = very small\n")


def test_validation_messages_name_the_field():
    with pytest.raises(ConfigError, match="problem.n"):
        parse_config("[problem]\nn = 0\n")
    with pytest.raises(ConfigError, match="algorithm.safety"):
        parse_config("[algorithm]\nsafety = 1.5\n")
    with pytest.raises(ConfigError, match="algorithm.tau"):
        parse_config("[algorithm]\ntau = -0.1\n")
    with pytest.raises(ConfigError, match="run.trace_every"):
        parse_config("[run]\ntrace_every = 0\n")
    with pytest.raises(ConfigError, match="mixing.alpha"):
        parse_config("[mixing]\nscheme = laplacian\n")
    with pytest.raises(ConfigError, match="unknown algorithm"):
        parse_config("[algorithm]\nname = admm\n")


def test_boolean_spellings():
    assert parse_config("[run]\nreference = on\n").run.reference is True
    assert parse_config("[run]\nreference = Yes\n").run.reference is True
    assert parse_config("[run]\nreference = 0\n").run.reference is False
    with pytest.raises(ConfigError):
        parse_config("[run]\nreference = maybe\n")


def test_algorithm_name_lists():
    cfg = parse_config("[algorithm]\nname = pdtr, condat_vu\n")
    assert cfg.algorithm.names == ("pdtr", "condat_vu")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_build_block_mixing_shares_the_graph_by_default():
    cfg = parse_config(FULL)
    mixing = build_block_mixing(cfg)
    assert mixing.w1 is mixing.w2
    assert mixing.n == 5
    assert mixing.split == 3


def test_build_block_mixing_with_separate_y_graph():
    text = FULL + "\n"
    cfg = parse_config(text.replace("topology = ring", "topology = ring\ntopology_y = star"))
    mixing = build_block_mixing(cfg)
    assert mixing.w1 is not mixing.w2
    assert mixing.w2.graph.degree(0) == 4  # star center

    # seed_y and density_y alone give the y block its own random graph; the
    # keys it leaves unset take the x graph's values
    random_x = "topology = random\ndensity = 0.3\nseed = 1"
    for y_keys, density, seed in [("seed_y = 5", 0.3, 5), ("density_y = 0.9", 0.9, 1),
                                  ("density_y = 0.9\nseed_y = 5", 0.9, 5)]:
        cfg = parse_config(text.replace("topology = ring", f"{random_x}\n{y_keys}"))
        mixing = build_block_mixing(cfg)
        assert mixing.w1.graph.edges == random_connected_graph(5, 0.3, 1).edges
        assert mixing.w2.graph.edges == random_connected_graph(5, density, seed).edges
        assert mixing.w2.graph.edges != mixing.w1.graph.edges

    # on an edge-list x graph, seed_y alone keeps the x graph's edges
    cfg = parse_config(text.replace("topology = ring", "edges = 0 1\n\t1 2\n\t2 3\n\t3 4\n"
                                    "seed_y = 5"))
    mixing = build_block_mixing(cfg)
    assert mixing.w2.graph.edges == mixing.w1.graph.edges
    assert_array_equal(mixing.w2.w, mixing.w1.w)


def test_build_graph_from_inline_edges():
    # INI continuation lines (indented) carry a multi-line edge list
    cfg = parse_config("[problem]\nn = 3\n[graph]\nedges = 0 1\n\t1 2\n")
    mixing = build_block_mixing(cfg)
    assert mixing.w1.graph.edges == frozenset({(0, 1), (1, 2)})


def test_malformed_inline_edges_become_config_errors():
    cfg = parse_config("[problem]\nn = 3\n[graph]\nedges = 0 1; 1 2\n")
    with pytest.raises(ConfigError, match="graph"):
        build_block_mixing(cfg)  # ';' is not an edge-list separator


def test_graph_size_mismatch_is_caught():
    cfg = parse_config("[problem]\nn = 4\n[graph]\nedges = 0 1\n")
    with pytest.raises(ConfigError, match="graph"):
        build_block_mixing(cfg)


def test_build_problems_seeded():
    cfg = parse_config(FULL)
    problems = build_problems(cfg)
    assert len(problems) == 5
    assert all(prob.prox_min.kind == "l1" for prob in problems)
    assert all(prob.prox_max.kind == "box_indicator" for prob in problems)
    again = build_problems(cfg)
    x, y = np.ones(3), np.ones(3)
    for a, b in zip(problems, again):
        assert_array_equal(a.coupling.grad_x(x, y), b.coupling.grad_x(x, y))


def test_build_problems_inline_coupling_shared_by_all_agents():
    cfg = parse_config("""
[problem]
n = 3
p = 1
d = 1
coupling_m = 2.0
""")
    problems = build_problems(cfg)
    for prob in problems:
        assert_allclose(prob.coupling.params["m"], [[2.0]])
    assert problems[0].lipschitz == pytest.approx(2.0)


def test_inline_coupling_shape_checks():
    cfg = parse_config("[problem]\np = 2\nd = 1\ncoupling_m = 1.0, 2.0\n")
    with pytest.raises(ConfigError, match="coupling_m"):
        build_problems(cfg)


def test_declared_lipschitz_override_and_zero_curvature():
    cfg = parse_config("[problem]\ncoupling = zero\nd = 0\np = 1\n")
    problems = build_problems(cfg)
    assert declared_lipschitz(cfg, problems) == (0.0,) * 3  # zero curvature is declared as it is
    cfg2 = parse_config("[problem]\nlipschitz = 7.5\n")
    assert declared_lipschitz(cfg2, build_problems(cfg2)) == (7.5,) * 3  # one constant for every agent
    cfg3 = parse_config("[problem]\nlipschitz = -1.0\n")
    with pytest.raises(ConfigError, match="lipschitz"):
        declared_lipschitz(cfg3, problems)


def _exact_rho(mixing, c):
    """``max lambda_max(C^{1/2} (I - W) C^{1/2}) / 2`` over the two blocks, by dense eigensolves."""
    root = np.sqrt(c)
    return max(np.linalg.eigvalsh(np.diag(c) - np.outer(root, root) * m.w)[-1] for m in (mixing.w1, mixing.w2)) / 2


def test_resolve_steps_auto_rule():
    cfg = parse_config(FULL)
    mixing = build_block_mixing(cfg)
    problems = build_problems(cfg)
    lips = declared_lipschitz(cfg, problems)
    assert lips == tuple(prob.lipschitz for prob in problems) and len(set(lips)) == 5
    tau, sigma = resolve_steps(cfg, mixing, lips)
    # each agent at 0.9 of its own gate (1 - rho) / (2 L~_i), L~_i = max(L_i, L_max / 2), at the
    # exact rho of the ratios c_i = L~_min / L~_i, as Python floats
    assert type(tau) is tuple and all(type(t) is float for t in tau)
    capped = np.maximum(lips, max(lips) / 2.0)
    rho = _exact_rho(mixing, capped.min() / capped)
    assert rho < (1.0 - mixing.lambda_min) / 2.0
    assert tau == pytest.approx([0.9 * (1.0 - rho) / (2.0 * lip) for lip in capped], rel=1e-14)
    assert max(tau) <= 2.0 * min(tau) * (1.0 + 1e-15)
    # sigma = 1 / the one-tau step, the gate's step at max L_i
    one = _step_gate(mixing, max(lips), True, 0.9)
    assert sigma == 1.0 / one
    # one constant, the worst agent's, is the one-tau rule: that step bitwise, for every agent
    assert resolve_steps(cfg, mixing, max(lips)) == ((one,) * 5, sigma)


def test_resolve_steps_gives_a_zero_curvature_agent_the_largest_finite_step():
    cfg = parse_config(FULL)
    mixing = build_block_mixing(cfg)
    tau, _ = resolve_steps(cfg, mixing, (0.0, 2.0, 1.0, 0.0, 2.0))
    # L~ = (1, 2, 1, 1, 2): the zero-curvature agents take the step at the least L~ (c_i = 1)
    rho = _exact_rho(mixing, np.array([1.0, 0.5, 1.0, 1.0, 0.5]))
    at = [0.9 * (1.0 - rho) / (2.0 * lip) for lip in (2.0, 1.0)]
    assert tau == pytest.approx((at[1], at[0], at[1], at[1], at[0]), rel=1e-14)


def test_resolve_steps_at_zero_curvature_takes_the_step_at_unit_lipschitz():
    # every gate is inf: each agent takes safety times the gate at L = 1, a finite step
    cfg = parse_config(FULL)
    mixing = build_block_mixing(cfg)
    step = _step_gate(mixing, 1.0, True, 0.9)
    assert np.isfinite(step)
    for lipschitz in ((0.0,) * 5, 0.0, [0.0], np.zeros(5)):
        assert resolve_steps(cfg, mixing, lipschitz) == ((step,) * 5, 1.0 / step)


@pytest.mark.parametrize("tau", ["auto", "0.05"])
def test_resolve_steps_gives_one_float_per_agent_whatever_the_form_of_its_constants(tau):
    cfg = parse_config(FULL.replace("tau = auto", f"tau = {tau}"))
    mixing = build_block_mixing(cfg)
    one = resolve_steps(cfg, mixing, 2.0)
    assert type(one[0]) is tuple and len(one[0]) == 5 and all(type(t) is float for t in one[0])
    for each in ((2.0,) * 5, [2.0] * 5, np.full(5, 2.0), (2.0,)):
        assert resolve_steps(cfg, mixing, each) == one
    for count in (3, 6):
        with pytest.raises(ValueError, match=f"one Lipschitz constant or 5, one per agent, got {count}"):
            resolve_steps(cfg, mixing, (2.0,) * count)


def test_resolve_steps_explicit_values_pass_through():
    cfg = parse_config("[algorithm]\ntau = 0.05\nsigma = 2.0\n")
    tau, sigma = resolve_steps(cfg, build_block_mixing(cfg), 1.0)
    assert (tau, sigma) == ((0.05,) * 3, 2.0)


@pytest.mark.parametrize("text, message", [
    ("[graph]\ntopology = bogus\n", "graph.topology: cannot parse 'bogus' "
     "(must be one of path, ring, star, complete, random)"),
    ("[problem]\ncoupling = bogus\n", "problem.coupling: cannot parse 'bogus' "
     "(must be one of bilinear, quadratic, zero)"),
])
def test_the_name_tables_read_the_graph_and_instance_tables_in_their_order(text, message):
    # the config's topologies are the named graphs and "random"; its couplings are seeded_couplings'
    assert config._TOPOLOGIES == (*graphs._TOPOLOGIES, "random")
    assert config._COUPLINGS is instances._COUPLINGS
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


def test_build_start_replicates_rows():
    cfg = parse_config("[problem]\nn = 3\np = 2\nd = 1\nx0 = 1.0, 2.0\ny0 = -1.0\n")
    x0, y0 = build_start(cfg)
    assert_array_equal(x0, np.tile([1.0, 2.0], (3, 1)))
    assert_array_equal(y0, np.tile([-1.0], (3, 1)))
    cfg_default = parse_config("[problem]\nn = 2\np = 2\nd = 0\n")
    x0, y0 = build_start(cfg_default)
    assert_array_equal(x0, np.zeros((2, 2)))
    assert y0.shape == (2, 0)


def test_build_start_length_checks():
    cfg = parse_config("[problem]\np = 2\nx0 = 1.0\n")
    with pytest.raises(ConfigError, match="x0"):
        build_start(cfg)


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(FULL, encoding="utf-8")
    assert load_config(path) == parse_config(FULL)
