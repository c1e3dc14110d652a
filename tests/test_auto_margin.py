"""The auto step's margin: ``tau = auto`` sits at ``safety = 0.99`` of its gate by
default, and ``run``'s summary names the gate and the step's share of it."""

import numpy as np
import pytest

from saddlenet.cli import _execute, _Setup, main
from saddlenet.config import AlgorithmConfig, parse_config, serialize_config
from saddlenet.inclusion import stepsize_bound

# the README's alg2 example: the 5-ring, bilinear coupling of seed 3, l1 0.3, box [-1, 1]
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

# a 3-agent instance whose summary lines need only a few rounds
SMALL = """
[problem]
n = 3
p = 1
d = 1
coupling = quadratic
seed = 0

[graph]
topology = ring

[algorithm]
name = alg2

[run]
max_iters = 20
tol = 1e-10
"""


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new)


def _solve(text, name="alg2"):
    cfg = parse_config(_edit(text, "name = alg2", f"name = {name}"))
    setup = _Setup(cfg, (name,))
    return setup, _execute(name, cfg, setup)


def test_the_default_margin_is_099_and_round_trips():
    assert AlgorithmConfig().safety == 0.99
    cfg = parse_config(README)
    assert cfg.algorithm.safety == 0.99
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config(_edit(README, "name = alg2", "name = alg2\nsafety = 0.99")) == cfg


@pytest.mark.parametrize("scheme", ["lazy_metropolis", "metropolis"])
def test_the_default_margin_takes_fewer_rounds_on_the_readme_ring(scheme):
    # lazy_metropolis: 15590 rounds at 0.9, 13011 at 0.99; metropolis: 24130 and 20102
    text = _edit(README, "topology = ring", f"topology = ring\n\n[mixing]\nscheme = {scheme}")
    setup, at_default = _solve(text)
    _, at_09 = _solve(_edit(text, "name = alg2", "name = alg2\nsafety = 0.9"))
    assert at_default.trace.converged and at_09.trace.converged
    assert at_default.trace.iterations < at_09.trace.iterations
    tau = at_default.info["tau"]
    assert abs(tau - 0.99 * stepsize_bound(setup.mixing, setup.lip)) <= np.spacing(tau)


def test_forb_takes_fewer_rounds_at_the_default_margin():
    # 444 rounds at 0.9 of 1 / (2 L), 360 at 0.99
    _, at_default = _solve(README, "forb")
    _, at_09 = _solve(_edit(README, "name = alg2", "name = alg2\nsafety = 0.9"), "forb")
    assert at_default.trace.converged and at_09.trace.converged
    assert at_default.trace.iterations < at_09.trace.iterations


def _summary(tmp_path, text, name):
    path = tmp_path / "exp.ini"
    path.write_text(_edit(text, "name = alg2", f"name = {name}"), encoding="utf-8")
    main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    return (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8").splitlines()


def _gate_lines(summary):
    return [line for line in summary if line.startswith(("step gate = ", "tau / gate = "))]


def _expected_gate(name, setup):
    lam, lip = setup.block_mixing.lambda_min, setup.lip
    return {"alg1": (1.0 + lam) / (4.0 * lip), "alg2": (1.0 + lam) / (4.0 * lip),
            "pg_extra": (1.0 + lam) / lip, "forb": 1.0 / (2.0 * setup.central.lipschitz)}[name]


@pytest.mark.parametrize("name, share", [("alg1", 0.99), ("alg2", 0.99), ("pg_extra", 0.2475),
                                         ("forb", 0.99)])
def test_the_summary_names_the_gate_after_sigma(tmp_path, name, share):
    # pg_extra's auto tau is the reflected gate's, a quarter of its own
    text = _edit(SMALL, "d = 1", "d = 0") if name == "pg_extra" else SMALL
    summary = _summary(tmp_path, text, name)
    setup = _Setup(parse_config(text))
    gate = _expected_gate(name, setup)
    tau = float(summary[2].removeprefix("tau = "))
    assert summary[3].startswith("sigma = ")
    assert summary[4:6] == [f"step gate = {gate!r}", f"tau / gate = {tau / gate!r}"]
    assert tau / gate == pytest.approx(share, rel=1e-14)


@pytest.mark.parametrize("name", ["alg2", "forb"])
def test_an_explicit_tau_reports_its_share_of_the_gate(tmp_path, name):
    text = _edit(SMALL, "name = alg2", "name = alg2\ntau = 0.01")
    summary = _summary(tmp_path, text, name)
    gate = _expected_gate(name, _Setup(parse_config(text)))
    assert summary[2] == "tau = 0.01"
    assert _gate_lines(summary) == [f"step gate = {gate!r}", f"tau / gate = {0.01 / gate!r}"]


@pytest.mark.parametrize("name, text", [("pdtr", SMALL), ("condat_vu", SMALL),
                                        ("pdhg", _edit(SMALL, "coupling = quadratic", "coupling = zero"))])
def test_the_centralized_primal_dual_summaries_name_no_gate(tmp_path, name, text):
    summary = _summary(tmp_path, text, name)
    assert summary[0] == f"algorithm = {name}"
    assert _gate_lines(summary) == []
