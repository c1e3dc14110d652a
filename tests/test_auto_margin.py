"""The auto step's margin: ``tau = auto`` sits at ``safety = 0.99`` of each method's own
gate by default (of each agent's own for alg1 and alg2), and ``run``'s summary and
``compare``'s rows name the step."""

import ast

import numpy as np
import pytest

from saddlenet import cli
from saddlenet.cli import EXIT_NO_CONVERGENCE, _execute, _Setup, main
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


# the minimization example: the 5-ring with d = 0, quadratic coupling of seed 3, l1 0.3
MINIMIZATION = """
[problem]
n = 5
p = 3
d = 0
prox_f = l1
prox_f_weight = 0.3
coupling = quadratic
seed = 3

[graph]
topology = ring

[algorithm]
name = alg2

[run]
max_iters = 100000
tol = 1e-10
"""


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new)


def _solve(text, name="alg2"):
    cfg = parse_config(_edit(text, "name = alg2", f"name = {name}"))
    setup = _Setup(cfg, (name,))
    return setup, _execute(name, setup)


def test_the_default_margin_is_099_and_round_trips():
    assert AlgorithmConfig().safety == 0.99
    cfg = parse_config(README)
    assert cfg.algorithm.safety == 0.99
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config(_edit(README, "name = alg2", "name = alg2\nsafety = 0.99")) == cfg


@pytest.mark.parametrize("scheme", ["lazy_metropolis", "metropolis"])
def test_the_default_margin_takes_fewer_rounds_on_the_readme_ring(scheme):
    # each agent at its own gate: lazy_metropolis 9123 rounds at 0.9, 7644 at 0.99;
    # metropolis 13931 and 11639 (one tau at the gate of max L_i: 15591 and 13012, 24132
    # and 20103, see tests/test_per_agent_steps.py)
    text = _edit(README, "topology = ring", f"topology = ring\n\n[mixing]\nscheme = {scheme}")
    setup, at_default = _solve(text)
    _, at_09 = _solve(_edit(text, "name = alg2", "name = alg2\nsafety = 0.9"))
    assert at_default.trace.converged and at_09.trace.converged
    assert at_default.trace.iterations < at_09.trace.iterations
    for tau, lip in zip(at_default.info["tau"], setup.lip, strict=True):
        assert abs(tau - 0.99 * stepsize_bound(setup.mixing, lip)) <= np.spacing(tau)


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
    lam = setup.block_mixing.lambda_min
    if name in ("alg1", "alg2"):  # each agent's own gate; the agents of SMALL differ
        return tuple((1.0 + lam) / (4.0 * lip) for lip in setup.lip)
    return {"pg_extra": (1.0 + lam) / max(setup.lip), "forb": 1.0 / (2.0 * setup.central.lipschitz)}[name]


def _largest_share(tau, gate):
    """The summary's ``tau / gate``: the largest ``tau_i / gate_i``."""
    return max(np.atleast_1d(np.divide(tau, gate)).tolist())


@pytest.mark.parametrize("name, share", [("alg1", 0.99), ("alg2", 0.99), ("pg_extra", 0.99),
                                         ("forb", 0.99)])
def test_the_summary_names_the_gate_after_sigma(tmp_path, name, share):
    # every method with a gate takes safety times its own gate, pg_extra's (1 + lambda_min) / L too
    text = _edit(SMALL, "d = 1", "d = 0") if name == "pg_extra" else SMALL
    summary = _summary(tmp_path, text, name)
    setup = _Setup(parse_config(text))
    gate = _expected_gate(name, setup)
    tau = ast.literal_eval(summary[2].removeprefix("tau = "))
    assert summary[3].startswith("sigma = ")
    if name in ("alg1", "alg2"):  # each agent's step, and sigma = 1 / max tau_i
        assert len(tau) == 3 and summary[3] == f"sigma = {1.0 / max(tau)!r}"
    assert summary[4:6] == [f"step gate = {gate!r}", f"tau / gate = {_largest_share(tau, gate)!r}"]
    assert np.divide(tau, gate) == pytest.approx(share, rel=1e-14)


@pytest.mark.parametrize("name", ["alg2", "forb"])
def test_an_explicit_tau_reports_its_share_of_the_gate(tmp_path, name):
    text = _edit(SMALL, "name = alg2", "name = alg2\ntau = 0.01")
    summary = _summary(tmp_path, text, name)
    gate = _expected_gate(name, _Setup(parse_config(text)))
    assert summary[2] == "tau = 0.01"
    assert _gate_lines(summary) == [f"step gate = {gate!r}", f"tau / gate = {_largest_share(0.01, gate)!r}"]


@pytest.mark.parametrize("name, text, sigma", [
    ("alg2", _edit(README, "name = alg2", "name = alg2\nsigma = 5.0"), 4.4785),
    ("forb", README, 7.3396),
    ("pg_extra", MINIMIZATION, 2.4941),
], ids=["alg2-sigma-5", "forb", "pg_extra-minimization"])
def test_the_summary_prints_the_sigma_each_method_runs_with(tmp_path, name, text, sigma):
    # alg1, alg2, pg_extra and forb run at sigma = 1 / max tau, whatever the config sets: alg2
    # printed the configured 5.0, and forb and pg_extra 1 / min tau_i of alg2's steps (8.3556
    # and 9.9764)
    summary = _summary(tmp_path, _edit(text, "max_iters = 100000", "max_iters = 10"), name)
    tau = ast.literal_eval(summary[2].removeprefix("tau = "))
    assert summary[3] == f"sigma = {1.0 / max(np.atleast_1d(tau).tolist())!r}"
    assert float(summary[3].removeprefix("sigma = ")) == pytest.approx(sigma, abs=1e-4)


@pytest.mark.parametrize("name, text", [("pdtr", SMALL), ("condat_vu", SMALL),
                                        ("pdhg", _edit(SMALL, "coupling = quadratic", "coupling = zero"))])
def test_the_centralized_primal_dual_summaries_name_no_gate(tmp_path, name, text):
    summary = _summary(tmp_path, text, name)
    assert summary[0] == f"algorithm = {name}"
    assert _gate_lines(summary) == []


def test_pg_extra_steps_at_its_own_gate_on_the_minimization_example():
    # 173 rounds at 0.99 of (1 + lambda_min) / L; 687 at the shared step, 0.99 of the reflected gate
    setup, own = _solve(MINIMIZATION, "pg_extra")
    _, shared = _solve(_edit(MINIMIZATION, "name = alg2", f"name = alg2\ntau = {setup.tau!r}"), "pg_extra")
    assert own.info["tau"] / own.info["gate"] == pytest.approx(0.99, rel=1e-14)
    assert shared.info["tau"] / shared.info["gate"] == pytest.approx(0.2475, rel=1e-14)
    assert own.trace.converged and shared.trace.converged
    assert 3 * own.trace.iterations < shared.trace.iterations


def test_run_audit_checks_the_run_it_reports(tmp_path, monkeypatch):
    # the harness check steps at the run's own tau: its rows are the reported run's
    runs, checks = [], []
    for name, out in (("_run_stacked", runs), ("run_synchronous", checks)):
        def recorded(*args, _fn=getattr(cli, name), _out=out, **kwargs):
            _out.append(_fn(*args, **kwargs))
            return _out[-1]
        monkeypatch.setattr(cli, name, recorded)
    path = tmp_path / "exp.ini"
    path.write_text(_edit(MINIMIZATION, "name = alg2", "name = pg_extra"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--audit", "--max-iters", "3", "--config", str(path), "--out", str(out)]) \
        == EXIT_NO_CONVERGENCE
    summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert "tau / gate = 0.99" in summary
    [(state, trace)], [(states, audits)] = runs, checks
    assert trace.iterations == len(audits) == 3
    rows = np.array([s["z"] for s in states])
    assert np.abs(rows - state.x).max() <= 1e-12 * max(1.0, np.abs(state.x).max())


def test_each_compare_row_names_the_step_run_takes(tmp_path):
    names = ("alg1", "pg_extra", "pdtr", "forb")
    path = tmp_path / "exp.ini"
    path.write_text(_edit(MINIMIZATION, "name = alg2", "name = " + ", ".join(names)), encoding="utf-8")
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    table = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8").splitlines()
    setup = _Setup(parse_config(MINIMIZATION))
    # alg1 steps per agent: the shared step is min tau_i, pdtr's
    assert table[0] == (f"shared steps: tau = {setup.tau!r}, sigma = {setup.sigma!r} "
                        "(the step of pdtr; each row gives its tau)")
    rows = {line.split()[0]: line for line in table[2:]}
    assert list(rows) == list(names)
    for name in names:
        (tmp_path / name).mkdir()
        tau = _summary(tmp_path / name, MINIMIZATION, name)[2].removeprefix("tau = ")
        assert rows[name].endswith("  converged")
        assert rows[name].split("  tau ")[1].removesuffix("  converged") == tau
