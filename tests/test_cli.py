"""End-to-end tests of the command-line front end (exit codes and artifacts)."""

import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from saddlenet import cli
from saddlenet.cli import main
from saddlenet.config import AlgorithmConfig, build_problems, parse_config
from saddlenet.graphs import mixing_from_laplacian, random_connected_graph, ring_graph
from saddlenet.instances import seeded_couplings
from saddlenet.minmax import AgentSaddleProblem, saddle_residual
from saddlenet.operators import bilinear_coupling, l1_prox, zero_prox

FAST_MINMAX = """
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
max_iters = 20000
tol = 1e-10
"""

SKEW_COMPARE = """
[problem]
n = 3
p = 1
d = 1
coupling_m = 1.0
x0 = 1.0
y0 = 1.0

[graph]
topology = ring

[algorithm]
name = pdtr, condat_vu

[run]
max_iters = 3000
tol = 1e-6
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def swap(text, old, new):
    assert old in text
    return text.replace(old, new)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_artifacts_and_exits_zero(tmp_path):
    cfg = write(tmp_path, FAST_MINMAX)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0

    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("iteration,fp_residual")
    assert len(trace) > 2
    last = trace[-1].split(",")
    assert float(last[1]) <= 1e-10

    solution = (out / "solution.csv").read_text().splitlines()
    assert solution[0] == "block,index,value"
    assert any(line.startswith("x,0,") for line in solution)
    assert any(line.startswith("y,0,") for line in solution)

    summary = (out / "summary.txt").read_text()
    assert "algorithm = alg2" in summary
    assert "converged = yes" in summary
    assert "messages per round = " in summary


def test_run_exit_three_when_budget_runs_out(tmp_path):
    cfg = write(tmp_path, FAST_MINMAX)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--max-iters", "3"]) == 3
    summary = (out / "summary.txt").read_text()
    assert "converged = no" in summary
    assert "iterations = 3" in summary
    # artifacts are written even for unconverged runs
    assert (out / "trace.csv").exists()
    assert (out / "solution.csv").exists()


def test_run_rejects_unknown_algorithm(tmp_path, capsys):
    cfg = write(tmp_path, swap(FAST_MINMAX, "name = alg2", "name = admm"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_multiple_algorithms(tmp_path, capsys):
    cfg = write(tmp_path, swap(FAST_MINMAX, "name = alg2", "name = alg2, alg1"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "exactly one algorithm" in capsys.readouterr().err


def test_run_rejects_init_as_an_unknown_key_for_every_algorithm(tmp_path, capsys):
    # a config's start is one row replicated to every agent, so W x0 = x0 and
    # a premixed start could not change the run
    for name in ("alg1", "alg2", "pdtr", "pdhg", "forb", "condat_vu", "pg_extra"):
        text = swap(FAST_MINMAX, "name = alg2", f"name = {name}\ninit = premix")
        cfg = write(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "algorithm.init: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_run_alg1_with_audit(tmp_path):
    cfg = write(tmp_path, swap(FAST_MINMAX, "name = alg2", "name = alg1"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--audit"]) == 0

    audit = (out / "audit.csv").read_text().splitlines()
    assert audit[0] == "round,messages,bytes,illegal_attempts"
    # 3-ring: 3 edges, two messages per edge per round, zero illegal reads
    for line in audit[1:]:
        _, messages, _, illegal = line.split(",")
        assert messages == "6"
        assert illegal == "0"
    assert "illegal reads" in (out / "summary.txt").read_text()


def test_run_audit_on_centralized_algorithm_is_noted(tmp_path):
    cfg = write(tmp_path, swap(FAST_MINMAX, "name = alg2", "name = pdtr"))
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out), "--audit"])
    assert code in (0, 3)
    assert not (out / "audit.csv").exists()
    assert "not applicable" in (out / "summary.txt").read_text()


def test_run_pg_extra_requires_pure_minimization(tmp_path, capsys):
    cfg = write(tmp_path, swap(FAST_MINMAX, "name = alg2", "name = pg_extra"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "minimization" in capsys.readouterr().err


def test_run_pg_extra_on_minimization_config(tmp_path):
    text = """
[problem]
n = 3
p = 2
d = 0
prox_f = l1
prox_f_weight = 0.05
coupling = quadratic
seed = 1

[graph]
topology = ring

[algorithm]
name = pg_extra

[run]
max_iters = 50000
tol = 1e-10
"""
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "algorithm = pg_extra" in summary
    assert "converged = yes" in summary


def test_run_reference_distance_in_summary(tmp_path):
    cfg = write(tmp_path, swap(FAST_MINMAX, "tol = 1e-10", "tol = 1e-10\nreference = on"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "final distance to reference = " in summary
    dist = float(summary.split("final distance to reference = ")[1].splitlines()[0])
    assert dist < 1e-6


def test_a_laplacian_alpha_that_fails_the_certificate_is_a_usage_error(tmp_path, capsys):
    text = swap(FAST_MINMAX, "n = 3", "n = 6")
    text = swap(text, "topology = ring", "topology = ring\n\n[mixing]\nscheme = laplacian\nalpha = 2.0")
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: alpha=2.0 gives a mixing matrix that fails its certificate" in err
    assert "overall: FAIL" in err and "Traceback" not in err
    assert not out.exists()


def test_the_reference_run_is_budgeted_by_the_config(tmp_path):
    """``max_iters = 0`` leaves the reference no rounds: it ends at once, with its warning."""
    text = swap(README_MINMAX, "name = alg2", "name = forb")
    text = swap(text, "max_iters = 100000", "max_iters = 0")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["run", "--config", write(tmp_path, text), "--out", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "warning: reference run hit its iteration budget" in (out / "summary.txt").read_text()


def test_seed_override_changes_the_instance(tmp_path):
    cfg = write(tmp_path, FAST_MINMAX)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1), "--seed-override", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed-override", "2"]) == 0
    assert (out1 / "solution.csv").read_text() != (out2 / "solution.csv").read_text()


def test_trace_every_subsamples_but_keeps_the_last_row(tmp_path):
    text = swap(FAST_MINMAX, "trace_every = 1" if "trace_every" in FAST_MINMAX
                else "tol = 1e-10", "tol = 1e-10\ntrace_every = 500")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    summary = (out / "summary.txt").read_text()
    total = int(summary.split("iterations = ")[1].splitlines()[0])
    assert len(lines) - 1 < total / 100
    assert lines[-1].split(",")[0] == str(total)


def test_forb_uses_its_own_auto_step(tmp_path):
    cfg = write(tmp_path, swap(FAST_MINMAX, "name = alg2", "name = forb"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "summed objective" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_a_tolerance_override_that_is_not_nonnegative_is_a_usage_error(tmp_path, capsys, tol):
    cfg = write(tmp_path, FAST_MINMAX)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--tol", tol]) == 2
    assert "tol must be nonnegative" in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-mixing
# ---------------------------------------------------------------------------

def triangle(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
    return str(path)


def test_check_mixing_metropolis_passes(tmp_path, capsys):
    assert main(["check-mixing", triangle(tmp_path), "--scheme", "metropolis"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_check_mixing_laplacian_passes(tmp_path, capsys):
    # lambda_max of the triangle laplacian is 3; any alpha above 1.5 works
    assert main(["check-mixing", triangle(tmp_path), "--scheme", "laplacian",
                 "--alpha", "3.0"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_check_mixing_boundary_alpha_fails_spectral(tmp_path, capsys):
    assert main(["check-mixing", triangle(tmp_path), "--scheme", "laplacian",
                 "--alpha", "1.5"]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_check_mixing_nonpositive_alpha_is_a_usage_error(tmp_path, capsys, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-mixing", triangle(tmp_path), "--scheme", "laplacian",
                     "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert f"alpha={float(alpha)!r} must be positive" in captured.err
    assert captured.out == ""


def test_check_mixing_identity_fails_kernel(tmp_path, capsys):
    mf = tmp_path / "identity.csv"
    mf.write_text("1,0,0\n0,1,0\n0,0,1\n", encoding="utf-8")
    assert main(["check-mixing", triangle(tmp_path), "--matrix-file", str(mf)]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
def test_check_mixing_a_non_finite_tolerance_is_a_usage_error(tmp_path, capsys, tol):
    # an infinite tol used to pass any matrix as symmetric; this one is 3-path with an inf entry
    path = tmp_path / "path.edges"
    path.write_text("n 3\n0 1\n1 2\n", encoding="utf-8")
    mf = tmp_path / "w.csv"
    mf.write_text("0.5,0.5,0\n0.5,0,0.5\ninf,0.5,0.5\n", encoding="utf-8")
    assert main(["check-mixing", str(path), "--matrix-file", str(mf), f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "tol must be finite" in captured.err
    assert captured.out == ""


def test_check_mixing_disconnected_graph(tmp_path, capsys):
    path = tmp_path / "disc.edges"
    path.write_text("n 4\n0 1\n", encoding="utf-8")
    assert main(["check-mixing", str(path), "--scheme", "metropolis"]) == 2
    assert "not connected" in capsys.readouterr().err


def test_check_mixing_missing_file(tmp_path, capsys):
    assert main(["check-mixing", str(tmp_path / "nope.edges"),
                 "--scheme", "metropolis"]) == 2
    assert "cannot read graph" in capsys.readouterr().err


def test_check_mixing_needs_a_source(tmp_path, capsys):
    assert main(["check-mixing", triangle(tmp_path)]) == 2
    assert "--scheme" in capsys.readouterr().err


@pytest.mark.parametrize("source", [[], ["--scheme", "metropolis", "--matrix-file", "identity.csv"]],
                         ids=["neither", "both"])
def test_check_mixing_takes_exactly_one_source(tmp_path, capsys, source):
    # with both, the file used to be certified and the scheme silently ignored
    (tmp_path / "identity.csv").write_text("1,0,0\n0,1,0\n0,0,1\n", encoding="utf-8")
    source = [str(tmp_path / s) if s.endswith(".csv") else s for s in source]
    assert main(["check-mixing", triangle(tmp_path), *source]) == 2
    captured = capsys.readouterr()
    assert captured.err == "give either --scheme or --matrix-file\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_a_generic_instance(tmp_path, capsys):
    cfg = write(tmp_path, FAST_MINMAX)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert out.count("pass") >= 5


def test_verify_other_seed(tmp_path, capsys):
    cfg = write(tmp_path, FAST_MINMAX)
    assert main(["verify", "--config", cfg, "--seed-override", "7"]) == 0
    assert "verify: PASS" in capsys.readouterr().out


def harness_row(out):
    return next(line for line in out.splitlines() if line.startswith("message harness vs stacked recursion"))


def test_verify_holds_the_message_harness_to_the_stacked_recursion(tmp_path, capsys):
    assert main(["verify", "--config", write(tmp_path, README_MINMAX)]) == 0
    row = harness_row(capsys.readouterr().out)
    assert row.endswith("pass") and "tolerance 1e-12" in row


def test_verify_fails_when_the_harness_mixes_wrongly(tmp_path, capsys, monkeypatch):
    """The row can fail: an exchange off by 1e-9 in every round is caught."""
    from saddlenet import harness

    local_mix = harness._local_mix
    monkeypatch.setattr(harness, "_local_mix", lambda *args: local_mix(*args) + 1e-9)
    assert main(["verify", "--config", write(tmp_path, README_MINMAX)]) == cli.EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert harness_row(out).endswith("FAIL")
    assert "verify: FAIL" in out


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_skew_instance(tmp_path, capsys):
    cfg = write(tmp_path, SKEW_COMPARE)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0

    stdout = capsys.readouterr().out
    assert "pdtr" in stdout and "condat_vu" in stdout
    assert "NOT CONVERGED" in stdout

    summary = (out / "summary.txt").read_text()
    pdtr_line = next(l for l in summary.splitlines() if l.startswith("pdtr"))
    cv_line = next(l for l in summary.splitlines() if l.startswith("condat_vu"))
    assert "converged" in pdtr_line and "NOT CONVERGED" not in pdtr_line
    assert "NOT CONVERGED" in cv_line

    table = (out / "compare.csv").read_text().splitlines()
    assert table[0] == "iteration,fp_residual_pdtr,fp_residual_condat_vu"
    assert len(table) > 2


def test_compare_needs_at_least_two_algorithms(tmp_path, capsys):
    cfg = write(tmp_path, swap(SKEW_COMPARE, "name = pdtr, condat_vu", "name = pdtr"))
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "at least two" in capsys.readouterr().err


def test_compare_exit_three_when_nothing_converges(tmp_path):
    # pdtr needs 397 rounds and condat_vu does not converge on the skew coupling
    cfg = write(tmp_path, SKEW_COMPARE)
    out = tmp_path / "o"
    assert main(["compare", "--config", cfg, "--out", str(out),
                 "--max-iters", "50"]) == 3


def run_diverging(tmp_path, name, start):
    """``run`` of ``name`` on the skew problem from ``start``, with numpy warnings as errors:
    its exit code, summary and answer."""
    text = swap(SKEW_COMPARE, "name = pdtr, condat_vu", f"name = {name}")
    text = swap(swap(text, "x0 = 1.0", f"x0 = {start}"), "y0 = 1.0", f"y0 = {start}")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", write(tmp_path, text), "--out", str(out)])
    values = [float(line.rsplit(",", 1)[1]) for line in (out / "solution.csv").read_text().splitlines()[1:]]
    return code, (out / "summary.txt").read_text(), values


@pytest.mark.parametrize("name, start", [("condat_vu", "1e308"), ("alg2", "1e308")])
def test_a_diverged_answer_is_inf_or_nan_without_a_numpy_warning(tmp_path, name, start):
    # the mean of rows near the largest float overflows; the answer and the verdict say so quietly
    code, summary, values = run_diverging(tmp_path, name, start)
    assert code == 3
    assert "stopped on = diverged" in summary
    assert not np.isfinite(values).all()


def test_a_run_whose_first_step_overflows_answers_its_start_without_a_numpy_warning(tmp_path):
    # the square of condat_vu's first step from 1e300 overflows: the run ends in round 1
    code, summary, values = run_diverging(tmp_path, "condat_vu", "1e300")
    assert code == 3
    assert "iterations = 0\n" in summary and "stopped on = diverged\n" in summary
    assert values == [1e300, 1e300]


# ---------------------------------------------------------------------------
# one set-up per config
# ---------------------------------------------------------------------------

README_MINMAX = """
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
reference = on
"""


@pytest.fixture
def work(monkeypatch):
    """Counts every solver and reference call the CLI makes."""
    calls = []
    for name in ("_run_stacked", "forb_run", "_run_primal_dual", "_reference_point"):
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("command, edits, message", [
    ("compare", [("name = alg2", "name = alg2, pg_extra")], "algorithm.name: pg_extra handles"),
    ("run", [("name = alg2", "name = pdtr\ninit = premix")], "algorithm.init: unknown key"),
    ("run", [("name = alg2", "name = pdhg")], "algorithm.name: pdhg drops the forward term"),
    ("run", [("name = alg2", "name = pdhg"), ("seed = 3", "seed = 3\ncoupling_a = 1.0, 0.0, 0.0")],
     "algorithm.name: pdhg drops the forward term"),
    ("compare", [("name = alg2", "name = alg1, forb, pdhg")], "algorithm.name: pdhg drops"),
], ids=["compare-alg2-pg_extra", "premix-pdtr", "pdhg-coupled", "pdhg-offset-only",
        "compare-pdhg-last"])
def test_requirements_are_checked_before_any_work(tmp_path, capsys, work, command, edits, message):
    text = README_MINMAX
    for old, new in edits:
        text = swap(text, old, new)
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert work == []
    assert not out.exists()


def test_pdhg_runs_when_every_coupling_gradient_vanishes(tmp_path):
    text = swap(swap(README_MINMAX, "coupling = bilinear", "coupling = zero\nx0 = 1.0, 0.0, -2.0\n"
                     "y0 = 0.5, 0.5, 0.5"), "name = alg2", "name = pdhg")
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "converged = yes" in summary
    assert int(summary.split("iterations = ")[1].splitlines()[0]) > 1


def test_compare_shares_the_stacked_agents_and_one_product_space_problem(tmp_path, monkeypatch):
    built, stacked = [], []

    def product_space(*args):
        built.append(args)
        return original(*args)

    def run_stacked(agents, *args):
        stacked.append(agents)
        return run_original(agents, *args)

    original, run_original = cli._product_space_problem, cli._run_stacked
    monkeypatch.setattr(cli, "_product_space_problem", product_space)
    monkeypatch.setattr(cli, "_run_stacked", run_stacked)
    text = swap(FAST_MINMAX, "name = alg2", "name = alg1, alg2, pdtr, condat_vu")
    assert main(["compare", "--config", write(tmp_path, text), "--out", str(tmp_path / "o"),
                 "--max-iters", "50"]) in (0, 3)
    assert len(built) == 1
    assert len(stacked) == 2 and stacked[0] is stacked[1]


def test_verify_runs_at_the_configured_step(tmp_path, capsys):
    cfg = write(tmp_path, swap(FAST_MINMAX, "name = alg2", "name = alg2\ntau = 1.0"))
    assert main(["verify", "--config", cfg]) == 2
    assert "step size exceeds its bound" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the saddle residual of the answer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, edits", [
    ("alg1", []), ("alg2", []), ("forb", []), ("pdtr", []), ("condat_vu", []),
    ("pdhg", [("coupling = quadratic", "coupling = zero\nx0 = 1.0\ny0 = -0.5")]),
    ("pg_extra", [("d = 1", "d = 0")]),
])
def test_the_summary_gives_the_saddle_residual_of_the_answer(tmp_path, name, edits):
    text = swap(FAST_MINMAX, "name = alg2", f"name = {name}")
    for old, new in edits:
        text = swap(text, old, new)
    out = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, text), "--out", str(out), "--max-iters", "300"]) in (0, 3)
    summary = (out / "summary.txt").read_text()
    value = float(summary.split("saddle residual of the answer = ")[1].splitlines()[0])
    rows = [line.split(",") for line in (out / "solution.csv").read_text().splitlines()[1:]]
    x, y = ([float(v) for b, _, v in rows if b == block] for block in "xy")
    assert value == saddle_residual(build_problems(parse_config(text)), np.array(x), np.array(y))


def test_compare_gives_alg1_and_alg2_one_saddle_residual_on_the_readme_config(tmp_path):
    text = swap(README_MINMAX, "name = alg2", "name = alg1, alg2")
    assert main(["compare", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "summary.txt").read_text().splitlines()
    alg1, alg2 = (line.split("saddle residual ")[1].split()[0] for line in lines[2:])
    assert alg1 == alg2 and float(alg1) < 1e-9


def test_the_saddle_residual_line_reports_what_it_cannot_compute():
    agents = [AgentSaddleProblem(prox, zero_prox(), bilinear_coupling(m=np.ones((1, 1))))
              for prox in (l1_prox(0.1), zero_prox())]
    answer = SimpleNamespace(x_star=np.zeros(1), y_star=np.zeros(1))
    assert cli._answer_residual(SimpleNamespace(problems=agents), answer, "{!r}") == \
        "not available (cannot combine mixed prox kinds ['l1', 'zero'])"
    # a diverged run's answer can be inf (its row mean overflows): nan, without a numpy warning
    inf = SimpleNamespace(x_star=np.full(1, np.inf), y_star=np.full(1, 1.0))
    assert cli._answer_residual(SimpleNamespace(problems=agents[:1] * 2), inf, "{!r}") == "nan"


# ---------------------------------------------------------------------------
# config paths
# ---------------------------------------------------------------------------

def _laplacian_tau():
    # each agent's own auto step
    lam = mixing_from_laplacian(ring_graph(3), 4.0).lambda_min
    return tuple(AlgorithmConfig().safety * (1.0 + lam) / (4.0 * c.lipschitz)
                 for c in seeded_couplings(3, 1, 1, 0, kind="quadratic"))


# alg2 sends an x and a y vector on every edge in both directions
RANDOM_MESSAGES = 4 * len(random_connected_graph(3, density=0.5, seed=4).edges)


@pytest.mark.parametrize("argv, edits, code, where, expected", [
    (["run"], [("topology = ring", "topology = random\ndensity = 0.5\nseed = 4")], 0,
     "summary.txt", f"messages per round = {RANDOM_MESSAGES}\n"),
    (["run"], [("topology = ring", "topology = ring\n\n[mixing]\nscheme = laplacian\nalpha = 4.0")],
     0, "summary.txt", f"tau = {_laplacian_tau()!r}\n"),
    (["run"], [("topology = ring", "edges_file = {tmp}/path.edges")], 0,
     "summary.txt", "messages per round = 8\n"),
    (["run"], [("name = alg2", "name = forb"), ("tol = 1e-10", "tol = 1e-10\nreference = on")], 0,
     "trace.csv", "iteration,fp_residual,distance_to_reference\n"),
    (["run", "--tol", "1e-6"], [], 0, "summary.txt", "converged = yes (tol = 1e-06)\n"),
    (["check-mixing", "{tmp}/path.edges", "--scheme", "laplacian"], None, 2,
     "stderr", "laplacian scheme needs --alpha"),
], ids=["random-topology", "laplacian-scheme", "edges-file", "forb-reference", "tol-override",
        "check-mixing-laplacian-without-alpha"])
def test_config_paths_reach_their_output(tmp_path, capsys, argv, edits, code, where, expected):
    (tmp_path / "path.edges").write_text("0 1\n1 2\n", encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    out = tmp_path / "out"
    if edits is not None:
        text = FAST_MINMAX
        for old, new in edits:
            text = swap(text, old, new.format(tmp=tmp_path))
        argv[1:1] = ["--config", write(tmp_path, text), "--out", str(out)]
    assert main(argv) == code
    text = capsys.readouterr().err if where == "stderr" else (out / where).read_text()
    assert expected in text
