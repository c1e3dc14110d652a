"""One check per property.

The certificate alone judges what the mixing constructors build, and
``run --audit`` runs the same harness check as ``verify``: the agent-local
program against the stacked recursion, whose rounds are the reported run's.
"""

import re

import numpy as np
import pytest

from saddlenet import cli, harness
from saddlenet.cli import main
from saddlenet.graphs import (
    Graph,
    _laplacian_weights,
    _metropolis_weights,
    certify_mixing,
    is_connected,
    laplacian,
    metropolis_mixing,
    mixing_from_laplacian,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)

# ---------------------------------------------------------------------------
# the certificate alone judges a mixing
# ---------------------------------------------------------------------------


def earlier_rule(g, alpha=None):
    """Whether the constructors accepted ``g`` (and ``alpha``) before the certificate
    judged alone: a BFS connectivity test; for the Laplacian scheme also
    ``alpha > lambda_max(L) / 2`` from ``eigvalsh(L)``; then the certificate."""
    if not is_connected(g):
        return False
    if alpha is None:
        return certify_mixing(_metropolis_weights(g), g).passed
    lap = laplacian(g)
    if alpha <= float(np.linalg.eigvalsh(lap)[-1]) / 2.0:
        return False
    return certify_mixing(_laplacian_weights(lap, alpha), g).passed


def accepts(build, *args):
    try:
        build(*args)
    except ValueError:
        return False
    return True


def acceptance_corpus():
    """The graphs of the acceptance test's certification corpus."""
    graphs = [path_graph(n) for n in range(2, 21)]
    graphs += [ring_graph(n) for n in range(3, 21)]
    graphs += [star_graph(n) for n in range(3, 21)]
    graphs += [random_connected_graph(n, density=0.4, seed=n) for n in range(5, 21, 3)]
    return graphs


def disconnected_graphs():
    ring = [(i, (i + 1) % 4) for i in range(4)]
    return [
        Graph.from_edges(3, [(0, 1)]),
        Graph.from_edges(2, []),
        Graph.from_edges(4, []),
        Graph.from_edges(8, ring + [(i + 4, j + 4) for i, j in ring]),
        Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]),
    ]


GRAPHS = acceptance_corpus() + disconnected_graphs() + [Graph.from_edges(1, [])]


def alphas(g):
    """Just below, at and just above ``lambda_max(L) / 2``, and well inside and outside."""
    half = float(np.linalg.eigvalsh(laplacian(g))[-1]) / 2.0
    return [-1.0, 0.0, np.nextafter(half, 0.0), half, np.nextafter(half, np.inf),
            half * (1 + 1e-12), half * (1 + 1e-6), 1.5 * half, 2.0 * half, half + 1.0]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}-m{len(g.edges)}")
def test_both_constructors_accept_exactly_what_the_earlier_rule_accepted(g):
    assert accepts(metropolis_mixing, g) == earlier_rule(g)
    for alpha in alphas(g):
        assert accepts(mixing_from_laplacian, g, alpha) == earlier_rule(g, alpha), alpha


def test_the_corpus_has_both_verdicts_at_the_laplacian_bound():
    g = ring_graph(6)
    assert not accepts(mixing_from_laplacian, g, 2.0) and not earlier_rule(g, 2.0)
    assert accepts(mixing_from_laplacian, g, 2.0 + 1e-6) and earlier_rule(g, 2.0 + 1e-6)
    for d in disconnected_graphs():
        assert not accepts(metropolis_mixing, d) and not accepts(mixing_from_laplacian, d, d.n + 1.0)


def test_a_disconnected_graph_fails_the_certificate_on_its_unit_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue 1 has multiplicity 2"):
        metropolis_mixing(Graph.from_edges(3, [(0, 1)]))
    with pytest.raises(ValueError, match="eigenvalue 1 has multiplicity 2"):
        mixing_from_laplacian(Graph.from_edges(3, [(0, 1)]), 2.0)


def test_a_laplacian_mixing_is_one_eigensolve(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    mixing = mixing_from_laplacian(random_connected_graph(30, 0.2, seed=3), 12.0)
    assert calls == [(30, 30)]
    assert mixing.lambda_min > -1.0


# ---------------------------------------------------------------------------
# run --audit is verify's harness check
# ---------------------------------------------------------------------------

MINMAX = """
[problem]
n = {n}
p = 1
d = 1
coupling = quadratic
seed = 0
{start}
[graph]
topology = ring
{extra_graph}

[algorithm]
name = {name}

[run]
max_iters = 20000
tol = 1e-10
"""

MINIMIZATION = """
[problem]
n = {n}
p = 2
d = 0
prox_f = l1
prox_f_weight = 0.05
coupling = quadratic
seed = 1

[graph]
topology = ring
{extra_graph}

[algorithm]
name = pg_extra

[run]
max_iters = 50000
tol = 1e-10
"""

ONE_GRAPH = {"n": 3, "extra_graph": ""}
TWO_GRAPHS = {"n": 4, "extra_graph": "topology_y = path"}
CONFIGS = {
    "alg1": MINMAX.format(name="alg1", start="", **ONE_GRAPH),
    "alg2": MINMAX.format(name="alg2", start="", **ONE_GRAPH),
    "pg_extra": MINIMIZATION.format(**ONE_GRAPH),
    "alg1-two-graphs": MINMAX.format(name="alg1", start="", **TWO_GRAPHS),
    "alg2-two-graphs": MINMAX.format(name="alg2", start="", **TWO_GRAPHS),
    "pg_extra-two-graphs": MINIMIZATION.format(**TWO_GRAPHS),
}


def run(tmp_path, text, *extra, audit=True, out="out"):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text, encoding="utf-8")
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / out), *extra]
    return main(argv + ["--audit"] if audit else argv), tmp_path / out


def audit_line(out):
    return re.search(r"^audit: (\d+) rounds on the message harness, (\d+) illegal reads, "
                     r"max deviation from the run (\S+) \(tolerance 1e-12\) (pass|FAIL)$",
                     (out / "summary.txt").read_text(), re.M).groups()


def iterations(out):
    return int(re.search(r"^iterations = (\d+)$", (out / "summary.txt").read_text(), re.M).group(1))


@pytest.mark.parametrize("extra", [(), ("--max-iters", "7")], ids=["to-tolerance", "7-rounds"])
@pytest.mark.parametrize("key", CONFIGS)
def test_run_audit_checks_the_first_rounds_of_the_reported_run(tmp_path, key, extra):
    code, out = run(tmp_path, CONFIGS[key], *extra)
    plain, plain_out = run(tmp_path, CONFIGS[key], *extra, audit=False, out="plain")
    assert code == plain == (0 if not extra else 3)
    for name in ("trace.csv", "solution.csv"):
        assert (out / name).read_bytes() == (plain_out / name).read_bytes()
    rows = (out / "audit.csv").read_text().splitlines()
    assert rows[0] == "round,messages,bytes,illegal_attempts"
    expected = min(iterations(out), cli.HARNESS_ROUNDS)
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, expected + 1))
    rounds, illegal, deviation, verdict = audit_line(out)
    assert (int(rounds), illegal, verdict) == (expected, "0", "pass")
    assert float(deviation) <= 1e-12


def test_a_failed_audit_exits_1_and_still_writes_every_output(tmp_path, monkeypatch):
    """An exchange off by 1e-9 in every round, as in the verify test, fails the audit."""
    local_mix = harness._local_mix
    monkeypatch.setattr(harness, "_local_mix", lambda *args: local_mix(*args) + 1e-9)
    code, out = run(tmp_path, CONFIGS["alg2-two-graphs"])
    assert code == cli.EXIT_CHECK_FAILED
    for name in ("trace.csv", "solution.csv", "summary.txt", "audit.csv"):
        assert (out / name).exists(), name
    rounds, _, deviation, verdict = audit_line(out)
    assert (int(rounds), verdict) == (cli.HARNESS_ROUNDS, "FAIL")
    assert float(deviation) > 1e-12


def test_an_audit_of_a_run_without_steps_is_the_header_and_passes(tmp_path):
    code, out = run(tmp_path, CONFIGS["alg1"], "--tol", "inf")
    assert code == cli.EXIT_OK
    assert (out / "audit.csv").read_text() == "round,messages,bytes,illegal_attempts\n"
    assert audit_line(out) == ("0", "0", "0.000e+00", "pass")


def test_the_audit_tolerance_is_relative_to_the_rows(tmp_path):
    """Rows near 1e3 carry rounding gaps above 1e-12 that an absolute bound would fail."""
    text = MINMAX.format(name="alg1", start="x0 = 100000.0\ny0 = -70000.0", n=6, extra_graph="")
    code, out = run(tmp_path, text, "--max-iters", "50")
    assert code == cli.EXIT_NO_CONVERGENCE
    rows = max(abs(float(line.split(",")[2]))
               for line in (out / "solution.csv").read_text().splitlines()[1:])
    assert rows > 100
    _, _, deviation, verdict = audit_line(out)
    assert verdict == "pass" and float(deviation) <= 1e-12
    # the absolute gap is the deviation times max|stacked|, which is at least ``rows``
    assert float(deviation) * rows > 1e-12
