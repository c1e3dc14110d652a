"""One scheme table builds and certifies every mixing.

Each scheme name maps to one builder ``(graph, alpha, tol) -> (weights,
certificate)``; the public constructors, the config and ``check-mixing`` all
go through it.  The lazy Metropolis build certifies ``W`` once, its only
``eigvalsh``, and maps that certificate's spectrum by ``lambda -> 1 - c (1 -
lambda)``: on the corpus its weights are bitwise the two-eigensolve build's,
and its certificate agrees with an independent certificate of the shifted
matrix."""

import numpy as np
import pytest

from saddlenet import config, graphs
from saddlenet.cli import main
from saddlenet.graphs import (
    _laplacian_weights,
    _metropolis_weights,
    certify_mixing,
    complete_graph,
    laplacian,
    lazy_metropolis_mixing,
    metropolis_mixing,
    mixing_from_laplacian,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)

CORPUS = ([path_graph(n) for n in range(2, 41)] + [ring_graph(n) for n in range(3, 41)]
          + [star_graph(n) for n in range(2, 41)] + [complete_graph(n) for n in range(2, 21)]
          + [random_connected_graph(n, density, seed=n)
             for n, density in ((10, 0.3), (50, 0.1), (200, 0.05), (500, 0.02))])


def graph_id(g):
    return f"n{g.n}-e{len(g.edge_array)}"


def alpha_of(g):
    """Above ``lambda_max(L) / 2``, since ``lambda_max(L) <= 2 * max degree``."""
    return max(g.degree(i) for i in range(g.n)) + 1.0


def two_eigensolve_lazy_weights(g):
    """The lazy weights as built before the table: ``c`` from an ``eigvalsh`` of ``W``."""
    w = _metropolis_weights(g)
    lam = float(np.linalg.eigvalsh(w)[0])
    if lam < -g.n * np.finfo(float).eps:
        c = 1.0 / (1.0 - lam)
        np.fill_diagonal(w, 0.0)
        w *= c
        np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def test_the_table_is_the_config_schemes_in_order():
    assert tuple(graphs._SCHEMES) == config._SCHEMES == ("lazy_metropolis", "metropolis", "laplacian")


@pytest.mark.parametrize("build", [lazy_metropolis_mixing, metropolis_mixing,
                                   lambda g: mixing_from_laplacian(g, alpha_of(g))],
                         ids=["lazy_metropolis", "metropolis", "laplacian"])
@pytest.mark.parametrize("g", [ring_graph(7), path_graph(12), random_connected_graph(60, 0.1, seed=3)],
                         ids=graph_id)
def test_each_constructor_runs_one_eigvalsh(monkeypatch, build, g):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    build(g)
    assert calls == [(g.n, g.n)]


@pytest.mark.parametrize("g", CORPUS, ids=graph_id)
def test_the_lazy_weights_are_bitwise_the_two_eigensolve_build(g):
    expected = two_eigensolve_lazy_weights(g).tobytes()
    w, _ = graphs._SCHEMES["lazy_metropolis"](g, None, 1e-9)
    assert w.tobytes() == expected
    assert lazy_metropolis_mixing(g).w.tobytes() == expected


@pytest.mark.parametrize("g", CORPUS, ids=graph_id)
def test_metropolis_and_laplacian_are_bitwise_their_certificates(g):
    for scheme, w, m in (("metropolis", _metropolis_weights(g), metropolis_mixing(g)),
                         ("laplacian", _laplacian_weights(laplacian(g), alpha_of(g)),
                          mixing_from_laplacian(g, alpha_of(g)))):
        cert = certify_mixing(w, g)
        built, table_cert = graphs._SCHEMES[scheme](g, alpha_of(g), 1e-9)
        assert built.tobytes() == w.tobytes() and m.w.tobytes() == w.tobytes()
        assert table_cert == cert
        assert m.lambda_min == cert.lambda_min


@pytest.mark.parametrize("g", CORPUS, ids=graph_id)
def test_the_mapped_lazy_certificate_matches_an_independent_one(g):
    m = lazy_metropolis_mixing(g)
    _, cert = graphs._SCHEMES["lazy_metropolis"](g, None, 1e-9)
    direct = certify_mixing(m.w, g)
    assert m.lambda_min == cert.lambda_min
    assert abs(cert.lambda_min - direct.lambda_min) <= 1e-12
    assert abs(cert.lambda_max - direct.lambda_max) <= 1e-12
    assert cert.passed == direct.passed
    assert cert.unit_eigenvalue_multiplicity == direct.unit_eigenvalue_multiplicity == 1


@pytest.mark.parametrize("tol, code, multiplicity", [(1e-6, 0, 1), (0.5, 1, 3)])
def test_check_mixing_certifies_the_lazy_scheme_at_its_tol(tmp_path, capsys, tol, code, multiplicity):
    # the lazy 5-ring has eigenvalues 1, 0.618 twice and 0 twice: at tol 0.5 the unit
    # eigenvalue counts three times, as an independent certificate at that tol finds
    edges = tmp_path / "ring.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
    assert main(["check-mixing", str(edges), "--scheme", "lazy_metropolis", "--tol", str(tol)]) == code
    out = capsys.readouterr().out
    direct = certify_mixing(lazy_metropolis_mixing(ring_graph(5)).w, ring_graph(5), tol)
    assert f"tolerance = {tol!r}" in out
    assert f"unit eigenvalue multiplicity = {multiplicity}" in out
    assert direct.unit_eigenvalue_multiplicity == multiplicity
    assert ("overall: PASS" in out) == direct.passed == (code == 0)
