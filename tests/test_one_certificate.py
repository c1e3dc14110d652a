"""One certificate path: every scheme's certificate is ``certify_mixing``'s.

Each builder of ``graphs._SCHEMES`` returns its weights and a certificate.
That certificate must be what ``certify_mixing`` finds for those weights at
the same tolerance: the same pass flags, unit multiplicity and notes, and
the same extreme eigenvalues to rounding.  The lazy Metropolis build runs
one ``eigvalsh`` of ``W`` and judges ``W_c = (1 - c) I + c W`` on the
mapped spectrum, so the unit eigenvalue is counted on ``W_c``'s scale.
"""

import numpy as np
import pytest

from saddlenet import graphs
from saddlenet.cli import main
from saddlenet.graphs import (
    _metropolis_weights,
    certify_mixing,
    complete_graph,
    lazy_metropolis_mixing,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)

GRAPHS = ([ring_graph(n) for n in (3, 4, 5, 8, 13, 40)] + [path_graph(n) for n in (2, 3, 5, 9, 40)]
          + [star_graph(n) for n in (2, 5, 12)] + [complete_graph(n) for n in (2, 4, 9)]
          + [random_connected_graph(n, density, seed) for n, density, seed in
             ((10, 0.3, 1), (50, 0.1, 2), (200, 0.05, 3), (500, 0.02, 11))])
TOLS = (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.9)
FLAGS = ("decentralized", "symmetric", "kernel", "spectral", "passed")


def graph_id(g):
    return f"n{g.n}-e{len(g.edge_array)}"


def alpha_of(g):
    """Above ``lambda_max(L) / 2``, since ``lambda_max(L) <= 2 * max degree``."""
    return max(g.degree(i) for i in range(g.n)) + 1.0


@pytest.mark.parametrize("scheme", tuple(graphs._SCHEMES))
@pytest.mark.parametrize("g", GRAPHS, ids=graph_id)
def test_each_scheme_certifies_its_weights_as_certify_mixing_does(scheme, g):
    for tol in TOLS:
        w, cert = graphs._SCHEMES[scheme](g, alpha_of(g), tol)
        direct = certify_mixing(w, g, tol)
        for flag in FLAGS:
            assert getattr(cert, flag) == getattr(direct, flag), (tol, flag)
        assert cert.unit_eigenvalue_multiplicity == direct.unit_eigenvalue_multiplicity, tol
        assert cert.notes == direct.notes, tol
        assert cert.tol == direct.tol == tol
        assert abs(cert.lambda_min - direct.lambda_min) <= 1e-12, tol
        assert abs(cert.lambda_max - direct.lambda_max) <= 1e-12, tol


@pytest.mark.parametrize("g", GRAPHS, ids=graph_id)
def test_the_lazy_lambda_min_is_the_mapped_expression_bitwise(g):
    # c and lambda_min(W_c) as computed from a certificate of W before the one path
    lam = certify_mixing(_metropolis_weights(g), g).lambda_min
    m = lazy_metropolis_mixing(g)
    if lam < -g.n * np.finfo(float).eps:
        c = 1.0 / (1.0 - lam)
        assert m.lambda_min == 1.0 - c * (1.0 - lam)
    else:
        assert m.lambda_min == lam


def test_a_given_spectrum_stands_in_for_the_eigensolve(monkeypatch):
    g = ring_graph(5)
    w = _metropolis_weights(g)
    vals = np.linalg.eigvalsh(w)

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called although the spectrum was given")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    kept, cert = graphs._certificate(w, g, 1e-9, vals)
    assert kept is w
    assert cert.lambda_min == float(vals[0]) and cert.lambda_max == float(vals[-1])
    assert cert.passed


def test_the_unit_eigenvalue_is_counted_on_the_lazy_scale():
    # the lazy 5-ring's spectrum is 1, 0.618 twice and 0 twice (W's: 1, 0.539 twice,
    # -0.206 twice): at tol 0.45 the unit eigenvalue of W_c counts three times, W's once
    g = ring_graph(5)
    _, cert = graphs._SCHEMES["lazy_metropolis"](g, None, 0.45)
    assert cert.unit_eigenvalue_multiplicity == 3
    assert cert.notes == ("eigenvalue 1 has multiplicity 3",)
    assert not cert.passed
    assert certify_mixing(_metropolis_weights(g), g, 0.45).unit_eigenvalue_multiplicity == 1


def test_check_mixing_judges_the_lazy_scheme_and_its_matrix_file_alike(tmp_path, capsys):
    edges = tmp_path / "ring5.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
    matrix = tmp_path / "lazy.csv"
    np.savetxt(matrix, lazy_metropolis_mixing(ring_graph(5)).w, delimiter=",")
    outs = []
    for source in (["--scheme", "lazy_metropolis"], ["--matrix-file", str(matrix)]):
        assert main(["check-mixing", str(edges), *source, "--tol", "0.45"]) == 1
        outs.append(capsys.readouterr().out)
    for out in outs:
        assert "unit eigenvalue multiplicity = 3" in out
        assert "overall: FAIL" in out
    # the file holds the same matrix, so only the last digits of lambda may differ
    assert [line for line in outs[0].splitlines() if not line.startswith("lambda_")] == \
        [line for line in outs[1].splitlines() if not line.startswith("lambda_")]
