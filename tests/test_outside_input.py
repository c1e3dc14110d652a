"""Input from outside the program is refused with its own message.

Config values, edge lists, graph sizes, check-mixing's matrix file and
tolerance, a residual function and a failing output stream: each check below is reached by one input, and
the test asserts the message it raises or prints.
"""

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from saddlenet import cli
from saddlenet.cli import main
from saddlenet.config import ConfigError, build_problems, parse_config
from saddlenet.graphs import Graph, GraphFormatError, parse_edge_list, random_connected_graph, star_graph
from saddlenet.trace import StoppingRule, run_loop

# ---------------------------------------------------------------------------
# config values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("section, key, value, message", [
    ("problem", "coupling_m", "1, 2; 3", "problem.coupling_m: cannot parse '1, 2; 3' (ragged matrix rows)"),
    ("problem", "coupling_a", "1; 2", "problem.coupling_a: cannot parse '1; 2' (expected a single row)"),
    ("algorithm", "name", ", ,", "algorithm.name: cannot parse ', ,' (no algorithm names)"),
    ("algorithm", "name", "pdtr, alg2, pdtr",
     "algorithm.name: cannot parse 'pdtr, alg2, pdtr' (algorithm 'pdtr' is named twice)"),
    ("problem", "p", "0", "problem.p: must be at least 1"),
    ("problem", "d", "-1", "problem.d: must be nonnegative"),
    ("algorithm", "sigma", "0", "algorithm.sigma: must be positive or 'auto'"),
    ("algorithm", "sigma", "-2.5", "algorithm.sigma: must be positive or 'auto'"),
    ("run", "max_iters", "-1", "run.max_iters: must be nonnegative"),
    ("run", "tol", "-1e-9", "run.tol: must be nonnegative"),
], ids=["ragged-matrix", "vector-rows", "no-names", "repeated-name", "p", "d", "sigma-zero", "sigma-negative",
        "max-iters", "tol"])
def test_a_config_value_is_refused_with_its_message(section, key, value, message):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[{section}]\n{key} = {value}\n")
    assert str(info.value) == message


def test_a_coupling_vector_of_the_wrong_length_is_refused():
    cfg = parse_config("[problem]\nn = 2\np = 2\nd = 1\ncoupling_a = 1, 2, 3\n")
    with pytest.raises(ConfigError, match=r"^problem\.coupling_a: expected length 2$"):
        build_problems(cfg)


# ---------------------------------------------------------------------------
# edge lists
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    ("n 3\n0 1\nn 3\n", "line 3: duplicate 'n' header"),
    ("n\n0 1\n", "line 1: malformed header 'n'"),
    ("n 3 4\n0 1\n", "line 1: malformed header 'n 3 4'"),
    ("n three\n0 1\n", "line 1: malformed header 'n three'"),
    ("n 0\n", "line 1: vertex count must be positive"),
    ("n -2\n", "line 1: vertex count must be positive"),
    ("0 1\n1 -1\n", "line 2: negative vertex index"),
    ("", "empty edge list and no 'n' header"),
    ("# only a comment\n\n", "empty edge list and no 'n' header"),
    ("n 3\n0 1\n1 3\n", "line 3: vertex 3 exceeds declared n=3"),
], ids=["duplicate-header", "header-without-count", "header-with-two-counts", "header-not-a-number",
        "zero-count", "negative-count", "negative-index", "empty", "only-comments", "beyond-n"])
def test_an_edge_list_is_refused_with_its_message(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(0, []), "graph needs at least one vertex"),
    (lambda: star_graph(1), "star needs at least 2 vertices"),
    (lambda: random_connected_graph(0), "graph needs at least one vertex"),
    (lambda: random_connected_graph(5, density=-0.1), "density must lie in [0, 1]"),
    (lambda: random_connected_graph(5, density=1.5), "density must lie in [0, 1]"),
], ids=["empty-graph", "one-vertex-star", "empty-random-graph", "density-below", "density-above"])
def test_a_graph_builder_refuses_its_input_with_its_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# check-mixing: a matrix file and a tolerance
# ---------------------------------------------------------------------------


def test_check_mixing_refuses_a_matrix_file_of_the_wrong_shape(tmp_path, capsys):
    edges = tmp_path / "triangle.edges"
    edges.write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
    matrix = tmp_path / "w.csv"
    matrix.write_text("0.5,0.5\n0.5,0.5\n", encoding="utf-8")
    assert main(["check-mixing", str(edges), "--matrix-file", str(matrix)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: matrix shape (2, 2) does not match n=3\n"
    assert captured.out == ""


def test_check_mixing_refuses_a_negative_tolerance(tmp_path, capsys):
    edges = tmp_path / "triangle.edges"
    edges.write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
    assert main(["check-mixing", str(edges), "--scheme", "metropolis", "--tol", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tol must be nonnegative\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# residual function
# ---------------------------------------------------------------------------


def test_run_loop_refuses_a_negative_residual():
    state = SimpleNamespace(x=np.zeros(2))
    with pytest.raises(ValueError, match=r"^fp_residual must be a nonnegative number$"):
        run_loop(lambda s: SimpleNamespace(x=s.x + 1.0), state, StoppingRule(tol=0.0, max_iters=3),
                 lambda old, new: -1.0)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def test_a_write_that_fails_midway_leaves_no_temporary_and_the_old_file(tmp_path):
    target = tmp_path / "summary.txt"
    target.write_text("old contents\n", encoding="utf-8")

    def lines():
        yield "first line\n"
        raise OSError("disk gave out")

    with pytest.raises(OSError, match=r"^disk gave out$"):
        cli._write_atomic(target, lines())
    assert sorted(os.listdir(tmp_path)) == ["summary.txt"]
    assert Path(target).read_text(encoding="utf-8") == "old contents\n"
