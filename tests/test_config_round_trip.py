"""The canonical config text: every config that parses serializes to text
that parses back to the same config, and only buildable prox kinds parse."""

import ast
import re
from pathlib import Path

import pytest

from saddlenet.cli import main
from saddlenet.config import ConfigError, parse_config, serialize_config

ROOT = Path(__file__).resolve().parent.parent

# fields the serializer once dropped, and an edge list on continuation lines
DROPPED_BEFORE = {
    "zero-prox-weight": "[problem]\nprox_f = zero\nprox_f_weight = 2.0\n",
    "ring-density": "[graph]\ntopology = ring\ndensity = 0.5\n",
    "edges-and-topology": "[problem]\nn = 2\n[graph]\nedges = 0 1\ntopology = star\n",
    "seed-y": "[graph]\ntopology_y = path\nseed_y = 4\n",
    "edges-and-edges-file": "[graph]\nedges = 0 1\nedges_file = graph.txt\n",
    "multi-line-edges": "[problem]\nn = 3\n[graph]\nedges = 0 1\n  1 2\n",
}

SECTION_HEADER = r"^\s*\[(problem|graph|mixing|algorithm|run)\]"


def _corpus():
    """Every config text in the test files and the README's ``ini`` blocks that parses."""
    texts = []
    for path in sorted(Path(__file__).resolve().parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.search(SECTION_HEADER, node.value, re.M)):
                texts.append((f"{path.name}:{node.lineno}", node.value))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```ini\n(.*?)```", readme, re.S)):
        texts.append((f"README.md ini block {i}", block))
    out = []
    for where, text in texts:
        try:
            out.append((where, parse_config(text)))
        except ConfigError:
            pass  # a text that tests a rejection
    return out


def assert_round_trip(cfg):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg, text


@pytest.mark.parametrize("text", DROPPED_BEFORE.values(), ids=DROPPED_BEFORE.keys())
def test_round_trip_keeps_every_set_field(text):
    assert_round_trip(parse_config(text))


def test_round_trip_over_the_test_and_readme_configs():
    corpus = _corpus()
    assert len(corpus) >= 20
    assert any(where.startswith("README") for where, _ in corpus)
    for _, cfg in corpus:
        assert_round_trip(cfg)


def test_multi_line_values_go_out_as_continuation_lines():
    cfg = parse_config("[problem]\nn = 4\n[graph]\nedges =\n  0 1\n\n  1 2\n  2 3\n")
    assert cfg.graph.edges == "\n0 1\n\n1 2\n2 3"
    assert_round_trip(cfg)


@pytest.mark.parametrize("key", ["prox_f", "prox_g"])
def test_quadratic_prox_kind_is_rejected_by_name(key):
    with pytest.raises(ConfigError, match=f"problem.{key}: cannot parse 'quadratic'"):
        parse_config(f"[problem]\n{key} = quadratic\n")


def test_run_with_a_quadratic_prox_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text("[problem]\nprox_f = quadratic\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: problem.prox_f") and "Traceback" not in err
