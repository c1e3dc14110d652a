"""Config texts that parse into runs that cannot mean anything are rejected."""

import math

import pytest

from saddlenet.config import ConfigError, parse_config, serialize_config


@pytest.mark.parametrize("text, where", [
    ("[run]\ntol = nan\n", "run.tol"),
    ("[problem]\nprox_f_weight = NaN\n", "problem.prox_f_weight"),
    ("[algorithm]\ntau = nan\n", "algorithm.tau"),
    ("[problem]\np = 2\nd = 1\ncoupling_m = 1.0; nan\n", "problem.coupling_m"),
    ("[problem]\nx0 = 0.0, -nan\n", "problem.x0"),
])
def test_nan_is_rejected_in_every_float_key(text, where):
    with pytest.raises(ConfigError, match=rf"^{where}: cannot parse .*not a number"):
        parse_config(text)


def test_infinite_box_bounds_stay_legal_and_round_trip():
    cfg = parse_config("[problem]\nprox_g = box_indicator\nprox_g_lo = -inf\nprox_g_hi = inf\n")
    assert cfg.problem.prox_g_lo == -math.inf and cfg.problem.prox_g_hi == math.inf
    assert parse_config(serialize_config(cfg)) == cfg


def test_keys_under_default_are_an_unknown_section():
    with pytest.raises(ConfigError, match=r"^DEFAULT: unknown section$"):
        parse_config("[DEFAULT]\nn = 3\n[problem]\n[graph]\n")


def test_a_laplacian_y_block_needs_a_weight():
    with pytest.raises(ConfigError, match=r"^mixing.alpha_y: required for the laplacian scheme$"):
        parse_config("[mixing]\nscheme_y = laplacian\n")
