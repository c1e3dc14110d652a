"""Experiment configuration: INI parsing, validation and object builders.

A config fully determines an experiment: the per-agent problem (prox kinds,
coupling family, seed or inline matrices), the communication graph(s), the
mixing construction(s), the algorithm and step sizes, and the run budget.
Each key is stated once, on its dataclass field: its INI name (the field
name; ``names`` is written ``name``), its cast and its default.
``parse_config`` and ``serialize_config`` are loops over those fields, and
``parse_config(serialize_config(c)) == c`` holds for every config that
``parse_config`` returns: every set field is written, and multi-line values
(edge lists) go out as indented continuation lines.  Unknown sections
(``[DEFAULT]`` with keys included) or keys, and NaN values, are errors that
name the offender.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .graphs import (
    _SCHEMES as _MIXINGS,
    _certified,
    named_topology,
    parse_edge_list,
)
from .inclusion import _step_gate
from .minmax import AgentSaddleProblem, BlockMixing
from .operators import bilinear_coupling, make_prox
from .instances import seeded_couplings

__all__ = [
    "ALGORITHMS",
    "ConfigError",
    "ExperimentConfig",
    "build_block_mixing",
    "build_problems",
    "build_start",
    "load_config",
    "parse_config",
    "resolve_steps",
    "serialize_config",
]

ALGORITHMS = ("alg1", "alg2", "pdtr", "pdhg", "forb", "condat_vu", "pg_extra")
# the prox kinds a config can build: each needs at most a weight or box bounds
_PROX_KINDS = ("zero", "l1", "box_indicator", "zero_set_indicator")
_COUPLINGS = ("bilinear", "quadratic", "zero")
_TOPOLOGIES = ("path", "ring", "star", "complete", "random")
_SCHEMES = tuple(_MIXINGS)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _fail(where, message):
    raise ConfigError(f"{where}: {message}")


# ---------------------------------------------------------------------------
# casts from INI values
# ---------------------------------------------------------------------------

def _as_int(raw):
    return int(str(raw).strip())


def _as_float(raw):
    value = float(str(raw).strip())
    if math.isnan(value):
        raise ValueError("not a number")
    return value


def _as_bool(raw):
    token = str(raw).strip().lower()
    if token in ("on", "true", "yes", "1"):
        return True
    if token in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {token!r}")


def _as_matrix(raw):
    """Rows split by ';' or newlines, entries by ','; stored as tuples."""
    rows = []
    for chunk in str(raw).replace(";", "\n").splitlines():
        chunk = chunk.strip().strip(",")
        if not chunk:
            continue
        rows.append(tuple(_as_float(t) for t in chunk.split(",")))
    if not rows:
        raise ValueError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix rows")
    return tuple(rows)


def _as_vector(raw):
    mat = _as_matrix(raw)
    if len(mat) != 1:
        raise ValueError("expected a single row")
    return mat[0]


def _as_tau(raw):
    token = str(raw).strip().lower()
    if token == "auto":
        return "auto"
    return _as_float(token)


def _choice(options):
    def cast(raw):
        token = str(raw).strip()
        if token not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return token

    return cast


def _names(raw):
    names = tuple(t.strip() for t in str(raw).split(",") if t.strip())
    if not names:
        raise ValueError("no algorithm names")
    for k, name in enumerate(names):
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}")
        if name in names[:k]:
            raise ValueError(f"algorithm {name!r} is named twice")
    return names


def _key(cast, default=None, name=None):
    """A config field: its cast from INI text, its default and, if not the field name, its key."""
    return field(default=default, metadata={"cast": cast, "key": name})


# ---------------------------------------------------------------------------
# the config: one field per key
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemConfig:
    n: int = _key(_as_int, 3)
    p: int = _key(_as_int, 2)
    d: int = _key(_as_int, 2)
    prox_f: str = _key(_choice(_PROX_KINDS), "zero")
    prox_f_weight: float = _key(_as_float, 1.0)
    prox_f_lo: float = _key(_as_float, -1.0)
    prox_f_hi: float = _key(_as_float, 1.0)
    prox_g: str = _key(_choice(_PROX_KINDS), "zero")
    prox_g_weight: float = _key(_as_float, 1.0)
    prox_g_lo: float = _key(_as_float, -1.0)
    prox_g_hi: float = _key(_as_float, 1.0)
    coupling: str = _key(_choice(_COUPLINGS), "bilinear")
    seed: int = _key(_as_int, 0)
    scale: float = _key(_as_float, 1.0)
    lipschitz: float | None = _key(_as_float)
    coupling_m: tuple | None = _key(_as_matrix)
    coupling_a: tuple | None = _key(_as_vector)
    coupling_b: tuple | None = _key(_as_vector)
    x0: tuple | None = _key(_as_vector)
    y0: tuple | None = _key(_as_vector)


@dataclass(frozen=True)
class GraphConfig:
    topology: str = _key(_choice(_TOPOLOGIES), "ring")
    density: float = _key(_as_float, 0.3)
    seed: int = _key(_as_int, 0)
    edges: str | None = _key(str)
    edges_file: str | None = _key(str)
    topology_y: str | None = _key(_choice(_TOPOLOGIES))
    density_y: float | None = _key(_as_float)
    seed_y: int | None = _key(_as_int)
    edges_y: str | None = _key(str)
    edges_file_y: str | None = _key(str)


@dataclass(frozen=True)
class MixingConfig:
    scheme: str = _key(_choice(_SCHEMES), "lazy_metropolis")
    alpha: float | None = _key(_as_float)
    scheme_y: str | None = _key(_choice(_SCHEMES))
    alpha_y: float | None = _key(_as_float)


@dataclass(frozen=True)
class AlgorithmConfig:
    names: tuple = _key(_names, ("alg2",), name="name")
    tau: float | str = _key(_as_tau, "auto")
    sigma: float | str = _key(_as_tau, "auto")
    safety: float = _key(_as_float, 0.99)


@dataclass(frozen=True)
class RunConfig:
    max_iters: int = _key(_as_int, 100_000)
    tol: float = _key(_as_float, 1e-10)
    trace_every: int = _key(_as_int, 1)
    reference: bool = _key(_as_bool, False)


@dataclass(frozen=True)
class ExperimentConfig:
    """One section per field; each section's dataclass is its default factory."""

    problem: ProblemConfig = field(default_factory=ProblemConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    mixing: MixingConfig = field(default_factory=MixingConfig)
    algorithm: AlgorithmConfig = field(default_factory=AlgorithmConfig)
    run: RunConfig = field(default_factory=RunConfig)


# section name -> (section dataclass, its (field name, INI key, cast) triples)
_SECTIONS = {
    section.name: (section.default_factory,
                   [(f.name, f.metadata["key"] or f.name, f.metadata["cast"])
                    for f in fields(section.default_factory)])
    for section in fields(ExperimentConfig)
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_section(parser, name):
    """Cast each field's key from the parsed section; any key left over is unknown."""
    section_type, table = _SECTIONS[name]
    values = dict(parser.items(name, raw=True)) if parser.has_section(name) else {}
    kwargs = {}
    for attr, key, cast in table:
        if key in values:
            raw = values.pop(key)
            try:
                kwargs[attr] = cast(raw)
            except (ValueError, TypeError) as exc:
                _fail(f"{name}.{key}", f"cannot parse {raw!r} ({exc})")
    for key in values:
        _fail(f"{name}.{key}", "unknown key")
    return section_type(**kwargs)


def _check(cfg):
    """The checks that involve more than one key's cast."""
    problem, mixing, algorithm, run = cfg.problem, cfg.mixing, cfg.algorithm, cfg.run
    if problem.n < 1:
        _fail("problem.n", "must be at least 1")
    if problem.p < 1:
        _fail("problem.p", "must be at least 1")
    if problem.d < 0:
        _fail("problem.d", "must be nonnegative")
    if mixing.scheme == "laplacian" and mixing.alpha is None:
        _fail("mixing.alpha", "required for the laplacian scheme")
    if mixing.scheme_y == "laplacian" and mixing.alpha is None and mixing.alpha_y is None:
        _fail("mixing.alpha_y", "required for the laplacian scheme")
    if not 0.0 < algorithm.safety < 1.0:
        _fail("algorithm.safety", "must lie in (0, 1)")
    if algorithm.tau != "auto" and algorithm.tau <= 0:
        _fail("algorithm.tau", "must be positive or 'auto'")
    if algorithm.sigma != "auto" and algorithm.sigma <= 0:
        _fail("algorithm.sigma", "must be positive or 'auto'")
    if run.max_iters < 0:
        _fail("run.max_iters", "must be nonnegative")
    if run.tol < 0:
        _fail("run.tol", "must be nonnegative")
    if run.trace_every < 1:
        _fail("run.trace_every", "must be at least 1")


def parse_config(text):
    """Parse INI text into an :class:`ExperimentConfig` (strict keys)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    if parser.defaults():  # keys under [DEFAULT] would be merged into every section
        _fail(parser.default_section, "unknown section")
    for name in parser.sections():
        if name not in _SECTIONS:
            _fail(name, "unknown section")
    cfg = ExperimentConfig(**{name: _parse_section(parser, name) for name in _SECTIONS})
    _check(cfg)
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value):
    """INI text that each field's cast reads back to ``value``."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        # matrices are rows of vectors; names and vectors are flat
        return ("; " if value and isinstance(value[0], tuple) else ", ").join(map(_fmt, value))
    # later lines of a multi-line value go out as indented continuation lines
    return str(value).replace("\n", "\n    ")


def serialize_config(cfg):
    """Canonical INI text; ``parse_config(serialize_config(c)) == c``.

    Every field that is not None is written, in field order.
    """
    lines = []
    for name, (_, table) in _SECTIONS.items():
        section = getattr(cfg, name)
        lines.append(f"[{name}]")
        for attr, key, _ in table:
            value = getattr(section, attr)
            if value is not None:
                lines.append(f"{key} = {_fmt(value)}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_graph(n, topology, density, seed, edges, edges_file, where):
    try:
        if edges is not None:
            g = parse_edge_list(edges)
        elif edges_file is not None:
            with open(edges_file, "r", encoding="utf-8") as fh:
                g = parse_edge_list(fh.read())
        else:
            g = named_topology(topology, n, density=density, seed=seed)
    except (OSError, ValueError) as exc:
        _fail(where, str(exc))
    if g.n != n:
        _fail(where, f"graph has {g.n} vertices but problem.n = {n}")
    return g


def build_block_mixing(cfg):
    """Certified mixing matrices for both blocks (y defaults to the x setup)."""
    n = cfg.problem.n
    g = cfg.graph
    gx = _build_graph(n, g.topology, g.density, g.seed, g.edges, g.edges_file, "graph")
    # an unset *_y key takes its x key's value; the y graph keeps the x
    # graph's edges unless topology_y, edges_y or edges_file_y is set
    own = any(v is not None for v in (g.topology_y, g.edges_y, g.edges_file_y))
    has_y = own or g.density_y is not None or g.seed_y is not None
    if has_y:
        gy = _build_graph(
            n,
            g.topology_y or g.topology,
            g.density if g.density_y is None else g.density_y,
            g.seed if g.seed_y is None else g.seed_y,
            g.edges_y if own else g.edges,
            g.edges_file_y if own else g.edges_file,
            "graph",
        )
    else:
        gy = gx
    m = cfg.mixing
    w1 = _certified(gx, m.scheme, m.alpha)
    if has_y or m.scheme_y is not None or m.alpha_y is not None:
        w2 = _certified(gy, m.scheme_y or m.scheme, m.alpha if m.alpha_y is None else m.alpha_y)
    else:
        w2 = w1
    return BlockMixing(w1, w2, split=cfg.problem.p)


def _prox_from_config(kind, weight, lo, hi, where):
    """Each factory takes the keys of its kind and ignores the others."""
    try:
        return make_prox(kind, weight=weight, lo=lo, hi=hi)
    except ValueError as exc:
        _fail(where, str(exc))


def build_problems(cfg):
    """Per-agent saddle problems from the problem section."""
    p = cfg.problem
    if p.coupling_m is not None or p.coupling_a is not None or p.coupling_b is not None:
        m = np.asarray(p.coupling_m, dtype=float) if p.coupling_m is not None else None
        a = np.asarray(p.coupling_a, dtype=float) if p.coupling_a is not None else None
        b = np.asarray(p.coupling_b, dtype=float) if p.coupling_b is not None else None
        if m is not None and m.shape != (p.p, p.d):
            _fail("problem.coupling_m", f"expected shape {(p.p, p.d)}, got {m.shape}")
        if a is not None and a.shape != (p.p,):
            _fail("problem.coupling_a", f"expected length {p.p}")
        if b is not None and b.shape != (p.d,):
            _fail("problem.coupling_b", f"expected length {p.d}")
        couplings = [bilinear_coupling(m=m, a=a, b=b, p=p.p, d=p.d)] * p.n
        if p.coupling == "quadratic":
            _fail("problem.coupling", "inline matrices are only supported for bilinear")
    else:
        couplings = seeded_couplings(p.n, p.p, p.d, p.seed, kind=p.coupling, scale=p.scale)

    prox_f = _prox_from_config(p.prox_f, p.prox_f_weight, p.prox_f_lo, p.prox_f_hi, "problem.prox_f")
    prox_g = _prox_from_config(p.prox_g, p.prox_g_weight, p.prox_g_lo, p.prox_g_hi, "problem.prox_g")
    return [AgentSaddleProblem(prox_min=prox_f, prox_max=prox_g, coupling=c) for c in couplings]


def declared_lipschitz(cfg, problems):
    """Each agent's declared constant ``L_i``, a tuple of floats: its coupling's.

    The ``problem.lipschitz`` override gives its one constant to every agent,
    and when no coupling has curvature every agent declares 1.
    """
    if cfg.problem.lipschitz is not None:
        if cfg.problem.lipschitz <= 0:
            _fail("problem.lipschitz", "must be positive")
        return (cfg.problem.lipschitz,) * len(problems)
    lips = tuple(float(prob.lipschitz) for prob in problems)
    return lips if max(lips) > 0 else (1.0,) * len(lips)


def resolve_steps(cfg, mixing, lipschitz):
    """Resolve ``tau`` (and ``sigma`` unless given) from the config and the declared constants.

    ``lipschitz`` is one constant or one per agent (:func:`declared_lipschitz`).
    ``auto`` gives each agent ``safety`` times its own reflected gate
    ``(1 + lambda_min) / (4 L_i)`` (:func:`~saddlenet.inclusion._step_gate`), as a
    tuple of floats (one float for one constant); an agent with ``L_i = 0``, whose
    gate is infinite, takes the largest finite step of the others, so it scales its
    exchange by ``c_i = 1``.  An explicit ``tau`` is one float for every agent.
    ``sigma = auto`` is ``1 / min tau_i``: the shared step ``min tau_i``, the gate's
    step at ``max L_i``, is what the product-space methods take, with that ``sigma``.
    In the CLI every method with a gate (pg_extra and forb too) takes ``safety``
    times its own.
    """
    a = cfg.algorithm
    if a.tau != "auto":
        tau = float(a.tau)
    elif np.ndim(lipschitz) == 0:
        tau = _step_gate(mixing, lipschitz, True, a.safety)
    else:
        steps = [_step_gate(mixing, lip, True, a.safety) for lip in lipschitz]
        top = max((step for step in steps if step != math.inf), default=math.inf)
        tau = tuple(top if step == math.inf else step for step in steps)
    shared = min(tau) if isinstance(tau, tuple) else tau
    sigma = 1.0 / shared if a.sigma == "auto" else float(a.sigma)
    return tau, sigma


def build_start(cfg):
    """Initial stacked rows; explicit vectors are replicated to all agents."""
    p = cfg.problem
    if p.x0 is not None:
        if len(p.x0) != p.p:
            _fail("problem.x0", f"expected length {p.p}")
        x0 = np.tile(np.asarray(p.x0, dtype=float), (p.n, 1))
    else:
        x0 = np.zeros((p.n, p.p))
    if p.y0 is not None:
        if len(p.y0) != p.d:
            _fail("problem.y0", f"expected length {p.d}")
        y0 = np.tile(np.asarray(p.y0, dtype=float), (p.n, 1))
    else:
        y0 = np.zeros((p.n, p.d))
    return x0, y0
