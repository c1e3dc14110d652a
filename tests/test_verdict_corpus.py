"""Every config the parser accepts ends with a verdict, never a traceback.

A seeded corpus of small configs runs through ``main`` in-process.  The keys
are drawn from the config's own field table (``config._SECTIONS``): a key is
drawn by its cast, so a new key with a known cast joins the corpus by itself,
and a key whose cast the corpus cannot draw fails the first test.  Keys
whose values must agree with others (dimensions, edge lists, inline
coupling blocks) are drawn by name.
"""

import re

import numpy as np

from saddlenet import config
from saddlenet.cli import main

CONFIGS = 200
STATUSES = ("converged", "budget", "diverged")
DECENTRALIZED = ("alg1", "alg2", "pg_extra")


def _options(cast):
    """The options a ``_choice`` cast accepts."""
    return next(cell.cell_contents for cell in cast.__closure__
                if isinstance(cell.cell_contents, tuple))


def _edge_list(rng, n):
    """A path or ring on ``n`` vertices, or (rarely) one on ``n + 1``."""
    m = n + 1 if rng.random() < 0.05 else n
    edges = [f"{i} {i + 1}" for i in range(m - 1)]
    if m > 2 and rng.random() < 0.5:
        edges.append(f"{m - 1} 0")
    return "\n".join([f"n {m}"] + edges)


def _algorithms(rng, keys):
    """One to three algorithms; pg_extra (``d = 0`` only) and pdhg (zero coupling only)
    are mostly drawn where they can run."""
    runs = {"pg_extra": keys["d"] == 0, "pdhg": keys.get("coupling") == "zero"}
    pool = [a for a in config.ALGORITHMS if runs.get(a, True) or rng.random() < 0.2]
    return ", ".join(rng.choice(pool, size=min(len(pool), rng.choice([1, 2, 3], p=[.6, .3, .1])),
                                replace=False))


def _numbers(rng, k):
    return ", ".join(repr(float(v)) for v in np.round(rng.standard_normal(k), 3))


# draws by cast: each takes the generator and the keys drawn so far, and returns INI text
BY_CAST = {
    config._as_int: lambda rng, keys: str(rng.choice([0, 1, 2, 5])),
    config._as_float: lambda rng, keys: rng.choice(["0.0", "0.3", "1.0", "2.5", "-1.0", "inf"]),
    config._as_bool: lambda rng, keys: rng.choice(["on", "off"]),
    config._as_tau: lambda rng, keys: rng.choice(["auto", "0.01", "0.1", "1.0", "5.0"]),
}

# draws by key, where the value must make sense beside the other keys or mostly run
BY_KEY = {
    "problem.n": lambda rng, keys: str(rng.choice([1, 2, 3, 4, 5, 6], p=[.05, .1, .3, .2, .15, .2])),
    "problem.p": lambda rng, keys: str(rng.choice([1, 2, 3])),
    "problem.d": lambda rng, keys: str(rng.choice([0, 1, 2, 3])),
    "problem.coupling": lambda rng, keys: rng.choice(["bilinear", "quadratic", "zero"], p=[.4, .4, .2]),
    "problem.scale": lambda rng, keys: rng.choice(["0.1", "1.0", "3.0"]),
    "problem.lipschitz": lambda rng, keys: rng.choice(["0.5", "2.0", "10.0"]),
    "problem.coupling_m": lambda rng, keys: "; ".join(
        _numbers(rng, keys["d"]) for _ in range(keys["p"])) or "1.0",
    "problem.coupling_a": lambda rng, keys: _numbers(rng, keys["p"]),
    "problem.coupling_b": lambda rng, keys: _numbers(rng, keys["d"]) or "1.0",
    "problem.x0": lambda rng, keys: _numbers(rng, keys["p"]),
    "problem.y0": lambda rng, keys: _numbers(rng, keys["d"]) or "1.0",
    "graph.density": lambda rng, keys: rng.choice(["0.0", "0.3", "1.0"]),
    "graph.density_y": lambda rng, keys: rng.choice(["0.0", "0.3", "1.0"]),
    "graph.edges": lambda rng, keys: _edge_list(rng, keys["n"]),
    "graph.edges_y": lambda rng, keys: _edge_list(rng, keys["n"]),
    "graph.edges_file": lambda rng, keys: "FILE",
    "graph.edges_file_y": lambda rng, keys: "FILE",
    # every config scheme, so a y block can be lazy under an x block that is not, and the reverse
    "mixing.scheme": lambda rng, keys: rng.choice(config._SCHEMES, p=[.35, .35, .3]),
    "mixing.scheme_y": lambda rng, keys: rng.choice(config._SCHEMES, p=[.35, .35, .3]),
    "mixing.alpha": lambda rng, keys: rng.choice(["0.5", "1.0", "2.0", "10.0"]),
    "mixing.alpha_y": lambda rng, keys: rng.choice(["0.5", "2.0", "10.0"]),
    "algorithm.name": _algorithms,
    "algorithm.safety": lambda rng, keys: rng.choice(["0.5", "0.9", "0.99"]),
    "run.max_iters": lambda rng, keys: str(rng.choice([0, 1, 10, 60])),
    "run.tol": lambda rng, keys: rng.choice(["0.0", "1e-10", "1e-4", "inf"]),
    "run.trace_every": lambda rng, keys: str(rng.choice([1, 3])),
}

# keys every config sets: the dimensions (later keys read them), the algorithms and the budget
ALWAYS = ("problem.n", "problem.p", "problem.d", "algorithm.name", "run.max_iters")
# the share of configs that set a key; 0.3 for the others
RATE = {"problem.coupling_m": 0.15, "problem.coupling_a": 0.1, "problem.coupling_b": 0.1,
        "mixing.alpha": 0.8, "mixing.alpha_y": 0.5}


def _draw(key, cast):
    if key in BY_KEY:
        return BY_KEY[key]
    if cast in BY_CAST:
        return BY_CAST[cast]
    if getattr(cast, "__closure__", None):  # a _choice
        return lambda rng, keys: rng.choice(_options(cast))
    return None


def _table():
    return [(f"{section}.{key}", cast)
            for section, (_, table) in config._SECTIONS.items() for _, key, cast in table]


def test_the_corpus_draws_every_config_key():
    assert [key for key, cast in _table() if _draw(key, cast) is None] == []


def draw_config(rng, edges_path):
    """INI text of one config: the ``ALWAYS`` keys and a random share (``RATE``) of the others."""
    sections, keys = {}, {}
    for key, cast in _table():
        if key not in ALWAYS and rng.random() >= RATE.get(key, 0.3):
            continue
        section, name = key.split(".")
        value = str(_draw(key, cast)(rng, keys))
        if value == "FILE":
            edges_path.write_text(_edge_list(rng, keys["n"]), encoding="utf-8")
            value = str(edges_path)
        keys[name] = int(value) if key in ALWAYS[:3] else value
        sections.setdefault(section, []).append(f"{name} = " + value.replace("\n", "\n    "))
    return "\n".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def check_outputs(argv, code, out):
    """What the exit code promises about the files in ``out``; the faults found."""
    if code not in (0, 2, 3):
        return [f"exit {code}"]
    if code == 2:
        return [] if not out.exists() else [f"exit 2 wrote {sorted(p.name for p in out.iterdir())}"]
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    if argv[0] == "run":
        statuses = re.findall(r"^stopped on = (\w+)$", summary, re.M)
    else:
        statuses = re.findall(r"(converged|NOT CONVERGED \((\w+)\))$", summary, re.M)
        statuses = [inner or "converged" for _, inner in statuses]
    faults = [f"unknown status {s!r}" for s in statuses if s not in STATUSES]
    if not statuses:
        faults.append("no status in summary.txt")
    illegal = re.findall(r"(\d+) illegal reads", summary)
    if "--audit" in argv and any(n != "0" for n in illegal):
        faults.append(f"audit found {illegal} illegal reads")
    return faults


def test_every_drawn_config_ends_with_a_verdict(tmp_path, capsys):
    rng = np.random.default_rng(17)
    faults = []
    for k in range(CONFIGS):
        text = draw_config(rng, tmp_path / f"graph{k}.edges")
        cfg = tmp_path / f"exp{k}.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / f"out{k}"
        names = re.search(r"^name = (.*)$", text, re.M).group(1).split(", ")
        argv = ["run" if len(names) == 1 else "compare", "--config", str(cfg), "--out", str(out)]
        if argv[0] == "run" and names[0] in DECENTRALIZED and rng.random() < 0.5:
            argv.append("--audit")
        try:
            code = main(argv)
        except Exception as exc:  # every escape is a fault, reported with its config
            faults.append((text, argv, f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            capsys.readouterr()
        faults += [(text, argv, fault) for fault in check_outputs(argv, code, out)]
    assert faults == [], "\n\n".join(f"{t}{a}\n-> {f}" for t, a, f in faults[:5])

