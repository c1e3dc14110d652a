"""Reproducible random problem instances.

All randomness flows through ``numpy.random.default_rng`` (PCG64) seeded
with a caller-supplied 64-bit integer, and every generator documents its
draw order, so instances are identical across platforms and sessions.
"""

from __future__ import annotations

import numpy as np

from .inclusion import AgentInclusion
from .minmax import AgentSaddleProblem
from .operators import (
    ForwardOperator,
    bilinear_couplings,
    make_prox,
    operator_norms,
    quadratic_couplings,
    quadratic_proxes,
)

__all__ = [
    "random_monotone_matrix",
    "random_inclusion_agents",
    "random_saddle_problems",
    "seeded_couplings",
]


def random_monotone_matrix(h, rng, skew_scale=1.0, sym_scale=0.3):
    """Monotone linear map: scaled skew part plus a PSD part.

    Draw order: one ``h x h`` standard normal for the skew part, one for
    the PSD part.  ``S + P`` is monotone because ``z'(S + P)z = z'Pz >= 0``.
    """
    a = rng.standard_normal((h, h))
    g = rng.standard_normal((h, h))
    return _monotone_matrices(a[None], g[None], skew_scale, sym_scale)[0]


def _monotone_matrices(a, g, skew_scale=1.0, sym_scale=0.3):
    """:func:`random_monotone_matrix` of every row of the normal stacks ``a`` and ``g``."""
    gt = np.swapaxes(g, 1, 2)
    return 0.5 * (a - np.swapaxes(a, 1, 2)) * skew_scale + (g @ gt) / g.shape[-1] * sym_scale


_PROX_POOL = ("zero", "l1", "box_indicator", "quadratic")
_COUPLINGS = ("bilinear", "quadratic", "zero")


def _random_prox_params(h, rng, pool=_PROX_POOL):
    """``(kind, params)`` of one library prox.

    Draw order: one integer for the kind, then kind-specific draws.
    """
    kind = pool[int(rng.integers(0, len(pool)))]
    if kind == "l1":
        return kind, {"weight": float(rng.uniform(0.01, 0.5))}
    if kind == "box_indicator":
        lo = rng.uniform(-2.0, 0.0, size=h)
        hi = lo + rng.uniform(0.5, 3.0, size=h)
        return kind, {"lo": lo, "hi": hi}
    if kind == "quadratic":
        g = rng.standard_normal((h, h))
        return kind, {"q_matrix": (g @ g.T) / h, "q_vec": rng.standard_normal(h) * 0.5}
    return kind, {}


def random_inclusion_agents(n, h, seed, pool=_PROX_POOL):
    """``n`` agents with random library proxes and monotone linear maps.

    Per agent in order: prox draws, then the forward-matrix draws of
    :func:`random_monotone_matrix`.  The draws fill ``(n, ...)`` stacks;
    the forward matrices, their norms and the quadratic proxes' checks
    then take one batched pass each.
    """
    rng = np.random.default_rng(seed)
    proxes = [None] * n
    a, g = np.empty((n, h, h)), np.empty((n, h, h))
    q_matrix, q_vec = np.empty((n, h, h)), np.empty((n, h))
    quadratic = []  # the agents with a quadratic prox, in order
    for i in range(n):
        kind, params = _random_prox_params(h, rng, pool)
        if kind == "quadratic":
            q_matrix[len(quadratic)], q_vec[len(quadratic)] = params["q_matrix"], params["q_vec"]
            quadratic.append(i)
        else:
            proxes[i] = make_prox(kind, **params)
        a[i] = rng.standard_normal((h, h))
        g[i] = rng.standard_normal((h, h))
    k = len(quadratic)
    for i, prox in zip(quadratic, quadratic_proxes(q_matrix[:k], q_vec[:k])):
        proxes[i] = prox
    forward = _monotone_matrices(a, g)
    lipschitz = operator_norms(forward).tolist()
    # linear forwards built as linear_forward builds them, without its per-agent array work
    offset = np.zeros((n, h))
    return [AgentInclusion(resolvent=prox, forward=ForwardOperator(None, lip, f, b))
            for prox, lip, f, b in zip(proxes, lipschitz, forward, offset)]


def seeded_couplings(n, p, d, seed, kind="bilinear", scale=1.0):
    """Per-agent couplings from one seed.

    Draw order per agent: for ``bilinear`` the ``p x d`` matrix ``M`` (row
    major), then ``a`` (length p), then ``b`` (length d); for ``quadratic``
    additionally ``p x p`` and ``d x d`` Gaussian factors for the PSD blocks
    drawn first.  Entries are standard normal scaled by
    ``scale / sqrt(max(p, d, 1))``.  The draws fill ``(n, ...)`` stacks,
    which are checked, assembled and normed in one batched pass.
    """
    if kind not in _COUPLINGS:
        raise ValueError(f"unknown coupling kind {kind!r}")
    m, a, b = np.zeros((n, p, d)), np.zeros((n, p)), np.zeros((n, d))
    if kind == "zero":
        return bilinear_couplings(m, a, b)
    rng = np.random.default_rng(seed)
    s = scale / np.sqrt(max(p, d, 1))
    pm, rm = np.empty((n, p, p)), np.empty((n, d, d))
    for i in range(n):
        if kind == "quadratic":
            gp = rng.standard_normal((p, p))
            gr = rng.standard_normal((d, d))
            pm[i] = (gp @ gp.T) / max(p, 1) * s
            rm[i] = (gr @ gr.T) / max(d, 1) * s
        m[i] = rng.standard_normal((p, d)) * s
        a[i] = rng.standard_normal(p) * s
        b[i] = rng.standard_normal(d) * s
    if kind == "quadratic":
        return quadratic_couplings(pm, m, rm, a, b)
    return bilinear_couplings(m, a, b)


def random_saddle_problems(n, p, d, seed, coupling_kind="bilinear",
                           prox_min_kind="l1", prox_max_kind="box_indicator",
                           prox_min_params=None, prox_max_params=None, scale=1.0):
    """``n`` saddle agents with seeded couplings, all sharing one ``Prox`` of each kind."""
    couplings = seeded_couplings(n, p, d, seed, kind=coupling_kind, scale=scale)
    prox_min = make_prox(prox_min_kind, **dict(prox_min_params or {}))
    prox_max = make_prox(prox_max_kind, **dict(prox_max_params or {}))
    return [AgentSaddleProblem(prox_min=prox_min, prox_max=prox_max, coupling=c) for c in couplings]
