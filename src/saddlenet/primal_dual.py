"""Primal-dual splitting methods built around a twice-reflected forward term.

The central iteration (``pdtr``) solves the structured inclusion

    0 in A(x) + B(x) + K' C(K x)

with ``A`` maximally monotone (given through its resolvent), ``B`` monotone
Lipschitz (evaluated explicitly, no cocoercivity needed), ``K`` a linear map
and ``C`` accessed through the resolvent of ``sigma * C^{-1}``:

    x+ = J_{tau A}(x - tau K' y - 2 tau B(x) + tau B(x-))
    y+ = J_{sigma C^{-1}}(y + sigma K (2 x+ - x))

admissible whenever ``2 tau L + tau sigma ||K||^2 < 1``.  The reflected
history starts with ``x- = x0``.  Setting ``B = 0`` recovers PDHG; ``K = 0``
decouples into a reflected forward-backward step in ``x`` and proximal-point
steps in ``y``; ``K = Id`` matches a three-line reflected Douglas-Rachford
iteration with ``gamma = 1/sigma``.  The Condat-Vu baseline (single forward
evaluation, no reflection) is included for comparisons; it requires a
cocoercive ``B`` and is expected to fail on skew couplings.

The reflected forward-backward method (forb: :class:`ForbState`,
:func:`forb_step`, :func:`forb_run`) is the decentralized round of
:mod:`saddlenet.inclusion` with one agent on ``W = [[1]]``.  It is defined
there, next to that round, and read from there on first use here, because
that module imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import estimate_operator_norm
from .trace import _norm, per_state, run_loop

__all__ = [
    "ForbState",
    "MMetric",
    "PdtrState",
    "PrimalDualProblem",
    "StepSizeError",
    "StepSizes",
    "balanced_step_sizes",
    "condat_vu_run",
    "condat_vu_step",
    "forb_run",
    "forb_step",
    "frdr_step",
    "m_metric",
    "metric_lipschitz_bound",
    "metric_lipschitz_ratio",
    "pdhg_run",
    "pdhg_step",
    "pdtr_run",
    "pdtr_step",
    "primal_resolvent_from_dual",
]


class StepSizeError(ValueError):
    """Raised when step sizes violate an admissibility condition."""


@dataclass(frozen=True)
class StepSizes:
    """Primal step ``tau`` and dual step ``sigma``.

    ``tau`` may be the diagonal of a diagonal primal step ``T`` (an array the
    primal's length), which the steps apply entry by entry.  The admissibility
    rules gate it by its largest entry: ``2 max tau L + max tau sigma ||K||^2 < 1``
    is sufficient for the diagonal step.
    """

    tau: float | np.ndarray
    sigma: float

    def __post_init__(self):
        if np.min(self.tau) <= 0 or self.sigma <= 0:
            raise StepSizeError("step sizes must be positive")

    def admissible(self, lipschitz, k_norm):
        """Strict admissibility ``2 max tau L + max tau sigma ||K||^2 < 1``."""
        top = float(np.max(self.tau))
        return 2.0 * top * lipschitz + top * self.sigma * k_norm**2 < 1.0


def balanced_step_sizes(lipschitz, k_norm, margin=0.9):
    """Equal steps ``tau = sigma = s`` with ``2 s L + s^2 ||K||^2 = margin``.

    The margin keeps the iteration strictly inside the admissible region;
    with neither a forward term nor a linear coupling any step works and
    ``s = 1`` is returned.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    lip = float(lipschitz)
    kk = float(k_norm) ** 2
    if lip < 0 or kk < 0:
        raise ValueError("constants must be nonnegative")
    if kk == 0.0:
        s = margin / (2.0 * lip) if lip > 0 else 1.0
    else:
        s = (-lip + math.sqrt(lip * lip + margin * kk)) / kk
    return StepSizes(s, s)


@dataclass(frozen=True, eq=False)
class PrimalDualProblem:
    """Problem data for the primal-dual methods.

    ``resolvent`` evaluates ``J_{tau A}``, ``dual_resolvent`` evaluates
    ``J_{sigma C^{-1}}`` (identity when the dual has no regularizer), and
    ``k`` is the dense coupling matrix of shape (dual_dim, primal_dim); use
    an all-zero matrix for uncoupled problems.  ``k_norm`` is filled in by
    an exact SVD (:func:`~saddlenet.operators.estimate_operator_norm`) when
    not supplied; a large ``k`` should come with its norm, since the SVD
    costs cubic time in its size.
    """

    resolvent: object
    forward: object
    dual_resolvent: object
    k: np.ndarray
    k_norm: float = None

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.k, dtype=float))
        object.__setattr__(self, "k", k)
        if self.k_norm is None:
            object.__setattr__(self, "k_norm", estimate_operator_norm(k))

    @property
    def primal_dim(self):
        return self.k.shape[1]

    @property
    def dual_dim(self):
        return self.k.shape[0]

    @property
    def lipschitz(self):
        return self.forward.lipschitz


@dataclass(frozen=True, eq=False)
class PdtrState:
    """Iterate pair plus the cached forward value at the previous point."""

    x: np.ndarray
    y: np.ndarray
    prev_bx: np.ndarray

    @classmethod
    def start(cls, problem, x0, y0):
        """History convention: the pre-initial point coincides with ``x0``."""
        x0 = np.asarray(x0, dtype=float)
        y0 = np.asarray(y0, dtype=float)
        return cls(x0, y0, problem.forward(x0))


def _primal_dual_step(problem, state, steps, forward_term):
    """``x+ = J_{tau A}(forward_term(x - tau K' y))`` and the dual update.

    ``forward_term(u, bx, tau)`` subtracts the method's forward term from
    ``u``; the rest is shared by every method below so reductions agree bit
    for bit.
    """
    bx = problem.forward(state.x)
    kty = problem.k.T @ state.y
    x_new = problem.resolvent(steps.tau, forward_term(state.x - steps.tau * kty, bx, steps.tau))
    y_new = problem.dual_resolvent(
        steps.sigma, state.y + steps.sigma * (problem.k @ (2.0 * x_new - state.x))
    )
    return PdtrState(x_new, y_new, bx)


def pdtr_step(problem, state, steps):
    """One twice-reflected primal-dual step."""
    return _primal_dual_step(problem, state, steps,
                             lambda u, bx, tau: u - (2.0 * tau) * bx + tau * state.prev_bx)


def pdhg_step(problem, state, steps):
    """Plain PDHG step (no forward term); the ``B = 0`` reduction of pdtr."""
    return _primal_dual_step(problem, state, steps, lambda u, bx, tau: u)


def condat_vu_step(problem, state, steps):
    """Forward-backward primal-dual step with a single unreflected B evaluation.

    Convergence theory needs a cocoercive ``B``; for merely monotone (for
    example skew) forward terms this iteration can diverge, which is exactly
    what the comparison tooling demonstrates.
    """
    return _primal_dual_step(problem, state, steps, lambda u, bx, tau: u - tau * bx)


def primal_resolvent_from_dual(dual_resolvent, gamma, point):
    """Evaluate ``J_{gamma C}`` given the resolvent of ``sigma C^{-1}``.

    Uses the exchange identity ``J_{gamma C}(w) = w - gamma J_{(1/gamma) C^{-1}}(w / gamma)``.
    """
    point = np.asarray(point, dtype=float)
    return point - gamma * dual_resolvent(1.0 / gamma, point / gamma)


def frdr_step(problem, state, gamma, tau):
    """Reflected Douglas-Rachford step; requires ``K = Id``.

    Equivalent to :func:`pdtr_step` with ``sigma = 1/gamma`` in exact
    arithmetic; the admissible range is ``tau < gamma / (1 + 2 gamma L)``.
    """
    k = problem.k
    if k.shape[0] != k.shape[1] or not np.array_equal(k, np.eye(k.shape[0])):
        raise ValueError("this reduction needs the coupling matrix to be the identity")
    bx = problem.forward(state.x)
    x_new = problem.resolvent(
        tau, state.x - tau * state.y - (2.0 * tau) * bx + tau * state.prev_bx
    )
    shift = 2.0 * x_new - state.x
    u_new = primal_resolvent_from_dual(problem.dual_resolvent, gamma, shift + gamma * state.y)
    y_new = state.y + (shift - u_new) / gamma
    return PdtrState(x_new, y_new, bx)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _pdtr_gate(problem, steps):
    if not steps.admissible(problem.lipschitz, problem.k_norm):
        raise StepSizeError(
            "steps violate 2*tau*L + tau*sigma*||K||^2 < 1 "
            f"(tau={steps.tau!r}, sigma={steps.sigma!r}, L={problem.lipschitz!r}, "
            f"||K||={problem.k_norm!r})"
        )


def _pdhg_gate(problem, steps):
    if not np.max(steps.tau) * steps.sigma * problem.k_norm**2 < 1.0:
        raise StepSizeError("steps violate tau*sigma*||K||^2 < 1")


# method name -> (step, step-size gate); condat_vu has none (see condat_vu_run)
_METHODS = {"pdtr": (pdtr_step, _pdtr_gate), "pdhg": (pdhg_step, _pdhg_gate),
            "condat_vu": (condat_vu_step, None)}


def _run_primal_dual(name, problem, init, steps, stop, observe):
    """Gate the steps of method ``name`` and iterate it from ``init``.

    ``init`` is a ``(x0, y0)`` pair or a prepared state; ``observe`` is a
    batched :func:`~saddlenet.trace.run_loop` observer.
    """
    step, gate = _METHODS[name]
    if gate is not None:
        gate(problem, steps)
    state = init if isinstance(init, PdtrState) else PdtrState.start(problem, *init)
    return run_loop(lambda s: step(problem, s, steps), state, stop,
                    lambda old, new: _norm(new.x - old.x, new.y - old.y), observe)


def pdtr_run(problem, init, steps, stop=None, *, observe=None):
    """Iterate :func:`pdtr_step` until the norm of a step's change of ``(x, y)`` meets the rule.

    ``init`` is a ``(x0, y0)`` pair or a prepared state, and ``observe`` is
    as in :func:`forb_run`.  Inadmissible steps
    (``2 tau L + tau sigma ||K||^2 >= 1``) raise :class:`StepSizeError`.
    Returns the final state and the :class:`ConvergenceTrace`.
    """
    return _run_primal_dual("pdtr", problem, init, steps, stop, per_state(observe))


def pdhg_run(problem, init, steps, stop=None, *, observe=None):
    """Iterate :func:`pdhg_step`; requires ``tau sigma ||K||^2 < 1``."""
    return _run_primal_dual("pdhg", problem, init, steps, stop, per_state(observe))


def condat_vu_run(problem, init, steps, stop=None, observe=None):
    """Iterate :func:`condat_vu_step`.

    No admissibility gate: the step rule of this baseline depends on a
    cocoercivity constant the caller may not have, and running it outside
    its theory on purpose is a supported comparison scenario.
    """
    return _run_primal_dual("condat_vu", problem, init, steps, stop, per_state(observe))


def __getattr__(name):
    """The forb names, from :mod:`saddlenet.inclusion` (see the module docstring)."""
    if name in ("ForbState", "forb_run", "forb_step"):
        from . import inclusion

        return getattr(inclusion, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# the step-size metric
# ---------------------------------------------------------------------------

class MMetric:
    """The block metric ``[[T^{-1}, -K'], [-K, I/sigma]]`` used by the analysis, ``T = diag(tau)``.

    Positive definite when ``max tau sigma ||K||^2 < 1`` (exactly when for one ``tau``);
    construction fails otherwise.  Vectors are ``(x, y)`` pairs.  ``k_norm`` defaults to
    the exact norm of ``k`` from an SVD.
    """

    def __init__(self, steps, k, k_norm=None):
        k = np.atleast_2d(np.asarray(k, dtype=float))
        if k_norm is None:
            k_norm = estimate_operator_norm(k)
        if not np.max(steps.tau) * steps.sigma * k_norm**2 < 1.0:
            raise StepSizeError("metric is not positive definite: tau*sigma*||K||^2 >= 1")
        self.steps = steps
        self.k = k
        self.k_norm = float(k_norm)
        q, p = k.shape
        self.dense = np.block(
            [
                [np.eye(p) / steps.tau, -k.T],
                [-k, np.eye(q) / steps.sigma],
            ]
        )

    def inner(self, z1, z2):
        v1 = np.concatenate([np.asarray(z1[0], dtype=float), np.asarray(z1[1], dtype=float)])
        v2 = np.concatenate([np.asarray(z2[0], dtype=float), np.asarray(z2[1], dtype=float)])
        return float(v1 @ self.dense @ v2)

    def norm(self, z):
        return math.sqrt(max(self.inner(z, z), 0.0))


def m_metric(steps, k, k_norm=None):
    """Build the :class:`MMetric` for the given steps and coupling matrix."""
    return MMetric(steps, k, k_norm)


def metric_lipschitz_bound(steps, lipschitz, k_norm):
    """Lipschitz constant of the metric-scaled forward map: ``tau L / (1 - tau sigma ||K||^2)``
    at ``tau = max tau``, which bounds a diagonal step too (its metric dominates that one's)."""
    tau = float(np.max(steps.tau))
    denom = 1.0 - tau * steps.sigma * k_norm**2
    if denom <= 0:
        raise StepSizeError("bound undefined: tau*sigma*||K||^2 >= 1")
    return tau * lipschitz / denom


def metric_lipschitz_ratio(problem, steps, samples=10000, seed=0):
    """Observed M-metric Lipschitz ratio of the metric-scaled forward map.

    Samples standard normal pairs ``z, z~`` and returns the largest value of
    ``||M^{-1} F(z) - M^{-1} F(z~)||_M / ||z - z~||_M`` where
    ``F(x, y) = (B(x), 0)``.  The analysis bounds this by
    :func:`metric_lipschitz_bound`; the numerator uses
    ``||M^{-1} r||_M^2 = r' M^{-1} r``.

    A handful of the sampled pairs differ in the primal block only, so on
    instances where those directions are extremal (``K = 0`` with scaled
    identity ``B``) the returned ratio attains the bound instead of merely
    approaching it.
    """
    metric = m_metric(steps, problem.k, problem.k_norm)
    p, q = problem.primal_dim, problem.dual_dim
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, p))
    xb = rng.standard_normal((samples, p))
    y = rng.standard_normal((samples, q))
    yb = rng.standard_normal((samples, q))
    axis = min(8, samples)
    yb[:axis] = y[:axis]

    if problem.forward.jacobian is not None:
        db = (x - xb) @ problem.forward.jacobian.T
    else:
        db = np.stack([problem.forward(x[s]) - problem.forward(xb[s]) for s in range(samples)])

    r = np.concatenate([db, np.zeros((samples, q))], axis=1)
    num2 = np.einsum("sj,sj->s", r, np.linalg.solve(metric.dense, r.T).T)
    dz = np.concatenate([x - xb, y - yb], axis=1)
    den2 = np.einsum("sj,sj->s", dz, dz @ metric.dense)
    ok = den2 > 0
    if not np.any(ok):
        return 0.0
    return float(np.sqrt(np.max(np.maximum(num2[ok], 0.0) / den2[ok])))
