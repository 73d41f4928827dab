"""Entropy projection onto linearly constrained degree laws.

Minimizes H(p || q_ref) over probability vectors p on {0..L} (q_ref given by
its finite logs log q(0..L), L >= K, so no underflow refuses a large c)
subject to linear equalities <f, p> = r and inequalities <f, p> >= r (the
simplex constraint is implicit and always active).  This is the machinery
behind predicted decay rates for degree-law events: the infimum of the
mean-c Poisson rate function over an event set.

Algorithm: for fixed dual multipliers the minimizer is q_ref tilted by the
multiplier-weighted constraint vectors, normalized on the simplex.  So, with
the equalities written A p = b and the inequalities G p >= h, the solve runs
on the dual

    max  lambda . b + mu . h - log sum_k q_k exp((A^T lambda + G^T mu)_k)
    subject to mu >= 0,

which is smooth and concave with bounds as its only constraints (Csiszar,
Ann. Probab. 1975).  Projected Newton solves it (Bertsekas, SIAM J. Control
Optim. 1982): Newton steps on the free multipliers, projected back onto
mu >= 0, and a step along their gradient where no Newton trial point is
accepted.  Iteration stops at KKT residual 1e-6 -- with constraint
satisfaction tightened to 1e-8 -- or after ``MAX_ITERATIONS`` = 1e5 dual
trial points (read at each call), and a solve that stops short of the
tolerances reports ``converged = False``.  Problems here are tiny (K of
order 100, a handful of constraints), so robustness beats sophistication.

Feasibility is established up front by a phase-1 linear program (HiGHS via
scipy); infeasible constraint sets raise with the solver's certificate
message rather than returning +infinity.  If a constraint forces mass onto
points where q_ref is minuscule the value may be large but finite.

A constraint functional is stored as it was written: the name ``"mean"``
or ``"pmf@k"`` (k read by ``measures.decode_key``), or the tuple of its
explicit coefficients (from JSON by ``measures.degree_values``).  It extends
by zero beyond K, except the mean, which stays f(k) = k at every degree; so
an event written on {0..K} ignores any other degree-law mass above K.  The
solve reads the event on 0..L as float arrays, ``ConstraintSet.arrays(L)``.
Whether a sampled graph's degree law lies in the event is decided by one
exact rule, on its integer degree counts: ``ConstraintSet.holds_on_counts``
reads coefficients and thresholds as their shortest decimals, so an
equality holds only on lattice points.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import linprog

from .measures import ProbMeasure, config_float, config_int, decode_key, degree_values
from .rate import poisson_log_pmf, poisson_tail

KKT_TOL = 1e-6
#: Constraint-satisfaction tolerance demanded of the reported minimizer
#: (stricter than the complementarity tolerance).
FEASIBILITY_TOL = 1e-8
MAX_ITERATIONS = 100_000

VectorLike = Sequence[float]


class InfeasibleConstraintsError(ValueError):
    """No probability vector satisfies the constraint set."""


#: A constraint functional as it was written: the name ``"mean"`` or
#: ``"pmf@k"``, or the explicit coefficients f(0..K).
Functional = Union[str, Tuple[float, ...]]


def mean_vector(support_cap: int) -> Functional:
    """The mean functional f(k) = k, by name."""
    return "mean"


def point_vector(k: int, support_cap: int) -> Functional:
    """The point evaluation p(k), by name."""
    if not 0 <= k <= support_cap:
        raise ValueError(f"point {k} outside 0..{support_cap}")
    return f"pmf@{k}"


def _checked_name(spec: object, support_cap: int) -> str:
    """``spec`` as a canonical name on 0..K ("pmf@01" is "pmf@1"), or ValueError."""
    if spec == "mean":
        return spec
    if isinstance(spec, str) and spec.startswith("pmf@"):
        return point_vector(decode_key(spec[4:], "degree"), support_cap)
    raise ValueError(f"unsupported constraint vector spec {spec!r}")


@dataclass(frozen=True)
class ConstraintSet:
    """Linear constraints on a degree law supported on {0..support_cap}.

    ``equalities`` are pairs (f, r) meaning <f, p> = r, ``inequalities`` mean
    <f, p> >= r; each f is kept as written: the name ``"mean"`` or ``"pmf@k"``
    (k in 0..K), or the tuple of its support_cap + 1 float coefficients.
    """

    support_cap: int
    equalities: Tuple[Tuple[Functional, float], ...] = ()
    inequalities: Tuple[Tuple[Functional, float], ...] = ()

    def __init__(self, support_cap: int,
                 equalities: Sequence[Tuple[Union[str, VectorLike], float]] = (),
                 inequalities: Sequence[Tuple[Union[str, VectorLike], float]] = ()):
        if support_cap < 1:
            raise ValueError("support_cap must be >= 1")

        def freeze(cons):
            out = []
            for f, r in cons:
                f = _checked_name(f, support_cap) if isinstance(f, str) else tuple(map(float, f))
                if isinstance(f, tuple) and len(f) != support_cap + 1:
                    raise ValueError(
                        f"constraint vector has length {len(f)}, expected {support_cap + 1}")
                out.append((f, float(r)))
            return tuple(out)

        object.__setattr__(self, "support_cap", support_cap)
        object.__setattr__(self, "equalities", freeze(equalities))
        object.__setattr__(self, "inequalities", freeze(inequalities))

    def _coefficients(self, f: Functional, cap: int) -> np.ndarray:
        """f(0..cap), cap >= K: zero beyond K, except the mean, f(k) = k."""
        if f == "mean":
            return np.arange(cap + 1.0)
        row = np.zeros(cap + 1)
        if isinstance(f, str):
            row[int(f[4:])] = 1.0
        else:
            row[:self.support_cap + 1] = f
        return row

    def arrays(self, cap: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The constraints on 0..cap (cap >= K) as ``(F_eq, r_eq, F_ge, r_ge)``,
        one row a functional."""
        if cap < self.support_cap:
            raise ValueError(f"cannot shrink the support cap {self.support_cap} to {cap}")
        out = []
        for cons in (self.equalities, self.inequalities):
            f = np.zeros((len(cons), cap + 1))
            for row, (g, _) in zip(f, cons):
                row[:] = self._coefficients(g, cap)
            out += [f, np.array([r for _, r in cons], dtype=float)]
        return tuple(out)

    @functools.cached_property
    def _integer_form(self) -> Tuple[Tuple[Optional[Tuple[int, ...]], Fraction, bool], ...]:
        """Each constraint as (F, R, is equality), f and r read as their
        shortest decimals (``Fraction(repr(x))``, 0.4 as 2/5) and scaled by
        the lcm D of f's denominators: F = D f integral, R = D r exact.  F is
        None for the mean."""
        form = []
        for equal, cons in ((True, self.equalities), (False, self.inequalities)):
            for f, r in cons:
                if f == "mean":
                    form.append((None, Fraction(repr(r)), equal))
                    continue
                coefs = [Fraction(repr(x))
                         for x in self._coefficients(f, self.support_cap).tolist()]
                scale = math.lcm(*(c.denominator for c in coefs))
                form.append((tuple(int(c * scale) for c in coefs),
                             Fraction(repr(r)) * scale, equal))
        return tuple(form)

    def holds_on_counts(self, counts: np.ndarray, n: int, m: int) -> np.ndarray:
        """The one exact rule for "is this degree law in the event", for
        graphs with n nodes and m edges: row i of the integer array
        ``counts`` holds the number of nodes of degree 0, 1, ... (summing to
        n).  With f and r read as decimals, sum_k f(k) count_k over k <= K
        is compared (= or >=) with r n in integers; the mean is the constant
        2m.  Raises ValueError when a sum could overflow int64."""
        ok = np.ones(counts.shape[0], dtype=bool)
        width = min(counts.shape[1], self.support_cap + 1)
        for coefs, target, equal in self._integer_form:
            target = target * n
            if coefs is None:
                ok &= (2 * m == target) if equal else (2 * m >= target)
                continue
            # counts sum to n, so every partial sum lies within +-bound
            bound = n * max(map(abs, coefs))
            if bound >= np.iinfo(np.int64).max:
                raise ValueError(f"an event sum of n = {n} degree counts can reach "
                                 f"{bound}, beyond int64")
            if equal and target.denominator != 1:
                ok[:] = False
                continue
            # sum >= target iff sum >= ceil(target); clipped to where it still decides
            threshold = min(max(math.ceil(target), -bound - 1), bound + 1)
            sums = counts[:, :width] @ np.array(coefs[:width], dtype=np.int64)
            ok &= (sums == threshold) if equal else (sums >= threshold)
        return ok

    def describe(self) -> str:
        """Stable compact identifier, e.g. ``K30;eq[mean=2.0];ge[pmf@0>=0.4]``;
        explicit coefficients read ``f{k:c&...}``, '&'-joined to stay a CSV field."""
        def label(f: Functional) -> str:
            if isinstance(f, str):
                return f
            return "f{" + "&".join(f"{k}:{c!r}" for k, c in enumerate(f) if c) + "}"

        parts = [f"K{self.support_cap}"]
        for tag, relation, cons in (("eq", "=", self.equalities),
                                    ("ge", ">=", self.inequalities)):
            if cons:
                body = "&".join(f"{label(f)}{relation}{r!r}" for f, r in cons)
                parts.append(f"{tag}[{body}]")
        return ";".join(parts)

    # -- JSON -------------------------------------------------------------------
    @classmethod
    def from_json_dict(cls, obj: Mapping[str, object]) -> "ConstraintSet":
        """Parse {"K": int, "eq": [{"f": ..., "r": num}], "ge": [...]};
        ``f`` is "mean", "pmf@k", or an object {"k": coefficient}."""
        try:
            cap = config_int(obj["K"], "K")
        except KeyError:
            raise ValueError("constraint object missing field 'K'") from None

        def parse_vector(spec) -> Functional:
            if isinstance(spec, Mapping):
                return tuple(degree_values(spec, cap, "coefficient"))
            return _checked_name(spec, cap)

        def parse_block(name):
            items = obj.get(name, [])
            return [(parse_vector(item["f"]), config_float(item["r"], "r")) for item in items]

        return cls(cap, parse_block("eq"), parse_block("ge"))

    def to_json_dict(self) -> Dict[str, object]:
        def dump_vector(f: Functional):
            return f if isinstance(f, str) else {str(k): c for k, c in enumerate(f) if c}

        return {
            "K": self.support_cap,
            "eq": [{"f": dump_vector(f), "r": r} for f, r in self.equalities],
            "ge": [{"f": dump_vector(f), "r": r} for f, r in self.inequalities],
        }


@dataclass(frozen=True)
class Optimum:
    """Result of an entropy projection.

    ``dual_eq`` / ``dual_ge`` are the multipliers certifying stationarity (the
    minimizer is q_ref tilted by their constraint combination), and
    ``kkt_residual`` the worst primal/complementarity defect at exit.
    ``converged`` says whether the solve met its tolerances: primal defect
    at most the feasibility tolerance and complementarity defect at most
    the KKT tolerance.  When it is False the minimizer and value are the
    last iterate, not the projection.
    ``iterations`` counts the dual trial points the solve evaluated, line-
    search trials included.
    ``reference_tail`` reports the mass of the untruncated reference beyond
    the support cap, when the reference came from one.
    """

    minimizer: ProbMeasure
    value: float
    dual_eq: Tuple[float, ...]
    dual_ge: Tuple[float, ...]
    kkt_residual: float
    iterations: int
    converged: bool
    reference_tail: float = 0.0

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "minimizer": self.minimizer.to_json_dict(),
            "value": self.value,
            "dual_eq": list(self.dual_eq),
            "dual_ge": list(self.dual_ge),
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "reference_tail": self.reference_tail,
        }


def check_feasible(feq: np.ndarray, req: np.ndarray, fge: np.ndarray, rge: np.ndarray) -> None:
    """Phase-1 linear feasibility check of the constraint arrays
    (``ConstraintSet.arrays``); raises InfeasibleConstraintsError."""
    cap = feq.shape[1] - 1
    a_eq = np.vstack([np.ones((1, cap + 1)), feq])
    b_eq = np.concatenate([[1.0], req])
    a_ub = -fge if fge.shape[0] else None
    b_ub = -rge if fge.shape[0] else None
    res = linprog(np.zeros(cap + 1), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise InfeasibleConstraintsError(
            f"no degree law on 0..{cap} satisfies the constraints "
            f"(phase-1 LP: {res.message})")


def minimize_relative_entropy(log_q: VectorLike, cons: ConstraintSet) -> Optimum:
    """Minimize H(p || q_ref) over the constraint polytope on 0..L.

    ``log_q`` holds the finite logs log q(0..L) of the reference (a sequence
    or an array), L >= K; ``cons`` is read on 0..L by
    ``ConstraintSet.arrays``.  The reference need not be normalized -- for a
    sub-probability reference the value includes the -log(mass) offset, which
    is how truncated reference laws report their honest rate.

    The objective is strictly convex on the simplex, so the minimizer is
    unique.  See the module docstring for the algorithm.
    """
    log_q = np.asarray(log_q, dtype=float)
    if log_q.ndim != 1:
        raise ValueError(f"reference has shape {log_q.shape}, expected the values "
                         f"log q(0..L)")
    if not np.all(np.isfinite(log_q)):
        raise ValueError("reference law must be strictly positive on 0..K")
    feq, req, fge, rge = cons.arrays(len(log_q) - 1)
    check_feasible(feq, req, fge, rge)
    n_eq, n_ge = feq.shape[0], fge.shape[0]
    a = np.vstack([feq, fge])            # (J, L+1)
    targets = np.concatenate([req, rge])  # (J,)

    def tilt(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
        """Multiplicative update: q_ref reweighted by the dual combination of
        constraint vectors, normalized on the simplex; also returns the dual
        value x . targets - log Z(x)."""
        logits = log_q + a.T @ x
        peak = np.max(logits)
        lse = peak + math.log(np.sum(np.exp(logits - peak)))
        return np.exp(logits - lse), logits - lse, float(x @ targets) - lse

    def free_gradient(x: np.ndarray, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The dual gradient (the constraint residuals) and the mask of free
        multipliers: every equality, and each inequality except one held at
        0 by a residual that pushes it below 0."""
        g = targets - a @ p
        return g, np.concatenate([np.ones(n_eq, dtype=bool), (x[n_eq:] > 0) | (g[n_eq:] > 0)])

    # Projected Newton on the dual (Bertsekas 1982): Newton steps on the free
    # multipliers -- the dual Hessian is the tiny J x J covariance of the
    # constraint vectors under p -- projected back onto mu >= 0.  A step is
    # accepted by Armijo on the dual value until the free gradient is within
    # the KKT tolerance, then by any decrease of the free-gradient norm.  The
    # gradient *is* the vector of constraint residuals, so it is computed
    # without cancellation and the 1e-8 feasibility target is reachable; a
    # value-based search stalls near 1e-7 on double precision.  Where no
    # Newton trial point is accepted, the same search runs along the free
    # gradient, an ascent direction, before the solve gives up.
    def line_search(direction: np.ndarray):
        """The first accepted point of x + s direction, s = 1, 1/2, ... (at
        most 40 trials, within the budget), projected onto mu >= 0, as
        (x, p, log p, dual, g, free); None when no trial point is accepted."""
        nonlocal iterations
        for scale in 0.5 ** np.arange(min(40, MAX_ITERATIONS - iterations)):
            trial = x + scale * direction
            trial[n_eq:] = np.maximum(trial[n_eq:], 0.0)
            p_try, log_p_try, dual_try = tilt(trial)
            g_try, free_try = free_gradient(trial, p_try)
            iterations += 1
            if (np.linalg.norm(g_try[free_try]) < size if size <= KKT_TOL
                    else dual_try >= dual + 1e-4 * float(g @ (trial - x))):
                return trial, p_try, log_p_try, dual_try, g_try, free_try
        return None

    inner_tol = 0.5 * min(FEASIBILITY_TOL, KKT_TOL)
    x = np.zeros(n_eq + n_ge)
    p, log_p, dual = tilt(x)
    g, free = free_gradient(x, p)
    iterations = 0
    while iterations < MAX_ITERATIONS:
        size = float(np.linalg.norm(g[free]))
        if size <= inner_tol:
            break
        a_free = a[free]
        mean = a_free @ p
        hess = (a_free * p) @ a_free.T - np.outer(mean, mean)
        hess[np.diag_indices_from(hess)] += 1e-13
        direction = np.zeros_like(x)
        try:
            direction[free] = np.linalg.solve(hess, g[free])
        except np.linalg.LinAlgError:
            direction[free] = np.linalg.lstsq(hess, g[free], rcond=None)[0]
        step = line_search(direction) or line_search(np.where(free, g, 0.0))
        if step is None:
            break  # no trial point makes progress
        x, p, log_p, dual, g, free = step

    # primal violation and complementary-slackness defect, read off the residuals
    primal_res = max(float(np.max(np.abs(g[:n_eq]), initial=0.0)),
                     float(np.max(g[n_eq:], initial=0.0)))
    comp_res = float(np.max(np.abs(x[n_eq:] * g[n_eq:]), initial=0.0))
    residual = max(primal_res, comp_res)
    converged = primal_res <= FEASIBILITY_TOL and comp_res <= KKT_TOL
    value = float(p @ (log_p - log_q))
    minimizer = ProbMeasure({k: float(w) for k, w in enumerate(p) if w > 0})
    return Optimum(minimizer, max(value, 0.0) if value > -1e-12 else value,
                   tuple(x[:n_eq]), tuple(x[n_eq:]), residual, iterations, converged)


def rate_infimum_for_event(c: float, cons: ConstraintSet,
                           support_cap: Optional[int] = None) -> Optimum:
    """Predicted decay rate of a degree-law event at mean degree ``c``:

        inf H(p || Poisson(c))   over the event set, with mean(p) = c
                                 always appended (degree laws of fixed-edge-
                                 count graphs have mean exactly c).

    The Poisson reference is truncated at ``support_cap`` (default
    max(50, ceil(10 c), event cap)) and passed as its logs, finite at any c;
    its tail mass is reported alongside the value as ``reference_tail``.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    if support_cap is None:
        support_cap = max(50, math.ceil(10 * c), cons.support_cap)
    elif support_cap < cons.support_cap:
        raise ValueError(f"reference cap K = {support_cap} is below the event's "
                         f"K = {cons.support_cap}")
    with_mean = ConstraintSet(cons.support_cap, cons.equalities + (("mean", float(c)),),
                              cons.inequalities)
    optimum = minimize_relative_entropy(poisson_log_pmf(c, np.arange(support_cap + 1)),
                                        with_mean)
    return dataclasses.replace(optimum, reference_tail=poisson_tail(c, support_cap))
