"""Entropy projection onto linearly constrained degree laws.

Minimizes H(p || q_ref) over probability vectors p on {0..L} (q_ref given by
its logs log q(0..L), L >= K, so no underflow refuses a large c), or on all
of {0, 1, ...} when q_ref goes on as a Poisson law, subject to linear
equalities <f, p> = r and inequalities <f, p> >= r (the simplex constraint
is implicit and always active).  This is the machinery behind predicted
decay rates for degree-law events: the infimum of the mean-c Poisson rate
function over an event set.

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
accepted.  Iteration stops at free-gradient norm 5e-9, when no trial
point makes progress, or after ``MAX_ITERATIONS`` = 1e5 dual trial points
(read at each call).  The solve has converged when its constraints hold to
1e-8 and each complementarity product |mu_i g_i| is at most 1e-6 max(1,
|value|): relative to the value, as a floor held by a multiplier of 2e5 at
value 23 cannot reach 1e-6 absolute in double precision.  Otherwise it
reports ``converged = False``.  Problems here are tiny (K of order 100, a
handful of constraints), so robustness beats sophistication.

A Poisson(c) tail beyond L is one more atom.  There every functional is 0
but the mean, so the tilted law is q(k) e^{theta k}, theta the sum of the
mean rows' multipliers, of mass e^{c(e^theta - 1)} P{Poisson(c e^theta) > L};
its first and factorial second moments take the same form at L - 1 and
L - 2 (``rate.poisson_tail``), and the Hessian gets its variance.

Feasibility is established up front by a phase-1 linear program (HiGHS
through ``scipy.optimize.milp`` with no integer variables, whose wrapper
costs less than ``linprog``'s; a tail is its mass t and first moment
s >= (L + 1) t, and t = 0 < s, mass escaping to infinity, is no law):
infeasible sets raise with the solver's message rather than returning
+infinity.  If a constraint forces mass onto points where q_ref is
minuscule the value may be large but finite.

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

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .measures import (FiniteMeasure, config_field, config_float, config_int, decode_key,
                       degree_values)
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


def _checked_name(spec: object, support_cap: int) -> str:
    """``spec`` as a canonical name on 0..K ("pmf@01" is "pmf@1"), or ValueError."""
    if spec == "mean":
        return spec
    if isinstance(spec, str) and spec.startswith("pmf@"):
        k = decode_key(spec[4:], "degree")
        if not 0 <= k <= support_cap:
            raise ValueError(f"point {k} outside 0..{support_cap}")
        return f"pmf@{k}"
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
        cap = config_int(config_field(obj, "K"), "K")

        def parse_vector(spec) -> Functional:
            if isinstance(spec, Mapping):
                return tuple(degree_values(spec, cap, "coefficient"))
            return _checked_name(spec, cap)

        def parse_block(name):
            items = config_field(obj, name, list) if name in obj else []
            return [(parse_vector(config_field(item, "f")),
                     config_float(config_field(item, "r"), "r")) for item in items]

        return cls(cap, parse_block("eq"), parse_block("ge"))


@dataclass(frozen=True)
class Optimum:
    """Result of an entropy projection.

    ``minimizer`` is the law on 0..L; with a Poisson tail beyond L it has
    mass 1 - ``tail_mass``, and the rest is Poisson(``tail_mean``) beyond L.
    ``value`` is the dual value at exit, a lower bound by weak duality whose
    error is second order in the primal defect (the minimizer's own entropy
    errs to first order).
    ``dual_eq`` / ``dual_ge`` are the multipliers certifying stationarity (the
    minimizer is q_ref tilted by their constraint combination), and
    ``kkt_residual`` the worst primal/complementarity defect at exit.
    ``converged`` says whether the solve met its tolerances: primal defect
    at most the feasibility tolerance and complementarity defect at most
    the KKT tolerance times max(1, |value|).  When it is False the
    minimizer and value are the last iterate, not the projection.
    ``iterations`` counts the dual trial points the solve evaluated, line-
    search trials included.
    """

    minimizer: FiniteMeasure
    value: float
    dual_eq: Tuple[float, ...]
    dual_ge: Tuple[float, ...]
    kkt_residual: float
    iterations: int
    converged: bool
    tail_mass: float
    tail_mean: float

    def to_json_dict(self) -> Dict[str, object]:
        out = {field.name: getattr(self, field.name) for field in fields(self)}
        return {**out, "minimizer": self.minimizer.to_json_dict(),
                "dual_eq": list(self.dual_eq), "dual_ge": list(self.dual_ge)}


def check_feasible(feq: np.ndarray, req: np.ndarray, fge: np.ndarray, rge: np.ndarray,
                   upper: np.ndarray, tail: Optional[np.ndarray] = None) -> None:
    """Phase-1 linear feasibility check of the constraint arrays
    (``ConstraintSet.arrays``), each p(k) in [0, upper[k]]; raises
    InfeasibleConstraintsError.  With ``tail`` (0/1 marks of the mean rows,
    equalities first) the law may put mass t beyond L, of first moment
    s >= (L + 1) t in the mean rows; where no feasible t is > 0, s = 0 too."""
    cap, n_eq, n_ge = feq.shape[1] - 1, feq.shape[0], fge.shape[0]
    marks = np.zeros(n_eq + n_ge) if tail is None else tail
    # variables p(0..L), t and s, maximising t; one two-sided constraint: the
    # <= rows (-F_ge, then (L + 1) t - s), then the equalities with lower =
    # upper (the mass, p and t, first)
    rows = np.zeros((n_ge + 2 + n_eq, cap + 3))
    rows[:n_ge, :cap + 1], rows[:n_ge, -1] = -fge, -marks[n_eq:]
    rows[n_ge, cap + 1:] = cap + 1.0, -1.0
    rows[n_ge + 1, :cap + 2] = 1.0
    rows[n_ge + 2:, :cap + 1], rows[n_ge + 2:, -1] = feq, marks[:n_eq]
    rhs = np.concatenate([-rge, [0.0, 1.0], req])
    constraints = LinearConstraint(rows, np.concatenate([np.full(n_ge + 1, -np.inf), [1.0], req]),
                                   rhs)
    top = np.concatenate([upper, [np.inf if tail is not None else 0.0] * 2])
    objective = np.zeros(cap + 3)
    objective[-2] = -1.0
    res = milp(objective, constraints=constraints, bounds=Bounds(0.0, top))
    if tail is not None and res.status == 0 and not res.x[-2] > 0:
        top[-1] = 0.0  # mass escaping to infinity (t = 0 < s) is no law
        res = milp(objective, constraints=constraints, bounds=Bounds(0.0, top))
    if res.status != 0:
        raise InfeasibleConstraintsError(
            f"no degree law on {'0, 1, ...' if tail is not None else f'0..{cap}'} satisfies "
            f"the constraints (phase-1 LP: {res.message})")


def minimize_relative_entropy(log_q: VectorLike, cons: ConstraintSet,
                              tail_mean: float = 0.0) -> Optimum:
    """Minimize H(p || q_ref) over the constraint polytope on 0..L, and on
    the degrees beyond L where the reference goes on as Poisson(``tail_mean``).

    ``log_q`` holds the logs log q(0..L) of the reference (a sequence or an
    array), L >= K: finite, or -inf where q is 0, which forces p to 0 there;
    ``cons`` is read on 0..L by ``ConstraintSet.arrays``.  The reference need
    not be normalized -- for a sub-probability reference the value includes
    the -log(mass) offset, which is how truncated reference laws report
    their honest rate.

    The objective is strictly convex on the simplex, so the minimizer is
    unique.  See the module docstring for the algorithm.
    """
    log_q = np.asarray(log_q, dtype=float)
    if log_q.ndim != 1:
        raise ValueError(f"reference has shape {log_q.shape}, expected the values "
                         f"log q(0..L)")
    if np.any(np.isnan(log_q) | (log_q == np.inf)) or np.all(log_q == -np.inf):
        raise ValueError("reference law must be finite and non-negative on 0..L, "
                         "and positive somewhere")
    cap = len(log_q) - 1
    feq, req, fge, rge = cons.arrays(cap)
    means = np.array([f == "mean" for f, _ in cons.equalities + cons.inequalities], dtype=float)
    check_feasible(feq, req, fge, rge, np.isfinite(log_q) * 1.0, means if tail_mean > 0 else None)
    n_eq = feq.shape[0]
    a = np.vstack([feq, fge])            # (J, L+1)
    targets = np.concatenate([req, rge])  # (J,)
    # the logits and the atoms' constraint values (one column an atom, the tail
    # last), filled in place at each trial point; only the tail column moves
    logits = np.empty(cap + 2)
    atoms = np.empty((len(targets), cap + 2))
    atoms[:, :-1] = a

    def dual_at(x: np.ndarray):
        """The dual at x: its value x . targets - log Z(x), its gradient (the
        constraint residuals) and the mask of free multipliers (every
        equality, and each inequality except one held at 0 by a residual that
        pushes it below 0); then q_ref tilted by the dual combination of
        constraint vectors, normalized on the simplex, as p on the atoms 0..L
        and the tail, the tail's mean (its column of ``atoms``: that mean in
        the mean rows, 0 elsewhere) and its own variance of k times its mass.
        ``logits`` and ``atoms`` are filled in place, with the arithmetic of
        building them afresh; every returned array is new, so a rejected
        trial leaves the accepted point's p and gradient as they were."""
        # the tail sum_{k>L} q(k) e^{theta k} is Poisson(c e^theta) beyond L; theta is
        # clipped at 300, where log Z > c e^299 refuses the trial and c^2 e^600 is finite
        poisson = tail_mean * math.exp(min(float(means @ x), 300.0))
        upper = [poisson_tail(poisson, cap - j) for j in range(3)]
        np.add(log_q, a.T @ x, out=logits[:-1])
        logits[-1], mean, variance = -math.inf, 0.0, 0.0
        if upper[0] > 0:  # a tail whose mass does not underflow
            mean = poisson * upper[1] / upper[0]
            variance = max(poisson ** 2 * upper[2] / upper[0] + mean - mean ** 2, 0.0)
            logits[-1] = poisson - tail_mean + math.log(upper[0])
        peak = logits.max()
        lse = peak + math.log(np.exp(logits - peak).sum())
        p = np.exp(logits - lse)
        atoms[:, -1] = mean * means
        g = targets - atoms @ p
        free = (x > 0) | (g > 0)
        free[:n_eq] = True
        return float(x @ targets) - lse, g, free, p, mean, p[-1] * variance

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
        (x, dual_at(x)); None when no trial point is accepted."""
        nonlocal iterations
        for scale in 0.5 ** np.arange(min(40, MAX_ITERATIONS - iterations)):
            trial = x + scale * direction
            trial[n_eq:] = np.maximum(trial[n_eq:], 0.0)
            at = dual_at(trial)
            iterations += 1
            if (np.linalg.norm(at[1][at[2]]) < size if size <= KKT_TOL
                    else at[0] >= dual + 1e-4 * float(g @ (trial - x))):
                return trial, at
        return None

    inner_tol = 0.5 * min(FEASIBILITY_TOL, KKT_TOL)
    x = np.zeros(len(targets))
    dual, g, free, p, tail, spread = dual_at(x)
    iterations = 0
    while iterations < MAX_ITERATIONS:
        size = float(np.linalg.norm(g[free]))
        if size <= inner_tol:
            break
        atoms[:, -1] = tail * means  # the accepted point's tail column
        a_free = atoms[free]
        mean = a_free @ p
        hess = ((a_free * p) @ a_free.T - np.outer(mean, mean)
                + spread * np.outer(means[free], means[free]))
        hess.flat[::len(hess) + 1] += 1e-13
        direction = np.zeros_like(x)
        try:
            direction[free] = np.linalg.solve(hess, g[free])
        except np.linalg.LinAlgError:
            direction[free] = np.linalg.lstsq(hess, g[free], rcond=None)[0]
        step = line_search(direction) or line_search(np.where(free, g, 0.0))
        if step is None:
            break  # no trial point makes progress
        x, (dual, g, free, p, tail, spread) = step

    # primal violation and complementary-slackness defect, read off the residuals
    primal_res = max(float(np.max(np.abs(g[:n_eq]), initial=0.0)),
                     float(np.max(g[n_eq:], initial=0.0)))
    comp_res = float(np.max(np.abs(x[n_eq:] * g[n_eq:]), initial=0.0))
    residual = max(primal_res, comp_res)
    value = float(dual)  # the dual at exit: a lower bound whose error is second order
    converged = primal_res <= FEASIBILITY_TOL and comp_res <= KKT_TOL * max(1.0, abs(value))
    minimizer = FiniteMeasure({k: float(w) for k, w in enumerate(p[:cap + 1]) if w > 0})
    return Optimum(minimizer, max(value, 0.0) if value > -1e-12 else value,
                   tuple(x[:n_eq]), tuple(x[n_eq:]), residual, iterations, converged,
                   float(p[-1]), tail_mean * math.exp(float(means @ x)))


def rate_infimum_for_event(c: float, cons: ConstraintSet) -> Optimum:
    """Predicted decay rate of a degree-law event at mean degree ``c``:

        inf H(p || Poisson(c))   over the event set on {0, 1, ...}, with
                                 mean(p) = c always appended (degree laws of
                                 fixed-edge-count graphs have mean exactly c).

    The reference is Poisson(c) as its logs on 0..K, finite at any c, and a
    Poisson(c) tail beyond K.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    with_mean = ConstraintSet(cons.support_cap, cons.equalities + (("mean", float(c)),),
                              cons.inequalities)
    return minimize_relative_entropy(poisson_log_pmf(c, np.arange(cons.support_cap + 1)),
                                     with_mean, tail_mean=float(c))
