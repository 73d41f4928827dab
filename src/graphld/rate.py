"""Relative entropy, the product-Poisson reference law, and rate functions.

Given a type law ``eta`` (positive on every type) and a symmetric link law
``pi``, the reference law on locality atoms is

    q(a, e) = eta(a) * prod_b exp(-r_ab) * r_ab^e(b) / e(b)!,
    r_ab = pi(a, b) / eta(a),

i.e. type ``a`` with probability ``eta(a)`` and then independent Poisson
neighbor counts, one per type ``b``.  Its support is countably infinite, so it
is a pointwise evaluator (:class:`ReferenceLaw`), never materialized, summed
only over a truncation ball ``{e : total(e) <= K}``, and read in logs
(``log_pmf``).  Its one-type case is Poisson(c): ``poisson_log_pmf`` is the
one Poisson formula, and its upper tail ``poisson_tail`` gives the mass and
moments of the optimizer's one atom for all degrees beyond an event's K.

The rate functions are relative-entropy functionals (natural log; all rates
are per-node exponents in base e):

* ``relative_entropy(p, q)``  = H(p || q) against a :class:`ReferenceLaw` q;
* ``typed_rate(eta, pi, p)``  = H(p || q) if (pi, p) is sub-consistent and the
  type marginal of p equals eta, else +infinity;
* ``degree_rate(c, p)``       = H(p || Poisson(c)) if mean(p) = c, else
  +infinity -- the single-type reduction of ``typed_rate``, evaluated as
  such: ``relative_entropy`` of ``embed_degree_law(p)`` against the
  single-type reference.

Sub-consistency and the pair (eta, pi) are checked by ``measures``, as the
sampler checks them.  Empirical measures from graphs match their constraints
exactly (rational arithmetic, default tol 0); float inputs carry float error
(default tol ``measures.INPUT_TOL`` = 1e-9).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from numbers import Rational
from typing import Dict, Iterator, Tuple, Union

from .measures import (
    INPUT_TOL,
    CountingMeasure,
    FiniteMeasure,
    ProbMeasure,
    Scalar,
    dirac,
    is_sub_consistent,
    law_pair_problem,
    total_variation,
    type_marginal,
)

_INF = float("inf")


# ---------------------------------------------------------------------------
# Poisson helpers
# ---------------------------------------------------------------------------

def _first_use(name: str):
    """Stands in for ``scipy.special.<name>`` until its first call, which
    imports scipy.special and binds its ``gammaln`` and ``pdtrc`` here."""
    def call(*args):
        from scipy.special import gammaln, pdtrc
        globals().update(gammaln=gammaln, pdtrc=pdtrc)
        return globals()[name](*args)
    return call


gammaln, pdtrc = _first_use("gammaln"), _first_use("pdtrc")


def poisson_log_pmf(mean: float, k):
    """log Poisson(mean)(k) = k log(mean) - mean - log k!  (mean > 0; k >= 0,
    an int or an integer array); finite where the pmf underflows."""
    return k * math.log(mean) - mean - gammaln(k + 1)


def poisson_tail(mean: float, k: int) -> float:
    """P(X > k) for X ~ Poisson(mean), from the regularized incomplete gamma
    function, so deep tails keep their relative accuracy (1 - cdf would
    cancel to 0 once the tail drops below machine epsilon)."""
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if k < 0:
        return 1.0
    return float(pdtrc(k, mean))


def truncated_poisson(mean: float, support_cap: int) -> ProbMeasure:
    """Poisson(mean) restricted to {0..support_cap} and renormalized (mean > 0)."""
    if support_cap < 0:
        raise ValueError("support_cap must be >= 0")
    if mean <= 0:
        raise ValueError("mean must be > 0")
    w = {k: math.exp(poisson_log_pmf(mean, k)) for k in range(support_cap + 1)}
    mass = math.fsum(w.values())
    return ProbMeasure({k: v / mass for k, v in w.items() if v > 0})


# ---------------------------------------------------------------------------
# The product-Poisson reference law
# ---------------------------------------------------------------------------

class ReferenceLaw:
    """Pointwise evaluator for the product-Poisson law q(a, e) above.

    The support of ``type_law`` (its weights are positive) is the alphabet,
    and ``link_law`` must be symmetric with keys inside the alphabet's pair
    space.  A pair rate pi(a, b) = 0 simply forbids
    (a, b)-links: q(a, e) = 0 whenever e(b) > 0 there.  The logs of eta and
    of the positive rates are taken once, at construction.
    """

    __slots__ = ("type_law", "link_law", "alphabet", "_log_eta", "_log_rates", "_row_sums")

    def __init__(self, type_law: ProbMeasure, link_law: FiniteMeasure):
        problem = law_pair_problem(type_law, link_law)
        if problem:
            raise ValueError(problem)
        self.type_law = type_law
        self.link_law = link_law
        self.alphabet = alphabet = type_law.keys()  # sorted, distinct and valid
        self._log_eta = {a: math.log(type_law(a)) for a in alphabet}
        rates = {a: {b: float(link_law((a, b))) / float(type_law(a)) for b in alphabet}
                 for a in alphabet}
        self._row_sums = {a: math.fsum(rates[a].values()) for a in alphabet}
        # log r_ab of each allowed link type; a forbidden one (r_ab = 0) has none
        self._log_rates = {a: {b: math.log(r) for b, r in rates[a].items() if r != 0.0}
                           for a in alphabet}

    # -- pointwise evaluation ---------------------------------------------------
    def log_pmf(self, a: str, e: CountingMeasure) -> float:
        log_rates = self._log_rates.get(a)
        if log_rates is None:
            return -_INF
        total = self._log_eta[a] - self._row_sums[a]
        for b, k in e:
            log_rate = log_rates.get(b)
            if log_rate is None:
                return -_INF  # forbidden link type carried by e
            total += k * log_rate - math.lgamma(k + 1)
        return total

    # -- truncation to a finite neighbor-count ball ------------------------------
    def iter_atoms(self, max_total: int) -> Iterator[Tuple[Tuple[str, CountingMeasure], float]]:
        """Yield every atom ``((a, e), q(a, e))`` with ``total(e) <= max_total``."""
        for a in self.alphabet:
            for vec in itertools.product(range(max_total + 1), repeat=len(self.alphabet)):
                if sum(vec) <= max_total:
                    e = CountingMeasure(tuple(zip(self.alphabet, vec)))
                    yield (a, e), math.exp(self.log_pmf(a, e))

    def truncated(self, max_total: int) -> ProbMeasure:
        """The law restricted to ``total(e) <= max_total`` and renormalized."""
        atoms = {key: mass for key, mass in self.iter_atoms(max_total) if mass > 0}
        total = math.fsum(atoms.values())
        return ProbMeasure({key: mass / total for key, mass in atoms.items()})


# ---------------------------------------------------------------------------
# Relative entropy and rate results
# ---------------------------------------------------------------------------

def relative_entropy(p: ProbMeasure, reference: ReferenceLaw) -> float:
    """H(p || q) = sum over the support of p of p(x) * log(p(x) / q(x)).

    The reference is read through its ``log_pmf``, so an atom whose q
    underflows a double keeps its finite term.  Returns +infinity on an
    absolute-continuity failure, i.e. q(x) = 0 < p(x).
    """
    terms = []
    for key, w in p.items():
        log_q = reference.log_pmf(*key)
        if log_q == -_INF:
            return _INF
        pw = float(w)
        terms.append(pw * (math.log(pw) - log_q))
    total = math.fsum(terms)
    return 0.0 if -1e-12 < total < 0.0 else total


@dataclass(frozen=True)
class RateResult:
    """A rate-function value with feasibility diagnostics.

    ``value`` is +infinity whenever ``feasible`` is False, and may also be
    +infinity for a feasible measure that is not absolutely continuous with
    respect to the reference.  ``tv_marginal`` is the marginal mismatch (total
    variation against the target type law, or |mean - c| for degree laws) and
    ``subconsistency_violation`` the largest positive link-marginal excess
    (0.0 when none, or when the check does not apply).
    """

    value: float
    feasible: bool
    tv_marginal: float
    subconsistency_violation: float

    def to_json_dict(self) -> Dict[str, Union[str, float, bool]]:
        return {**asdict(self), "value": self.value if math.isfinite(self.value) else "inf"}


def _default_tol(tol: Union[Scalar, None], *inputs) -> Scalar:
    """``tol``, or by default 0 when every input is exact and INPUT_TOL if not."""
    if tol is None:
        tol = 0 if all(x.is_exact() if isinstance(x, FiniteMeasure) else isinstance(x, Rational)
                       for x in inputs) else INPUT_TOL
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return tol


def typed_rate(type_law: ProbMeasure, link_law: FiniteMeasure, p: ProbMeasure,
               tol: Union[Scalar, None] = None) -> RateResult:
    """Rate of a locality measure ``p`` under the constraint pair
    ``(type_law, link_law)``:

        H(p || q)   if (link_law, p) is sub-consistent (within tol) and the
                    type marginal of p matches type_law (TV within tol),
        +infinity   otherwise.

    ``tol`` defaults to 0 when all inputs are exact rationals, 1e-9 otherwise.
    """
    reference = ReferenceLaw(type_law, link_law)  # validates type_law > 0
    tol = _default_tol(tol, type_law, link_law, p)
    sub = is_sub_consistent(link_law, p, tol)
    tv = total_variation(type_marginal(p), type_law)
    feasible = bool(sub) and tv <= tol
    value = relative_entropy(p, reference) if feasible else _INF
    violation = max(0.0, float(sub.max_residual)) if sub.max_residual is not None else 0.0
    return RateResult(value, feasible, float(tv), violation)


def degree_rate(c: Scalar, p: ProbMeasure, tol: Union[Scalar, None] = None) -> RateResult:
    """Rate of a degree law ``p`` at mean-degree parameter ``c``:

        H(p || Poisson(c))   if mean(p) = c (within tol),
        +infinity            otherwise.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    if p.kind() not in (None, "degree"):
        raise ValueError("p must be a measure over non-negative integers")
    for k in p.keys():
        if k < 0:
            raise ValueError(f"negative degree {k} in support")
    tol = _default_tol(tol, p, c)
    mean = sum(k * w for k, w in p.items())
    mismatch = abs(mean - c)
    feasible = mismatch <= tol
    reference = ReferenceLaw(dirac("a"), FiniteMeasure({("a", "a"): c}))  # Poisson(c) rows
    value = relative_entropy(embed_degree_law(p), reference) if feasible else _INF
    return RateResult(value, feasible, float(mismatch), 0.0)


def embed_degree_law(p: ProbMeasure) -> ProbMeasure:
    """Lift a degree law to the single-type locality space: k -> (a, {a: k}).

    Under this embedding, ``degree_rate(mean(p), p)`` and ``typed_rate`` with
    the point type law at ``a`` and link mass mean(p) at (a, a) agree.
    """
    return ProbMeasure({("a", CountingMeasure({"a": k} if k else {})): w for k, w in p.items()})
