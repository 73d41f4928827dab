"""Reference law, relative entropy, and the two rate functions."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import poisson

from graphld.measures import (
    CountingMeasure,
    FiniteMeasure,
    ProbMeasure,
    degree_marginal,
    dirac,
)
from graphld.rate import (
    ReferenceLaw,
    degree_rate,
    embed_degree_law,
    poisson_log_pmf,
    poisson_tail,
    relative_entropy,
    truncated_poisson,
    typed_rate,
)
from helpers import random_degree_law, random_locality_measure
from oracles import truncation_mass


def atom(a, counts):
    return (a, CountingMeasure(counts))


def single_type_reference(c):
    return ReferenceLaw(dirac("a"), FiniteMeasure({("a", "a"): c}))


def random_reference(rng):
    """A product-Poisson law on {a, b}: a random type law, and link masses
    of which each is 0, forbidding its links, with probability 1/4."""
    eta_a = float(rng.uniform(0.1, 0.9))
    ab, aa, bb = (float(x) * (rng.random() >= 0.25) for x in rng.uniform(0.1, 2.0, 3))
    return ReferenceLaw(ProbMeasure({"a": eta_a, "b": 1.0 - eta_a}),
                        FiniteMeasure({("a", "b"): ab, ("b", "a"): ab, ("a", "a"): aa,
                                       ("b", "b"): bb}))


# ---------------------------------------------------------------------------
# The product-Poisson reference law
# ---------------------------------------------------------------------------

def test_single_type_rows_are_poisson():
    """With one type and link mass c, the neighbor count is Poisson(c)."""
    q = single_type_reference(2.0)
    for k in range(12):
        expected = math.exp(-2.0) * 2.0 ** k / math.factorial(k)
        assert math.exp(q.log_pmf("a", CountingMeasure({"a": k} if k else {}))) == \
            pytest.approx(expected, rel=1e-12)


def test_empty_neighborhood_mass():
    # k=0 term of Poisson(2): e^-2
    q = single_type_reference(2.0)
    assert q.log_pmf("a", CountingMeasure()) == -2.0


def test_poisson_log_pmf_is_finite_where_the_pmf_underflows():
    """One formula, read on an array of degrees: it matches the scalar
    math.lgamma loop, and stays finite at Poisson(60)'s degree 600, where
    its exp is 0.0 in a double."""
    for c in (0.5, 2.0, 60.0):
        ks = np.arange(701)
        loop = np.array([k * math.log(c) - c - math.lgamma(k + 1) for k in ks])
        # each of the three terms carries a rounding error; their sum may cancel
        scale = ks * abs(math.log(c)) + c + np.array([math.lgamma(k + 1) for k in ks])
        assert np.all(np.abs(poisson_log_pmf(c, ks) - loop) <= 1e-14 * scale)
    assert math.exp(poisson_log_pmf(60.0, 600)) == 0.0
    assert math.isfinite(poisson_log_pmf(60.0, 600))


def test_poisson_tail_keeps_deep_tails():
    """P(X > k) keeps its relative accuracy far below machine epsilon, where
    1 - cdf would cancel to 0: it matches scipy's survival function and the
    directly summed upper tail."""
    for c, k in ((2.0, 30), (2.0, 50), (4.0, 45)):
        upper = math.fsum(math.exp(poisson_log_pmf(c, j)) for j in range(k + 1, k + 200))
        assert poisson_tail(c, k) == pytest.approx(poisson.sf(k, c), rel=1e-9)
        assert poisson_tail(c, k) == pytest.approx(upper, rel=1e-9)
    assert poisson_tail(2.0, -1) == 1.0
    with pytest.raises(ValueError, match="mean"):
        poisson_tail(-1.0, 3)


def test_two_type_pmf_hand_value():
    # eta uniform, pi(a,b) = pi(b,a) = 1/2, diagonal 0; rate r_ab = 1.
    # q(a, {b:1}) = (1/2) * e^0 * e^-1 * 1 = 0.18393972...
    eta = ProbMeasure({"a": 0.5, "b": 0.5})
    pi = FiniteMeasure({("a", "b"): 0.5, ("b", "a"): 0.5})
    value = math.exp(ReferenceLaw(eta, pi).log_pmf("a", CountingMeasure({"b": 1})))
    assert value == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


def test_forbidden_link_gives_zero_not_error():
    eta = ProbMeasure({"a": 0.5, "b": 0.5})
    pi = FiniteMeasure({("a", "a"): 0.5})  # no (a,b) links allowed
    q = ReferenceLaw(eta, pi)
    assert q.log_pmf("a", CountingMeasure({"b": 1})) == -math.inf


def test_log_pmf_is_the_formula_to_the_last_bit():
    """The logs of the rates are taken once, at construction, and give the
    floats of log eta(a) - sum_b r_ab + sum_b (e(b) log r_ab - log e(b)!)
    taken term by term; a forbidden link type (r_ab = 0) or a label outside
    the alphabet gives -inf."""
    rng = np.random.default_rng(104)
    for _ in range(30):
        q = random_reference(rng)
        for a in ("a", "b"):
            rates = {b: float(q.link_law((a, b))) / float(q.type_law(a)) for b in "ab"}
            for counts in ({}, {"a": 3}, {"b": 1}, {"a": 2, "b": 7}):
                expected = math.log(q.type_law(a)) - math.fsum(rates.values())
                for b, k in sorted(counts.items()):
                    if not rates[b]:
                        expected = -math.inf
                        break
                    expected += k * math.log(rates[b]) - math.lgamma(k + 1)
                assert q.log_pmf(a, CountingMeasure(counts)) == expected
    assert q.log_pmf("c", CountingMeasure()) == -math.inf


def test_reference_validates_inputs():
    eta = ProbMeasure({"a": 1.0})
    with pytest.raises(ValueError, match="outside the alphabet"):
        # pi touches a type with zero eta-mass
        ReferenceLaw(eta, FiniteMeasure({("a", "b"): 0.5, ("b", "a"): 0.5}))
    with pytest.raises(ValueError, match="symmetric"):
        ReferenceLaw(ProbMeasure({"a": 0.5, "b": 0.5}),
                     FiniteMeasure({("a", "b"): 0.5, ("b", "a"): 0.25}))


def test_truncation_mass_matches_enumeration():
    eta = ProbMeasure({"a": 0.5, "b": 0.5})
    pi = FiniteMeasure({("a", "b"): 0.5, ("b", "a"): 0.5, ("a", "a"): 1.0})
    q = ReferenceLaw(eta, pi)
    for cap in (3, 6, 10):
        brute = math.fsum(mass for _, mass in q.iter_atoms(cap))
        assert brute == pytest.approx(truncation_mass(q, cap), abs=1e-14)


def test_link_marginal_of_reference_reproduces_link_law():
    """Summing q(a, e) e(b) over the truncation ball reproduces pi(a, b) up
    to an explicit Poisson-tail correction:

        pi(a,b) - sum_{|e|<=K} q(a,e) e(b) = pi(a,b) * P(Poisson(row_a) >= K),

    so the error vanishes at the Poisson tail rate as K grows."""
    eta = ProbMeasure({"a": 0.5, "b": 0.5})
    pi = FiniteMeasure({("a", "b"): 0.5, ("b", "a"): 0.5, ("a", "a"): 1.0})
    q = ReferenceLaw(eta, pi)
    errors = []
    for cap in (6, 9, 12):
        partial = {}
        for (a, e), mass in q.iter_atoms(cap):
            for b, k in e:
                partial[(a, b)] = partial.get((a, b), 0.0) + mass * k
        for (a, b) in pi.keys():
            row_mean = math.fsum(float(pi((a, b))) for b in eta.keys()) / float(eta(a))
            predicted_error = float(pi((a, b))) * (
                poisson_tail(row_mean, cap - 1))  # P(X >= cap)
            actual_error = float(pi((a, b))) - partial.get((a, b), 0.0)
            assert actual_error == pytest.approx(predicted_error, abs=1e-12)
        errors.append(float(pi(("a", "b"))) - partial[("a", "b")])
    assert errors[0] > errors[1] > errors[2] > 0  # decays toward pi


# ---------------------------------------------------------------------------
# Relative entropy
# ---------------------------------------------------------------------------

def test_relative_entropy_identity():
    """Without links the reference is eta on empty neighbourhoods, so the
    entropy of that law against it is 0 exactly."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(3))
        eta = ProbMeasure({a: float(w) for a, w in zip("abc", weights)})
        p = ProbMeasure({atom(a, {}): w for a, w in eta.items()})
        assert relative_entropy(p, ReferenceLaw(eta, FiniteMeasure({}))) == 0.0


def test_relative_entropy_point_mass_vs_poisson():
    # H(delta_0 || Poisson(1)) = -log e^-1 = 1 exactly
    assert relative_entropy(dirac(atom("a", {})), single_type_reference(1.0)) == 1.0


def test_relative_entropy_absolute_continuity_failure():
    """+infinity on an atom the reference does not charge: a forbidden link
    type, or a type outside the alphabet."""
    q = ReferenceLaw(ProbMeasure({"a": 0.5, "b": 0.5}), FiniteMeasure({("a", "a"): 0.5}))
    assert relative_entropy(dirac(atom("a", {"b": 1})), q) == math.inf
    assert relative_entropy(dirac(atom("c", {})), q) == math.inf


def test_gibbs_inequality_random():
    rng = np.random.default_rng(22)
    finite = 0
    for _ in range(50):
        p = random_locality_measure(rng)
        value = relative_entropy(p, random_reference(rng))
        if math.isfinite(value):
            finite += 1
            assert value >= -1e-10
    assert finite >= 5


def test_pinsker_inequality_random():
    """H(p || q) >= 2 TV(p, q)^2, with the mass q puts off the support of p
    counted in the total variation."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = random_locality_measure(rng)
        q = random_reference(rng)
        value = relative_entropy(p, q)
        if math.isfinite(value):
            q_on_p = {key: math.exp(q.log_pmf(*key)) for key in p.keys()}
            tv = 0.5 * (math.fsum(abs(float(w) - q_on_p[key]) for key, w in p.items())
                        + 1.0 - math.fsum(q_on_p.values()))
            assert value >= 2 * tv ** 2 - 1e-10


# ---------------------------------------------------------------------------
# Typed rate function
# ---------------------------------------------------------------------------

def test_typed_rate_zero_at_truncated_reference():
    """Restricting the reference to a ball and renormalizing drives the rate
    to -log(ball mass), which vanishes as the ball grows."""
    eta = ProbMeasure({"a": 0.5, "b": 0.5})
    pi = FiniteMeasure({("a", "b"): 0.5, ("b", "a"): 0.5})
    q = ReferenceLaw(eta, pi)
    values = []
    for cap in (3, 6, 12):
        p = q.truncated(cap)
        result = typed_rate(eta, pi, p, tol=1e-6)
        assert result.feasible, (cap, result)
        # independent series oracle: H(trunc q || q) = -log(truncated mass)
        assert result.value == pytest.approx(-math.log(truncation_mass(q, cap)),
                                             abs=1e-12)
        values.append(result.value)
    assert values[0] > values[1] > values[2]
    assert values[-1] < 1e-4


def test_typed_rate_infeasible_on_subconsistency_violation():
    eta = dirac("a")
    p = ProbMeasure({atom("a", {"b": 2}): 1})
    # needs eta mass at b for the reference; keep p's link mass above pi's
    eta2 = ProbMeasure({"a": 0.5, "b": 0.5})
    pi = FiniteMeasure({("a", "b"): 1, ("b", "a"): 1})
    result = typed_rate(eta2, pi, p, tol=0)
    assert not result.feasible
    assert result.value == math.inf
    assert result.subconsistency_violation == pytest.approx(1.0)  # 2 - 1 at (a,b)
    assert result.tv_marginal == pytest.approx(0.5)  # type marginal delta_a vs uniform


def test_typed_rate_marginal_mismatch_is_infeasible():
    eta = ProbMeasure({"a": 0.5, "b": 0.5})
    pi = FiniteMeasure({("a", "b"): 0.5, ("b", "a"): 0.5})
    p = dirac(atom("a", {"b": 1}))  # type marginal delta_a != eta
    result = typed_rate(eta, pi, p, tol=0)
    assert not result.feasible and result.value == math.inf


# ---------------------------------------------------------------------------
# Degree rate function
# ---------------------------------------------------------------------------

def test_degree_rate_vanishes_on_truncated_poisson():
    for c in (0.5, 1.0, 2.0, 4.0):
        cap = 40
        assert poisson_tail(c, cap) < 1e-9
        result = degree_rate(c, truncated_poisson(c, cap), tol=1e-6)
        assert result.feasible
        assert result.value < 1e-6


def test_degree_rate_point_mass_hand_value():
    # mean matches; H(delta_2 || Poisson(2)) = -log(e^-2 2^2/2!) = 2 - log 2
    result = degree_rate(2.0, dirac(2))
    assert result.feasible
    assert result.value == pytest.approx(2 - math.log(2), rel=1e-12)


#: Mean 1, with mass 1/200 at degree 200, where Poisson(1) has mass e^-1 / 200!,
#: about 1e-375: below the smallest double, so q underflows to 0 there.
DEEP_ATOM = ProbMeasure({0: Fraction(199, 200), 200: Fraction(1, 200)})


@pytest.mark.parametrize("rate", [
    lambda: degree_rate(1, DEEP_ATOM),
    lambda: typed_rate(dirac("a"), FiniteMeasure({("a", "a"): 1}), embed_degree_law(DEEP_ATOM)),
], ids=["degree_rate", "typed_rate"])
def test_an_atom_whose_reference_mass_underflows_keeps_its_finite_rate(rate):
    """H = 0.995 log(0.995 e) + 0.005 log(0.005 e 200!); both rates read
    log q, not q, and used to return +infinity here."""
    closed_form = (0.995 * (math.log(0.995) + 1)
                   + 0.005 * (math.log(0.005) + 1 + math.lgamma(201)))
    result = rate()
    assert result.feasible
    assert result.value == pytest.approx(closed_form, rel=1e-12)
    assert result.value == pytest.approx(5.28468087, abs=1e-8)


def test_degree_rate_mean_mismatch():
    result = degree_rate(2.0, dirac(0))
    assert not result.feasible
    assert result.value == math.inf
    assert result.tv_marginal == pytest.approx(2.0)  # |mean - c|


def test_degree_rate_validates_c():
    with pytest.raises(ValueError):
        degree_rate(0.0, dirac(0))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_degree_marginal_inverts_the_embedding(exact):
    """``degree_marginal`` is the left inverse of ``embed_degree_law``: the
    same law back, weight for weight, in the same key order."""
    rng = np.random.default_rng(37)
    for _ in range(25):
        p = random_degree_law(rng, exact=exact)
        back = degree_marginal(embed_degree_law(p))
        assert back == p and back.items() == p.items()


def test_degree_rate_equals_typed_rate_on_embedding():
    """Single-type reduction: for a degree law with mean c, the typed rate at
    (delta_a, c at (a,a)) equals the degree rate at c."""
    rng = np.random.default_rng(31)
    for _ in range(25):
        p = random_degree_law(rng, exact=True)
        c = sum(k * w for k, w in p.items())
        if c == 0:
            continue
        embedded = embed_degree_law(p)
        typed = typed_rate(dirac("a"), FiniteMeasure({("a", "a"): c}), embedded)
        degree = degree_rate(c, p)
        assert typed.feasible and degree.feasible
        assert abs(typed.value - degree.value) <= 1e-12
        # and both are infinite when the link mass is too small for the law
        smaller = c / 2
        typed_small = typed_rate(dirac("a"), FiniteMeasure({("a", "a"): smaller}), embedded)
        degree_small = degree_rate(smaller, p)
        assert typed_small.value == math.inf and degree_small.value == math.inf


def test_default_tolerance_exact_vs_float():
    # exact inputs demand exact feasibility
    p = ProbMeasure({0: Fraction(1, 2), 2: Fraction(1, 2)})  # mean 1
    assert degree_rate(Fraction(1), p).feasible
    assert not degree_rate(Fraction(1, 1) + Fraction(1, 10**12), p).feasible
    # float inputs get the 1e-9 default
    p_float = ProbMeasure({0: 0.5, 2: 0.5})
    assert degree_rate(1.0 + 1e-12, p_float).feasible


def test_rate_result_json_serializes_infinity():
    result = degree_rate(2.0, dirac(0))
    obj = result.to_json_dict()
    assert obj["value"] == "inf"
    assert obj["feasible"] is False
    finite = degree_rate(2.0, dirac(2)).to_json_dict()
    assert isinstance(finite["value"], float)


@pytest.mark.parametrize("call, expected", [
    (lambda: truncated_poisson(1.0, -1), ValueError("support_cap must be >= 0")),
    (lambda: truncated_poisson(0.0, 3), ValueError("mean must be > 0")),
    (lambda: degree_rate(1.0, dirac("a")),
     ValueError("p must be a measure over non-negative integers")),
    (lambda: degree_rate(1.0, ProbMeasure({-1: 0.5, 3: 0.5})),
     ValueError("negative degree -1 in support")),
    (lambda: degree_rate(2.0, dirac(2), tol=-1), ValueError("tol must be >= 0")),
], ids=["truncated-negative-cap", "truncated-mean-0", "degree-rate-type-keys",
        "degree-rate-negative-degree", "degree-rate-negative-tol"])
def test_poisson_edge_cases_and_degree_rate_refusals(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected
