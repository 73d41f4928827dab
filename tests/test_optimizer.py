"""Entropy projection: constraint handling, oracle agreement, KKT certificates."""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from graphld import optimizer
from graphld.optimizer import (
    ConstraintSet,
    InfeasibleConstraintsError,
    check_feasible,
    minimize_relative_entropy,
    rate_infimum_for_event,
)
from graphld.rate import poisson_log_pmf, truncated_poisson
from oracles import (grid_search_value, pinned_zero_rate, pinned_zero_rate_on_naturals,
                     theta_scan_value)

#: inf H(p || Poisson(2)) over {mean = 2, p(0) >= 0.4}; the constraint binds
#: because Poisson(2)(0) = e^-2 ~ 0.135.  Derived twice before the build:
#: analytic KKT reduction and an SLSQP solve agree to 8 decimals.
V_STAR_P0_04 = 0.371966085336

#: inf H(p || Poisson(1)) over {mean = 1, p(0) = 0.5} on {0..30}, same two
#: independent routes.
VALUE_K30 = 0.089619695276


def poisson_vector(c, cap):
    return np.array([math.exp(poisson_log_pmf(c, k)) for k in range(cap + 1)])


def law_vector(measure, cap):
    return np.array([float(measure(k)) for k in range(cap + 1)])


# ---------------------------------------------------------------------------
# Constraint sets
# ---------------------------------------------------------------------------

def test_constraint_set_validation():
    with pytest.raises(ValueError):
        ConstraintSet(0)
    with pytest.raises(ValueError):
        ConstraintSet(3, equalities=[((1.0, 2.0), 1.0)])  # wrong length


def test_constraint_json_reads_each_functional_kind():
    obj = {"K": 4, "eq": [{"f": "mean", "r": 2.0}],
           "ge": [{"f": "pmf@0", "r": 0.4}, {"f": {"1": 1.0, "3": -2.0}, "r": 0.1}]}
    cons = ConstraintSet.from_json_dict(obj)
    assert cons.equalities == (("mean", 2.0),)
    assert cons.inequalities == (("pmf@0", 0.4), ((0.0, 1.0, 0.0, -2.0, 0.0), 0.1))


def test_describe_is_stable_and_comma_free():
    cons = ConstraintSet(30, equalities=[("mean", 2.0)],
                         inequalities=[("pmf@0", 0.4)])
    assert cons.describe() == "K30;eq[mean=2.0];ge[pmf@0>=0.4]"
    assert "," not in cons.describe()


def test_arrays_preserve_the_mean_functional():
    cons = ConstraintSet(3, equalities=[("mean", 2.0)],
                         inequalities=[("pmf@0", 0.4)])
    feq, req, fge, rge = cons.arrays(6)
    assert feq.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]] and req.tolist() == [2.0]
    assert fge.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]] and rge.tolist() == [0.4]


def test_json_read_keeps_every_functional_name():
    """At K = 1 the mean, pmf@1 and the explicit {"1": 1.0} are all the
    vector (0, 1); each keeps the name it was written with, also on a larger
    support, where only the mean grows."""
    obj = {"K": 1, "eq": [{"f": "pmf@1", "r": 0.2}],
           "ge": [{"f": "mean", "r": 1.0}, {"f": {"1": 1.0}, "r": 0.1}]}
    cons = ConstraintSet.from_json_dict(obj)
    assert cons.describe() == "K1;eq[pmf@1=0.2];ge[mean>=1.0&f{1:1.0}>=0.1]"
    [(pmf, _)], [(mean, _), (explicit, _)] = cons.equalities, cons.inequalities
    assert (pmf, mean, explicit) == ("pmf@1", "mean", (0.0, 1.0))
    assert pmf != mean and mean != explicit and explicit != pmf
    feq, _, fge, _ = cons.arrays(3)
    assert feq.tolist() + fge.tolist() == \
        [[0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 0.0]]


def test_three_functionals_alike_on_0_to_k_are_three_set_members():
    """Equality of functionals is transitive: a set of the mean, (0.0, 1.0)
    and pmf@1 at K = 1 has three members in every insertion order (it had 1
    or 2 while a named functional compared equal to its coefficients)."""
    functionals = ["mean", (0.0, 1.0), "pmf@1"]
    assert [len(set(order)) for order in itertools.permutations(functionals)] == [3] * 6


def test_names_written_in_python_equal_those_read_from_json():
    """``pmf@01`` is read as its canonical name ``pmf@1``."""
    written = ConstraintSet(3, equalities=[("mean", 2.0)],
                            inequalities=[("pmf@1", 0.25), ((0.0, 0.5, 0.0, 1.0), 0.1)])
    read = ConstraintSet.from_json_dict(
        {"K": 3, "eq": [{"f": "mean", "r": 2.0}],
         "ge": [{"f": "pmf@01", "r": 0.25}, {"f": {"1": 0.5, "3": 1.0}, "r": 0.1}]})
    assert written == read
    assert written.describe() == read.describe() == \
        "K3;eq[mean=2.0];ge[pmf@1>=0.25&f{1:0.5&3:1.0}>=0.1]"
    assert ConstraintSet(3, inequalities=[("pmf@01", 0.25)]) == \
        ConstraintSet(3, inequalities=[("pmf@1", 0.25)])


def counts_with_isolated(n, isolated):
    """Degree counts of n-node graphs, one row per entry of ``isolated``:
    that many nodes of degree 0, the rest of degree 1."""
    isolated = np.array(isolated, dtype=np.int64)
    counts = np.zeros((len(isolated), n), dtype=np.int64)
    counts[:, 0], counts[:, 1] = isolated, n - isolated
    return counts


def test_holds_on_counts_reads_thresholds_as_decimals():
    """The float 0.4 lies just above 2/5, so taking it exactly would ask for
    21 isolated nodes of 50; read as the decimal 0.4 it asks for 20."""
    assert math.ceil(Fraction(0.4) * 50) == 21
    at_least = ConstraintSet(1, inequalities=[("pmf@0", 0.4)])
    counts = counts_with_isolated(50, [19, 20, 21])
    assert at_least.holds_on_counts(counts, 50, 25).tolist() == [False, True, True]
    # with decimal weights too: 0.1 p(0) + 0.3 p(1) >= 0.22 is c0 + 3 c1 >= 110
    weighted = ConstraintSet.from_json_dict(
        {"K": 1, "ge": [{"f": {"0": 0.1, "1": 0.3}, "r": 0.22}]})
    assert weighted.holds_on_counts(counts, 50, 25).tolist() == [True, True, False]


def test_holds_on_counts_equalities_hold_only_on_lattice_points():
    third = ConstraintSet(1, equalities=[("pmf@1", 0.3333333333333333)])
    assert not third.holds_on_counts(counts_with_isolated(3, [0, 1, 2, 3]), 3, 1).any()
    half = ConstraintSet(1, equalities=[("pmf@1", 0.5)])
    assert half.holds_on_counts(counts_with_isolated(4, [0, 1, 2, 3]), 4, 1).tolist() == \
        [False, False, True, False]


def test_holds_on_counts_reads_the_mean_as_2m_and_only_columns_up_to_k():
    counts = np.array([[2, 0, 0, 0, 2], [0, 0, 4, 0, 0]], dtype=np.int64)  # n = 4, m = 4
    mean = ConstraintSet(1, equalities=[("mean", 2.0)])
    assert mean.holds_on_counts(counts, 4, 4).tolist() == [True, True]
    assert not ConstraintSet(1, inequalities=[("mean", 2.25)]).holds_on_counts(
        counts, 4, 4).any()
    # p(4) is beyond K = 3, so the explicit f(k) = k reads only degrees 0..3
    below = ConstraintSet.from_json_dict(
        {"K": 3, "eq": [{"f": {"1": 1.0, "2": 2.0, "3": 3.0}, "r": 0.0}]})
    assert below.holds_on_counts(counts, 4, 4).tolist() == [True, False]


def test_holds_on_counts_refuses_a_sum_that_could_overflow_int64():
    cons = ConstraintSet.from_json_dict({"K": 1, "ge": [{"f": {"0": 1e18}, "r": 0.5}]})
    assert cons.holds_on_counts(counts_with_isolated(9, [0, 1]), 9, 4).tolist() == \
        [False, True]
    with pytest.raises(ValueError, match="beyond int64"):
        cons.holds_on_counts(counts_with_isolated(10, [0, 1]), 10, 5)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_mean_only_projection_recovers_the_reference():
    cap = 60
    cons = ConstraintSet(cap, equalities=[("mean", 2.0)])
    opt = minimize_relative_entropy(np.log(poisson_vector(2.0, cap)), cons)
    assert opt.value <= 1e-8
    trunc = truncated_poisson(2.0, cap)
    assert all(abs(opt.minimizer(k) - trunc(k)) <= 1e-6 for k in range(cap + 1))


def test_pinned_zero_projection_matches_independent_oracles():
    cap = 30
    cons = ConstraintSet(cap, equalities=[("mean", 1.0),
                                          ("pmf@0", 0.5)])
    opt = minimize_relative_entropy(np.log(poisson_vector(1.0, cap)), cons)
    assert opt.value == pytest.approx(VALUE_K30, abs=1e-8)
    assert opt.minimizer(0) == pytest.approx(0.5, abs=1e-8)
    scan = theta_scan_value(1.0, cap, 0.5, 1.0, lo=0.0, hi=1.0)
    assert abs(opt.value - scan) <= 5e-4  # scan resolution dominates


def test_binding_inequality_is_active_at_optimum():
    cons = ConstraintSet(1, inequalities=[("pmf@0", 0.4)])
    opt = rate_infimum_for_event(2.0, cons)
    assert opt.value == pytest.approx(V_STAR_P0_04, abs=1e-8)
    assert opt.minimizer(0) == pytest.approx(0.4, abs=1e-8)  # active
    assert opt.dual_ge[0] > 0  # positive multiplier certifies activeness
    assert opt.value > 0


def test_inactive_inequality_leaves_value_zero():
    cons = ConstraintSet(1, inequalities=[("pmf@0", math.exp(-2.0))])
    opt = rate_infimum_for_event(2.0, cons)
    assert opt.value <= 1e-8


def test_empty_constraints_value_zero():
    """With no event the projection is Poisson(2) itself: mass 3 e^-2 on
    0..1, and the rest a Poisson(2) tail."""
    opt = rate_infimum_for_event(2.0, ConstraintSet(1))
    assert opt.value <= 1e-8
    assert opt.minimizer.total_mass() == pytest.approx(3 * math.exp(-2.0), abs=1e-12)
    assert opt.tail_mass == pytest.approx(1 - 3 * math.exp(-2.0), abs=1e-12)
    assert opt.tail_mean == pytest.approx(2.0, abs=1e-12)


def test_infeasible_constraints_raise_with_certificate():
    cons = ConstraintSet(5, inequalities=[("pmf@0", 0.6),
                                          ("pmf@1", 0.6)])
    with pytest.raises(InfeasibleConstraintsError, match="phase-1"):
        minimize_relative_entropy(np.log(poisson_vector(1.0, 5)), cons)
    with pytest.raises(ValueError, match="positive somewhere"):
        minimize_relative_entropy(np.full(6, -np.inf), ConstraintSet(5))


def test_value_zero_iff_reference_feasible():
    rng = np.random.default_rng(55)
    for _ in range(20):
        cap = int(rng.integers(3, 9))
        q = rng.uniform(0.05, 1.0, cap + 1)
        q_norm = q / q.sum()
        f = tuple(rng.uniform(-1, 1, cap + 1))
        slack = float(rng.uniform(0.05, 0.2))
        satisfied = ConstraintSet(cap, inequalities=[(f, float(np.dot(f, q_norm)) - slack)])
        violated = ConstraintSet(cap, inequalities=[(f, float(np.dot(f, q_norm)) + slack)])
        assert minimize_relative_entropy(np.log(q_norm), satisfied).value <= 1e-8
        assert minimize_relative_entropy(np.log(q_norm), violated).value > 1e-8


def test_tightening_a_threshold_never_decreases_value():
    rng = np.random.default_rng(56)
    for _ in range(15):
        cap = int(rng.integers(3, 8))
        q = rng.uniform(0.05, 1.0, cap + 1)
        q /= q.sum()
        f = tuple(rng.uniform(0, 1, cap + 1))
        base = float(np.dot(f, q))
        loose = float(rng.uniform(0.0, 0.1))
        values = []
        for extra in (0.0, 0.05, 0.1):
            cons = ConstraintSet(cap, inequalities=[(f, base + loose + extra)])
            try:
                values.append(minimize_relative_entropy(np.log(q), cons).value)
            except InfeasibleConstraintsError:
                values.append(math.inf)
        assert values[0] <= values[1] + 1e-9 and values[1] <= values[2] + 1e-9


@pytest.mark.parametrize("seed", range(57, 137))
def test_kkt_certificate_on_random_problems(seed):
    """Constraints hold to 1e-8 at the reported optimum, the KKT residual is
    within 1e-6, and the gradient of the objective is the reported
    combination of constraint vectors plus the simplex normal."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        cap = int(rng.integers(3, 9))
        q = rng.uniform(0.05, 1.0, cap + 1)
        q /= q.sum()
        anchor = rng.dirichlet(np.ones(cap + 1))
        eqs = []
        ges = []
        if rng.random() < 0.7:
            f = tuple(rng.uniform(-1, 1, cap + 1))
            eqs.append((f, float(np.dot(f, anchor))))
        for _ in range(int(rng.integers(0, 3))):
            f = tuple(rng.uniform(-1, 1, cap + 1))
            ges.append((f, float(np.dot(f, anchor)) - abs(float(rng.normal(0, 0.1)))))
        cons = ConstraintSet(cap, eqs, ges)
        opt = minimize_relative_entropy(np.log(q), cons)
        p = law_vector(opt.minimizer, cap)
        feq, req, fge, rge = cons.arrays(cap)
        assert np.all(np.abs(feq @ p - req) <= 1e-8)
        assert np.all(fge @ p - rge >= -1e-8)
        assert opt.kkt_residual <= 1e-6
        assert opt.converged
        assert opt.iterations <= 100  # Newton's local convergence, not a crawl
        # stationarity: log(p/q) + 1 = sum(lambda_i f_i) + sum(mu_j g_j) + nu
        grad = np.log(np.maximum(p, 1e-300) / q) + 1.0
        combo = np.zeros(cap + 1)
        if feq.shape[0]:
            combo += feq.T @ np.array(opt.dual_eq)
        if fge.shape[0]:
            combo += fge.T @ np.array(opt.dual_ge)
        residual = grad - combo
        nu = residual.mean()  # the simplex multiplier
        assert np.max(np.abs(residual - nu)) <= 1e-6


def test_grid_oracle_agreement_small_problems():
    rng = np.random.default_rng(58)
    for _ in range(5):
        cap = 3
        q = rng.uniform(0.05, 1.0, cap + 1)
        q /= q.sum()
        anchor = rng.dirichlet(np.ones(cap + 1))
        f = tuple(rng.uniform(-1, 1, cap + 1))
        cons = ConstraintSet(cap, equalities=[(f, float(np.dot(f, anchor)))])
        opt = minimize_relative_entropy(np.log(q), cons)
        assert abs(opt.value - grid_search_value(q, cons)) <= 1e-4


def test_rate_infimum_support_cap_default():
    """There is no default cap: the law is solved on 0..K and a Poisson tail
    beyond K, and on criterion 5's event that agrees with solves on the
    former default cap 50 and on 0..80."""
    cons = ConstraintSet(1, inequalities=[("pmf@0", 0.4)])
    opt = rate_infimum_for_event(2.0, cons)
    assert set(opt.minimizer.keys()) == {0, 1}
    assert opt.minimizer.total_mass() + opt.tail_mass == pytest.approx(1.0, abs=1e-12)
    with_mean = ConstraintSet(1, equalities=[("mean", 2.0)],
                              inequalities=cons.inequalities)
    for cap in (50, 80):
        capped = minimize_relative_entropy(poisson_log_pmf(2.0, np.arange(cap + 1)), with_mean)
        assert abs(capped.value - opt.value) <= 1e-12


@pytest.mark.parametrize("r", [0.4, 0.6, 0.8, 0.9, 0.95, 0.959])
def test_pinned_zero_sweep_matches_the_root_search_oracle(r):
    """{p(0) >= r} at mean 2 binds for every r here, so the projection is the
    pinned-p(0) tilt of Poisson(2) whose mean is 2, on all of the degrees."""
    opt = rate_infimum_for_event(2.0, ConstraintSet(1, inequalities=[("pmf@0", r)]))
    assert opt.converged
    assert opt.value == pytest.approx(pinned_zero_rate_on_naturals(2.0, r), abs=1e-7)


@pytest.mark.parametrize("r", [0.9, 0.959, 0.9999, 0.99999])
def test_the_reported_value_is_the_dual_value(r):
    """The value is the dual at exit, whose error is second order in the
    primal defect (up to 1e-8): it meets the oracle on all of the degrees to
    1e-10 relative.  The primal value at that iterate sat about 7e-10
    relative above it.  At r = 0.99999 the floor's multiplier is about 2e5,
    so its complementarity product stays above KKT_TOL while the value is
    23: the solve converges because that defect is judged relative to the
    value, |mu g| <= KKT_TOL max(1, |value|)."""
    opt = rate_infimum_for_event(2.0, ConstraintSet(1, inequalities=[("pmf@0", r)]))
    assert opt.converged
    assert opt.value == pytest.approx(pinned_zero_rate_on_naturals(2.0, r), rel=1e-10)


@pytest.mark.parametrize("c", [53.0, 60.0])
def test_a_large_mean_solves_at_its_default_cap(c):
    """Poisson(c) underflows a double below k = 10 c, inside the former
    default cap ceil(10 c), from c = 53 on; a reference taken as q, not
    log q, was refused there as not strictly positive.  The solve on all of
    the degrees and the solve on 0..10c both converge to the oracle's value
    on 0..10c."""
    cap = math.ceil(10 * c)
    assert math.exp(poisson_log_pmf(c, cap)) == 0.0
    event = ConstraintSet(1, inequalities=[("pmf@0", 0.01)])
    opt = rate_infimum_for_event(c, event)
    capped = minimize_relative_entropy(
        poisson_log_pmf(c, np.arange(cap + 1)),
        ConstraintSet(1, equalities=[("mean", c)], inequalities=event.inequalities))
    for solve in (opt, capped):
        assert solve.converged
        assert solve.value == pytest.approx(pinned_zero_rate(c, cap, 0.01), abs=1e-9)


def test_a_one_point_event_reaches_its_closed_form_value():
    """{p(0) >= 0.96} at mean 2 on {0..50} holds for one law only, p(0) = 0.96
    and p(50) = 0.04; no finite tilt reaches it, the dual runs off to infinity."""
    event = ConstraintSet(1, equalities=[("mean", 2.0)],
                          inequalities=[("pmf@0", 0.96)])
    opt = minimize_relative_entropy(poisson_log_pmf(2.0, np.arange(51)), event)
    closed_form = 0.96 * math.log(0.96 * math.e ** 2) + 0.04 * (math.log(0.04) - poisson_log_pmf(2.0, 50))
    assert opt.converged
    assert opt.value == pytest.approx(closed_form, abs=1e-7)


def test_a_stalled_solve_reports_that_it_did_not_converge(monkeypatch):
    """One trial point does not solve criterion 5's event: the result says
    so instead of passing for the projection."""
    cap = 50
    cons = ConstraintSet(cap, equalities=[("mean", 2.0)],
                         inequalities=[("pmf@0", 0.4)])
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 1)
    opt = minimize_relative_entropy(np.log(poisson_vector(2.0, cap)), cons)
    assert not opt.converged
    assert opt.iterations == 1
    assert opt.kkt_residual > 1e-6
    assert opt.to_json_dict()["converged"] is False


def box_event(cap, center, delta):
    """|p(k) - center[k]| <= delta for each k < len(center), as 2 len(center)
    inequalities: p(k) >= center[k] - delta and -p(k) >= -(center[k] + delta)."""
    rows = []
    for k, mass in enumerate(center):
        below = tuple(-1.0 if j == k else 0.0 for j in range(cap + 1))
        rows += [(f"pmf@{k}", round(mass - delta, 12)),
                 (below, round(-(mass + delta), 12))]
    return ConstraintSet(cap, inequalities=rows)


def test_a_box_event_where_no_newton_point_is_accepted_still_converges():
    """At c = 1, K = 60 and delta = 0.005 around (1/2, 1/4, 1/4), a line
    search along the Newton direction once found no accepted point, and the
    solve stopped after 124 trial points with KKT residual 0.10.  Searching
    along the free gradient there reaches the projection: the KKT conditions
    hold, the value matches an SLSQP solve of the primal (0.56555431) and it
    lies between those of the looser and the tighter box."""
    center = (0.5, 0.25, 0.25)
    event = box_event(60, center, 0.005)
    opt = rate_infimum_for_event(1.0, event)
    assert opt.converged
    assert opt.value == pytest.approx(0.56555431, abs=1e-7)
    loose = rate_infimum_for_event(1.0, box_event(60, center, 0.006))
    tight = rate_infimum_for_event(1.0, box_event(60, center, 0.004))
    assert loose.converged and tight.converged
    assert loose.value < opt.value < tight.value
    # the KKT certificate on the solved problem: the event plus mean = 1
    p = law_vector(opt.minimizer, 60)
    _, _, fge, rge = event.arrays(60)
    assert abs(p @ np.arange(61) - 1.0) <= 1e-8 and np.all(fge @ p - rge >= -1e-8)
    mu = np.array(opt.dual_ge)
    assert np.all(mu >= 0) and np.all(np.abs(mu * (fge @ p - rge)) <= 1e-6)
    residual = np.log(p / poisson_vector(1.0, 60)) - np.arange(61) * opt.dual_eq[0] - fge.T @ mu
    assert np.max(np.abs(residual - residual.mean())) <= 1e-6


@pytest.mark.parametrize("call, message", [
    (lambda: ConstraintSet(2, inequalities=[("pmf@3", 0.1)]), "point 3 outside 0..2"),
    (lambda: ConstraintSet(3).arrays(2), "cannot shrink the support cap 3 to 2"),
    (lambda: minimize_relative_entropy([[0.0, 0.0]], ConstraintSet(1)),
     "reference has shape (1, 2), expected the values log q(0..L)"),
    (lambda: minimize_relative_entropy([0.0], ConstraintSet(1)),
     "cannot shrink the support cap 1 to 0"),
    (lambda: minimize_relative_entropy([-math.inf, -math.inf], ConstraintSet(1)),
     "reference law must be finite and non-negative on 0..L, and positive somewhere"),
    (lambda: rate_infimum_for_event(0.0, ConstraintSet(1)), "c must be > 0"),
    (lambda: ConstraintSet.from_json_dict({"ge": [{"f": "mean", "r": 1.0}]}),
     "missing field 'K'"),
    (lambda: ConstraintSet.from_json_dict({"K": 1, "ge": [{"f": {"2": 1.0}, "r": 0.1}]}),
     "coefficient index 2 outside 0..1"),
    (lambda: ConstraintSet.from_json_dict({"K": 1, "ge": [{"f": "median", "r": 1.0}]}),
     "unsupported constraint vector spec 'median'"),
    (lambda: ConstraintSet(1, inequalities=[("median", 1.0)]),
     "unsupported constraint vector spec 'median'"),
    (lambda: ConstraintSet(1, inequalities=[("pmf@x", 0.1)]),
     "invalid degree key 'x' (allowed: -?[0-9]+)"),
    (lambda: ConstraintSet(1, equalities=[("pmf@2", 0.1)]), "point 2 outside 0..1"),
    (lambda: ConstraintSet.from_json_dict({"K": 1, "ge": [{"f": [0.0, 1.0], "r": 0.1}]}),
     "unsupported constraint vector spec [0.0, 1.0]"),
], ids=["point-outside-cap", "shrink", "reference-matrix", "reference-length",
        "reference-zero", "c-not-positive", "json-without-K", "json-coefficient-outside-cap",
        "json-unknown-functional", "unknown-name", "point-name-not-an-integer",
        "point-name-outside-cap", "json-list-functional"])
def test_bad_inputs_raise_naming_the_problem(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_an_event_met_only_beyond_the_former_cap_solves_on_all_degrees():
    """{p(0) >= 0.98} at mean 2 has no law on 0..50 (2 % of the mass cannot
    carry mean 2 there), but it has one on all of the degrees: p(0) = 0.98 and
    the rest Poisson(2) tilted to mean 2 / 0.02 = 100."""
    opt = rate_infimum_for_event(2.0, ConstraintSet(1, inequalities=[("pmf@0", 0.98)]))
    assert opt.converged
    assert opt.value == pytest.approx(pinned_zero_rate_on_naturals(2.0, 0.98), abs=1e-9)
    assert opt.value == pytest.approx(7.726006897580, abs=1e-9)
    assert opt.tail_mass == pytest.approx(0.02, abs=1e-8)
    with pytest.raises(InfeasibleConstraintsError, match="no degree law on 0..50"):
        minimize_relative_entropy(
            poisson_log_pmf(2.0, np.arange(51)),
            ConstraintSet(1, equalities=[("mean", 2.0)],
                          inequalities=[("pmf@0", 0.98)]))


def test_a_tail_of_mean_five_thousand_solves():
    """{p(0) >= 0.999} at mean 5 leaves mass 0.001 to a tail of mean 5000.  A
    Newton trial point on the way once overflowed the tail's squared mean."""
    opt = rate_infimum_for_event(5.0, ConstraintSet(1, inequalities=[("pmf@0", 0.999)]))
    assert opt.converged
    assert opt.value == pytest.approx(pinned_zero_rate_on_naturals(5.0, 0.999), abs=1e-7)


def test_mass_escaping_to_infinity_is_not_a_law():
    """{p(0) >= 1} at mean 2 leaves no mass to carry the mean; only a tail of
    mass 0 and first moment 2 meets the constraints, so it is refused."""
    with pytest.raises(InfeasibleConstraintsError, match=re.escape("no degree law on 0, 1, ...")):
        rate_infimum_for_event(2.0, ConstraintSet(1, inequalities=[("pmf@0", 1.0)]))


def linprog_feasible(feq, req, fge, rge, upper, tail):
    """The phase-1 LP of ``check_feasible`` written for
    ``linprog(method="highs")``: True when a law meets the constraints."""
    cap, n_eq = feq.shape[1] - 1, feq.shape[0]
    marks = np.zeros(n_eq + fge.shape[0]) if tail is None else tail
    a_eq = np.c_[np.r_[np.ones((1, cap + 1)), feq], np.r_[1.0, 0 * req], np.r_[0.0, marks[:n_eq]]]
    a_ub = np.r_[np.c_[-fge, 0 * rge, -marks[n_eq:]], [np.r_[np.zeros(cap + 1), cap + 1.0, -1.0]]]
    moment = (0.0, None if tail is not None else 0.0)
    lp = dict(c=np.r_[np.zeros(cap + 1), -1.0, 0.0], A_ub=a_ub, b_ub=np.r_[-rge, 0.0], A_eq=a_eq,
              b_eq=np.r_[1.0, req], bounds=[(0.0, u) for u in upper] + [moment, moment])
    res = linprog(**lp, method="highs")
    if tail is not None and res.status == 0 and not res.x[-2] > 0:
        lp["bounds"][-1] = (0.0, 0.0)
        res = linprog(**lp, method="highs")
    return res.status == 0


def test_check_feasible_refuses_what_linprog_finds_infeasible():
    """On 240 random small constraint sets (point masses, means and explicit
    coefficients, equalities and floors, some degrees barred), with and
    without the Poisson tail, ``check_feasible`` raises exactly when the
    ``linprog`` form of its phase-1 LP has no solution."""
    rng = np.random.default_rng(28)
    seen = Counter()
    for trial in range(240):
        support_cap = int(rng.integers(1, 5))

        def constraint():
            kind = rng.integers(3)
            if kind == 0:
                f, r = f"pmf@{rng.integers(support_cap + 1)}", rng.uniform(0.0, 1.0)
            elif kind == 1:
                f, r = "mean", rng.uniform(0.0, 2.0 * support_cap)
            else:
                f, r = tuple(rng.uniform(-1.0, 1.0, support_cap + 1)), rng.uniform(-1.0, 1.0)
            return f, (float(rng.choice([0.0, 0.5, 1.0])) if rng.random() < 0.2 else r)

        cons = ConstraintSet(support_cap, [constraint() for _ in range(rng.integers(3))],
                             [constraint() for _ in range(rng.integers(4))])
        cap = support_cap + int(rng.integers(3))
        upper = (rng.random(cap + 1) < 0.85) * 1.0
        tail = None
        if trial % 2:
            tail = np.array([f == "mean" for f, _ in cons.equalities + cons.inequalities], float)
        arrays = cons.arrays(cap)
        try:
            check_feasible(*arrays, upper, tail)
            feasible = True
        except InfeasibleConstraintsError:
            feasible = False
        assert feasible == linprog_feasible(*arrays, upper, tail), (cons.describe(), upper, tail)
        seen[tail is not None, feasible] += 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def rate_sweep_events():
    """The optimize events of the benchmark's rate sweep: at each c, a slack
    and two binding p(0) floors, a p(1) equality and a redundant mean
    equality (each event on K = its point + 1), and criterion 5's event."""
    binding = {0.5: (0.7, 0.9), 1.0: (0.5, 0.7), 2.0: (0.3, 0.4), 4.0: (0.1, 0.3),
               8.0: (0.01, 0.05)}
    events = []
    for c, floors in binding.items():
        for r in (0.5 * math.exp(-c), *floors):
            events.append((c, ConstraintSet(1, inequalities=[("pmf@0", r)])))
        events.append((c, ConstraintSet(2, equalities=[("pmf@1", 0.2)])))
        events.append((c, ConstraintSet(1, equalities=[("mean", c)])))
    events.append((2.0, ConstraintSet(1, inequalities=[("pmf@0", 0.4)])))
    return events


def optimizer_test_events():
    """The (c, event) pairs this module solves with ``rate_infimum_for_event``."""
    at_least = [0.4, math.exp(-2.0), 0.6, 0.8, 0.9, 0.95, 0.959, 0.96, 0.98]
    events = [(2.0, ConstraintSet(1, inequalities=[("pmf@0", r)])) for r in at_least]
    events += [(2.0, ConstraintSet(1))]
    events += [(c, ConstraintSet(1, inequalities=[("pmf@0", 0.01)]))
               for c in (53.0, 60.0)]
    events += [(1.0, box_event(60, (0.5, 0.25, 0.25), delta)) for delta in (0.004, 0.005, 0.006)]
    return events


BRACKETED_EVENTS = rate_sweep_events() + optimizer_test_events()


@pytest.mark.parametrize("c, event", BRACKETED_EVENTS,
                         ids=[f"c={c}:{event.describe()}" for c, event in BRACKETED_EVENTS])
def test_the_solve_on_all_degrees_is_bracketed_by_a_wide_cap(c, event):
    """The infimum on all of the degrees is at most the one on 0..400, and
    where no law needs degrees above 400, equal to it; so is the mass the
    minimizer puts beyond K."""
    opt = rate_infimum_for_event(c, event)
    with_mean = ConstraintSet(event.support_cap, event.equalities + (("mean", c),),
                              event.inequalities)
    capped = minimize_relative_entropy(poisson_log_pmf(c, np.arange(401)), with_mean)
    assert opt.converged and capped.converged
    assert opt.value <= capped.value + 1e-12
    assert capped.value - opt.value <= 1e-9
    beyond = sum(w for k, w in capped.minimizer.items() if k > event.support_cap)
    assert opt.tail_mass == pytest.approx(beyond, abs=1e-7)
