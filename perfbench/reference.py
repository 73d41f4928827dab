"""Exact references and output checks for the benchmark workloads.

Every reference here is computed without the code path it checks: the decay
probabilities by big-integer inclusion-exclusion, the class censuses by a
plain enumeration of per-block edge subsets, the binary-cross numbers by
closed forms, and the optimizer values by a one-dimensional exponential tilt.
Only key formatting (``graphld.measures``) is shared with the program.

Checks test the law, not the bytes: a change of random stream or summation
order passes, a wrong distribution or a wrong number does not.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy.optimize import brentq

from graphld.measures import CountingMeasure, ProbMeasure, encode_measure

#: Monte Carlo checks accept deviations up to this many standard deviations.
SIGMA_LIMIT = 5.0
#: inf H(p || Poisson(2)) over {mean = 2, p(0) >= 0.4}; criterion 5's V*.
V_STAR = 0.371966085336
VALUE_TOL = 1e-6
KKT_LIMIT = 1e-6
GAP_TOL = 1e-12
TRUNCATED_RATE_LIMIT = 1e-4


# ---------------------------------------------------------------------------
# Decay study: isolated nodes in G(n, m)
# ---------------------------------------------------------------------------

def min_isolated(n: int, r: float) -> int:
    """Smallest isolated-node count j with j/n >= r, taking r as the decimal
    the config states (0.2, not its binary neighbour)."""
    return math.ceil(Fraction(repr(r)) * n)


def isolated_tail_probability(n: int, m: int, j_min: int) -> Fraction:
    """P{at least j_min isolated nodes} in the uniform graph with n nodes and
    m edges: sum_j C(n, j) N0(n - j, m) / C(C(n, 2), m), where N0(k, m)
    counts m-edge graphs on k labelled nodes with no isolated node."""
    def no_isolated(k: int) -> int:
        return sum((-1) ** i * math.comb(k, i) * math.comb((k - i) * (k - i - 1) // 2, m)
                   for i in range(k + 1))

    hits = sum(math.comb(n, j) * no_isolated(n - j) for j in range(j_min, n + 1))
    return Fraction(hits, math.comb(n * (n - 1) // 2, m))


def binomial_problems(what: str, hits: int, trials: int, p: float) -> List[str]:
    """Problems if ``hits`` lies more than SIGMA_LIMIT standard deviations
    from its Binomial(trials, p) mean."""
    mean = trials * p
    sd = math.sqrt(trials * p * (1.0 - p))
    if abs(hits - mean) > SIGMA_LIMIT * sd:
        z = float("inf") if sd == 0 else (hits - mean) / sd
        return [f"{what}: {hits} in {trials}, expected {mean:.1f} ({z:+.1f} sigma)"]
    return []


def check_decay_csv(text: str, n: int, samples: int, predicted: float) -> List[str]:
    """One `graphld decay` row at one size: shape, sample count, hit range,
    the estimate implied by the hits, and the predicted rate."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or rows[0] != ["n", "event", "estimate", "stderr", "predicted",
                                     "samples", "hits"]:
        return [f"decay n={n}: unexpected CSV layout {rows[:1]!r} with {len(rows)} lines"]
    row = rows[1]
    problems = []
    hits = int(row[6])
    if int(row[0]) != n or int(row[5]) != samples or not 0 <= hits <= samples:
        problems.append(f"decay n={n}: row {row!r} does not match the request")
    if abs(float(row[4]) - predicted) > VALUE_TOL:
        problems.append(f"decay n={n}: predicted {row[4]} != reference {predicted!r}")
    if hits:
        estimate = -math.log(hits / samples) / n
        if row[2] == "" or abs(float(row[2]) - estimate) > 1e-12 * max(1.0, estimate):
            problems.append(f"decay n={n}: estimate {row[2]!r} != {estimate!r}")
    elif row[2] != "" or row[3] != "":
        problems.append(f"decay n={n}: no hits but estimate {row[2]!r}")
    return problems


def decay_hits(text: str) -> int:
    return int(text.splitlines()[1].split(",")[-1])


# ---------------------------------------------------------------------------
# Class censuses
# ---------------------------------------------------------------------------

def brute_class_counts(spec) -> Dict[str, int]:
    """Exact census of a condition spec by direct enumeration: every choice
    of per-block edge subsets, grouped by its locality measure's encoding."""
    labels = sorted(spec.type_law.keys())
    types: List[str] = []
    for a in labels:
        types.extend([a] * int(round(float(spec.type_law(a)) * spec.n)))
    nodes = {a: [i for i, t in enumerate(types) if t == a] for a in labels}
    choices = []
    for i, a in enumerate(labels):
        for b in labels[i:]:
            if a == b:
                pairs = list(itertools.combinations(nodes[a], 2))
                count = spec.n * spec.link_law((a, a)) / 2
            else:
                pairs = list(itertools.product(nodes[a], nodes[b]))
                count = spec.n * spec.link_law((a, b))
            choices.append(itertools.combinations(pairs, int(round(float(count)))))
    census: Dict[str, int] = {}
    for pick in itertools.product(*choices):
        neigh = [dict() for _ in types]
        for block in pick:
            for u, v in block:
                neigh[u][types[v]] = neigh[u].get(types[v], 0) + 1
                neigh[v][types[u]] = neigh[v].get(types[u], 0) + 1
        atoms: Dict[Tuple[str, CountingMeasure], int] = {}
        for t, e in zip(types, neigh):
            atom = (t, CountingMeasure(e))
            atoms[atom] = atoms.get(atom, 0) + 1
        key = encode_measure(ProbMeasure({a: Fraction(k, spec.n) for a, k in atoms.items()}))
        census[key] = census.get(key, 0) + 1
    return census


def check_class_sample(counts: Mapping[str, int], draws: int,
                       census: Mapping[str, int]) -> List[str]:
    """One `sampled_class_counts` result: every draw counted, every class
    inside the support."""
    problems = []
    if sum(counts.values()) != draws:
        problems.append(f"class counts sum to {sum(counts.values())}, not {draws} draws")
    outside = sorted(set(counts) - set(census))
    if outside:
        problems.append(f"classes outside the support: {outside[:3]}")
    return problems


def class_law_problems(counts: Mapping[str, int], census: Mapping[str, int]) -> List[str]:
    """Pooled class frequencies against the exact census, class by class."""
    draws = sum(counts.values())
    support = sum(census.values())
    problems = []
    for key, size in census.items():
        problems += binomial_problems(f"class {key!r}", counts.get(key, 0), draws,
                                      size / support)
    return problems


# ---------------------------------------------------------------------------
# Binary-cross closed forms and exact-census outputs
# ---------------------------------------------------------------------------

def binary_cross_support(n: int) -> int:
    half = n // 2
    return math.comb(half * half, half)


def binary_cross_matchings(n: int) -> int:
    """Graphs in the perfect-cross-matching class: the bijections a -> b."""
    return math.factorial(n // 2)


def binary_cross_gap(n: int) -> float:
    half = n // 2
    return abs(-(math.log(math.factorial(half)) - math.log(math.comb(half * half, half)))
               / n - 1.0)


def check_lldp_csv(text: str, n: int) -> List[str]:
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "n,gap":
        return [f"lldp n={n}: unexpected CSV {lines[:1]!r} with {len(lines)} lines"]
    got_n, gap = lines[1].split(",")
    expected = binary_cross_gap(n)
    if int(got_n) != n or abs(float(gap) - expected) > GAP_TOL:
        return [f"lldp n={n}: gap {gap} != closed form {expected!r}"]
    return []


def check_enumerate_json(text: str, census: Mapping[str, int]) -> List[str]:
    report = json.loads(text)
    problems = []
    if report["support_size"] != sum(census.values()):
        problems.append(f"enumerate: support {report['support_size']} != "
                        f"{sum(census.values())}")
    if report["class_counts"] != dict(census):
        problems.append("enumerate: class counts differ from the direct census")
    return problems


def check_event_probability(prob: Fraction, n: int) -> List[str]:
    count = prob * binary_cross_support(n)
    if count != binary_cross_matchings(n):
        return [f"exact_event_probability n={n}: {prob} x support = {count}, "
                f"expected {binary_cross_matchings(n)}"]
    return []


# ---------------------------------------------------------------------------
# Optimizer and rate outputs
# ---------------------------------------------------------------------------

def _tilt(log_q: np.ndarray, ks: np.ndarray, theta: float) -> Tuple[float, float]:
    """(mean, log normalizer) of q * exp(theta k) on the points ``ks``."""
    z = log_q + theta * ks
    peak = float(np.max(z))
    w = np.exp(z - peak)
    total = float(np.sum(w))
    return float(np.dot(w, ks)) / total, peak + math.log(total)


def _tilt_to_mean(log_q: np.ndarray, ks: np.ndarray, target: float) -> Tuple[float, float]:
    theta = brentq(lambda t: _tilt(log_q, ks, t)[0] - target, -60.0, 60.0,
                   xtol=1e-14, rtol=1e-15, maxiter=500)
    return theta, _tilt(log_q, ks, theta)[1]


def point_event_rate(c: float, cap: int, point: int, r: float, relation: str) -> float:
    """inf H(p || Poisson(c)) over laws p on {0..cap} with mean c and
    p(point) >= r ("ge"), p(point) = r ("eq"), or no further constraint
    ("mean").  Poisson(c) is not renormalized on {0..cap}, as in the program.

    With p(point) fixed at r the rest of the mass is Poisson tilted to the
    remaining mean; an inequality binds only if the mean-c tilt violates it.
    """
    ks = np.arange(cap + 1, dtype=float)
    log_q = np.array([k * math.log(c) - c - math.lgamma(k + 1) for k in range(cap + 1)])
    if relation in ("mean", "ge"):
        theta, log_z = _tilt_to_mean(log_q, ks, c)
        if relation == "mean" or log_q[point] + theta * point - log_z >= math.log(r):
            return theta * c - log_z
    rest = ks != point
    theta, log_z = _tilt_to_mean(log_q[rest], ks[rest], (c - point * r) / (1.0 - r))
    return (r * (math.log(r) - log_q[point]) + (1.0 - r) * (math.log(1.0 - r) - log_z)
            + theta * (c - point * r))


def check_optimum_json(text: str, expected: float, pinned: Optional[float] = None) -> List[str]:
    """An `graphld optimize` result: certified, and equal to the independent
    value (and to a pinned published value, when one is given)."""
    out = json.loads(text)
    problems = []
    if not out["kkt_residual"] <= KKT_LIMIT:
        problems.append(f"optimize: kkt_residual {out['kkt_residual']} > {KKT_LIMIT}")
    for ref in (expected, pinned):
        if ref is not None and not abs(out["value"] - ref) <= VALUE_TOL:
            problems.append(f"optimize: value {out['value']!r} != reference {ref!r}")
    return problems


def check_rate_json(text: str) -> List[str]:
    """A `graphld rate` result on a truncated reference law: feasible and
    (nearly) zero."""
    out = json.loads(text)
    value = out["value"]
    if out["feasible"] is not True or value == "inf" or not 0.0 <= value < TRUNCATED_RATE_LIMIT:
        return [f"rate: {out} is not a near-zero feasible rate"]
    return []

