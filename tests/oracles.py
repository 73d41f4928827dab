"""Independent oracles used to cross-check the optimizer, the Monte Carlo
decay estimator and the class census.

These deliberately share no code path with ``src/``: the grid oracle
explores the primal polytope directly through an orthonormal basis of its
affine hull, the theta-scan oracle walks the one-parameter tilted family that
KKT stationarity forces on reduced problems (``pinned_zero_rate`` solves for
its theta by root search, in log space from ``math.lgamma``, so a Poisson
mass that underflows a double keeps its weight; ``pinned_zero_rate_on_naturals``
sums it on a support wide enough to stand for all of the degrees), the isolated-node oracle
counts graphs exactly in big-integer arithmetic, and ``truncation_mass``
gives the mass of a product-Poisson reference law's truncation ball from
Poisson distribution functions.  The class census has two
slow references: ``lexsort_row_ids`` numbers distinct rows with
``np.lexsort``, and ``class_measure`` rebuilds a class's exact locality
measure, whose ``encode_measure`` text is the class's name.  The enumeration
has two scalar references: ``unrank_pair`` decodes one pair rank by integer
search (for ``_Block.pairs``), and ``per_graph_event_probability`` tests an
event on every graph that ``enumerate_support`` yields (for the per-class
``exact_event_probability``).  ``entropy_neighborhood``, built on
``rate.relative_entropy``, is the relative-entropy sublevel test of local
event probabilities.  ``empirical_type_measure``, ``empirical_link_measure``
and ``degree_distribution`` walk a graph's nodes and edges directly: the
references for the type, link and degree marginals of its locality measure;
``per_node_locality_atoms`` gives every node a neighbour count, touched or
not: the reference for ``graphs.locality_atoms_of``, which counts only the
nodes an edge touches.
"""

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.special import logsumexp, pdtr

from graphld.graphs import ClassKey, Edge, TypedGraph, empirical_locality_measure
from graphld.measures import CountingMeasure, FiniteMeasure, ProbMeasure
from graphld.optimizer import ConstraintSet
from graphld.oracle import enumerate_support
from graphld.rate import ReferenceLaw, relative_entropy
from graphld.sampler import ConditionSpec


def entropy_objective(p: np.ndarray, log_q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - log_q[mask])))


@functools.lru_cache(maxsize=8)
def poisson_log_law(c: float, cap: int) -> np.ndarray:
    """log Poisson(c)(k) for k = 0..cap, read-only: cached, as a root search
    reads the same law at every step."""
    law = np.array([k * math.log(c) - c - math.lgamma(k + 1) for k in range(cap + 1)])
    law.setflags(write=False)
    return law


def _affine_parametrization(cons: ConstraintSet) -> Tuple[np.ndarray, np.ndarray]:
    """Particular solution and orthonormal nullspace basis of the equality
    system (simplex row included): p = p_part + basis @ y."""
    cap = cons.support_cap
    feq, req, _, _ = cons.arrays(cap)
    a = np.vstack([np.ones((1, cap + 1)), feq])
    b = np.concatenate([[1.0], req])
    p_part, *_ = np.linalg.lstsq(a, b, rcond=None)
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > 1e-10))
    basis = vt[rank:].T
    return p_part, basis


def _coordinate_bounds(p_part: np.ndarray, basis: np.ndarray,
                       cons: ConstraintSet) -> Tuple[np.ndarray, np.ndarray]:
    """Per-coordinate LP bounds of the feasible region in y-space."""
    dims = basis.shape[1]
    _, _, fge, rge = cons.arrays(cons.support_cap)
    a_ub = [-basis]
    b_ub = [p_part]
    if fge.shape[0]:
        a_ub.append(-(fge @ basis))
        b_ub.append(fge @ p_part - rge)
    a_ub = np.vstack(a_ub)
    b_ub = np.concatenate(b_ub)
    lo = np.empty(dims)
    hi = np.empty(dims)
    for i in range(dims):
        c = np.zeros(dims)
        c[i] = 1.0
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        if res.status != 0:
            raise ValueError(f"oracle bound LP failed: {res.message}")
        lo[i] = res.x[i]
        res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        hi[i] = res.x[i]
    return lo, hi


def grid_search_value(q_ref, cons: ConstraintSet, resolution: float = 1e-4,
                      points_per_dim: int = 15) -> float:
    """Brute-force minimum of H(p || q) over the constraint polytope by
    iteratively refined grids on the free coordinates (<= 3 of them).

    The objective is convex and the feasible set convex, so shrinking the
    grid window around the running best point converges to the global
    minimum; refinement stops once the cell size is below ``resolution``.
    """
    cap = cons.support_cap
    log_q = np.log(np.asarray(q_ref, dtype=float))
    p_part, basis = _affine_parametrization(cons)
    dims = basis.shape[1]
    if dims > 3:
        raise ValueError(f"grid oracle supports <= 3 free dimensions, got {dims}")
    _, _, fge, rge = cons.arrays(cap)

    if dims == 0:
        return entropy_objective(np.maximum(p_part, 0.0), log_q)

    lo, hi = _coordinate_bounds(p_part, basis, cons)
    best_value = math.inf
    best_y = 0.5 * (lo + hi)
    width = hi - lo
    while True:
        axes = [np.linspace(best_y[i] - width[i] / 2, best_y[i] + width[i] / 2,
                            points_per_dim) for i in range(dims)]
        axes = [np.clip(ax, lo[i], hi[i]) for i, ax in enumerate(axes)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dims)
        ps = p_part[None, :] + mesh @ basis.T
        ok = np.all(ps >= -1e-12, axis=1)
        if fge.shape[0]:
            ok &= np.all(ps @ fge.T >= rge - 1e-9, axis=1)
        for y, p in zip(mesh[ok], ps[ok]):
            value = entropy_objective(np.maximum(p, 0.0), log_q)
            if value < best_value:
                best_value = value
                best_y = y
        step = float(np.max(width)) / (points_per_dim - 1)
        if step <= resolution:
            return best_value
        width = width * (2.5 / (points_per_dim - 1))  # keep > 1 old cell


def pinned_zero_tilt(c: float, cap: int, p_zero: float,
                     theta: float) -> Tuple[np.ndarray, float]:
    """The degree law with p(0) pinned and the rest an exponential tilt of
    Poisson(c) on {1..cap}; returns (p, mean)."""
    log_w = poisson_log_law(c, cap)[1:] + theta * np.arange(1, cap + 1)
    p = np.concatenate([[p_zero], (1.0 - p_zero) * np.exp(log_w - logsumexp(log_w))])
    return p, float(np.arange(cap + 1) @ p)


def pinned_zero_rate(c: float, cap: int, r: float) -> float:
    """inf H(p || Poisson(c)) over {mean = c, p(0) >= r} on {0..cap} when the
    bound binds: the pinned-p(0) tilt whose mean is c, its theta found by a
    one-dimensional root search (the mean is strictly increasing in theta).
    """
    theta = brentq(lambda t: pinned_zero_tilt(c, cap, r, t)[1] - c, -10.0, 10.0,
                   xtol=1e-14)
    return entropy_objective(pinned_zero_tilt(c, cap, r, theta)[0], poisson_log_law(c, cap))


def pinned_zero_rate_on_naturals(c: float, r: float) -> float:
    """inf H(p || Poisson(c)) over {mean = c, p(0) >= r} on all of the degrees
    {0, 1, ...} when the bound binds: p(0) = r and the rest the tilt of
    Poisson(c) on {1, 2, ...} whose mean is c / (1 - r).  The sum stops at a
    cap at least twice the tilted Poisson mean c e^theta, where each later
    term is at most half the one before, and where the last term is below
    1e-16; so the omitted mass is below 1e-15."""
    cap = 2 * math.ceil(c / (1.0 - r)) + 64  # above the mean of the tilt
    while True:
        theta = brentq(lambda t: pinned_zero_tilt(c, cap, r, t)[1] - c, -10.0, 20.0,
                       xtol=1e-14)
        p, _ = pinned_zero_tilt(c, cap, r, theta)
        if cap >= 2 * c * math.exp(theta) and p[-1] <= 1e-16:
            return entropy_objective(p, poisson_log_law(c, cap))
        cap *= 2


def theta_scan_value(c: float, cap: int, p_zero: float, mean_target: float,
                     lo: float = -2.0, hi: float = 2.0,
                     resolution: float = 1e-4) -> float:
    """Dense scan of the pinned-p(0) tilted family: the entropy at the grid
    theta whose mean is closest to the target (the mean is strictly
    increasing in theta, so the crossing is unique)."""
    log_q = poisson_log_law(c, cap)
    thetas = np.arange(lo, hi + resolution, resolution)
    best = (math.inf, math.inf)
    for theta in thetas:
        p, mean = pinned_zero_tilt(c, cap, p_zero, float(theta))
        gap = abs(mean - mean_target)
        if gap < best[0]:
            best = (gap, entropy_objective(p, log_q))
    if not best[0] < 1e-2:
        raise ValueError("theta scan never approached the target mean")
    return best[1]


def isolated_tail_probability(n: int, m: int,
                              r: Union[Fraction, str]) -> Fraction:
    """Exact P{at least r*n isolated nodes} in the uniform graph G(n, m).

    ``r`` is exact (a Fraction or a decimal string such as "0.4"), so the
    threshold ceil(r * n) is the smallest count j with j/n >= r.  By
    inclusion-exclusion (Erdos & Renyi 1959),
    N0(k) = sum_i (-1)^i C(k, i) C(C(k - i, 2), m) counts the m-edge graphs on
    k labelled nodes with no isolated node, and P{I = j} = C(n, j) N0(n - j)
    / C(C(n, 2), m).
    """
    def no_isolated(k: int) -> int:
        return sum((-1) ** i * math.comb(k, i) * math.comb((k - i) * (k - i - 1) // 2, m)
                   for i in range(k + 1))

    threshold = math.ceil(Fraction(r) * n)
    hits = sum(math.comb(n, j) * no_isolated(n - j) for j in range(threshold, n + 1))
    return Fraction(hits, math.comb(n * (n - 1) // 2, m))


def truncation_mass(reference: ReferenceLaw, max_total: int) -> float:
    """Mass of the atoms {(a, e) : total(e) <= max_total} of a product-Poisson
    reference law: the total neighbour count of type a is Poisson with mean
    the row sum r_a = sum_b pi(a, b) / eta(a), so this is
    sum_a eta(a) P(Poisson(r_a) <= max_total)."""
    eta, pi = reference.type_law, reference.link_law
    return math.fsum(
        float(eta(a)) * pdtr(max_total, math.fsum(float(pi((a, b))) for b in eta.keys())
                             / float(eta(a)))
        for a in eta.keys())


def lexsort_row_ids(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ids of the distinct rows of a 2-D integer array in ``np.lexsort``
    order: ``(ids, first)`` with ``rows[first[ids[i]]]`` equal to ``rows[i]``."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


def class_measure(n: int, key) -> ProbMeasure:
    """The exact locality measure of a type class on ``n`` nodes, from its
    key: the sorted ``((label, neighbour counts), node count)`` pairs."""
    return ProbMeasure(
        {(a, CountingMeasure(e)): Fraction(count, n) for (a, e), count in key}
    )


def unrank_pair(k: int, size: int) -> Tuple[int, int]:
    """The k-th pair (r, s), 0 <= r < s < size, in lexicographic order."""
    total = size * (size - 1) // 2
    rem = total - k  # in 1..total
    w = (1 + math.isqrt(8 * rem)) // 2
    while (w - 1) * (w - 2) // 2 >= rem:
        w -= 1
    while w * (w - 1) // 2 < rem:
        w += 1
    r = size - w
    s = r + 1 + (k - (total - w * (w - 1) // 2))
    return r, s


def per_graph_event_probability(spec: ConditionSpec,
                                event: Callable[[ProbMeasure], bool]) -> Fraction:
    """The exact probability of ``event``, testing it on the locality measure
    of every graph of the support, one graph after another."""
    hits = 0
    total = 0
    for graph in enumerate_support(spec):
        total += 1
        if event(empirical_locality_measure(graph)):
            hits += 1
    return Fraction(hits, total)


def entropy_neighborhood(p: ProbMeasure, type_law: ProbMeasure, link_law,
                         eps: float) -> Callable[[ProbMeasure], bool]:
    """Membership test for the entropy neighborhood of ``p``:

        mu in B_p  iff  H(mu || q) > H(p || q) - eps/2,

    with q the product-Poisson reference for (type_law, link_law).  ``p``
    itself always belongs to its neighborhood.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    reference = ReferenceLaw(type_law, link_law)
    threshold = relative_entropy(p, reference) - eps / 2
    return lambda mu: relative_entropy(mu, reference) > threshold


def empirical_type_measure(z: TypedGraph) -> ProbMeasure:
    """out(a) = (1/n) * #{nodes of type a}, exact."""
    return ProbMeasure({a: Fraction(k, z.n) for a, k in Counter(z.types).items()})


def empirical_link_measure(z: TypedGraph) -> FiniteMeasure:
    """out(a, b) = (1/n) * #{ordered adjacent pairs typed (a, b)}, exact.

    Both orientations of every edge are counted, so the measure is symmetric
    and its total mass is 2|E|/n.
    """
    counts: Dict[Tuple[str, str], int] = {}
    for u, v in z.edges:
        a, b = z.types[u - 1], z.types[v - 1]
        counts[(a, b)] = counts.get((a, b), 0) + 1
        counts[(b, a)] = counts.get((b, a), 0) + 1
    return FiniteMeasure({k: Fraction(c, z.n) for k, c in counts.items()})


def degree_distribution(z: TypedGraph) -> ProbMeasure:
    """out(k) = (1/n) * #{nodes of degree k}, exact; mean is 2|E|/n."""
    deg = [0] * z.n
    for u, v in z.edges:
        deg[u - 1] += 1
        deg[v - 1] += 1
    return ProbMeasure({k: Fraction(c, z.n) for k, c in Counter(deg).items()})


def per_node_locality_atoms(types: Sequence[str], edges: Iterable[Edge]) -> ClassKey:
    """The type-class key of (types, edges) from a neighbour count of every
    node, touched by an edge or not: each distinct locality atom with the
    number of nodes that carry it, sorted."""
    neigh: List[Dict[str, int]] = [{} for _ in types]
    for u, v in edges:
        a, b = types[u - 1], types[v - 1]
        nu, nv = neigh[u - 1], neigh[v - 1]
        nu[b] = nu.get(b, 0) + 1
        nv[a] = nv.get(a, 0) + 1
    counts: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], int] = {}
    for t, counted in zip(types, neigh):
        atom = (t, tuple(sorted(counted.items())))
        counts[atom] = counts.get(atom, 0) + 1
    return tuple(sorted(counts.items()))
