"""Shared random generators for the test suite (seeded, reproducible), and
the slope fit of decay records."""

from fractions import Fraction
from typing import Sequence

import numpy as np

from graphld.graphs import TypedGraph
from graphld.measures import CountingMeasure, FiniteMeasure, ProbMeasure
from graphld.oracle import _class_keys
from graphld.sampler import ConditionSpec

LABELS = ("a", "b", "c", "d")


def random_typed_graph(rng: np.random.Generator, max_n: int = 50,
                       max_types: int = 4, edge_prob: float = 0.15) -> TypedGraph:
    n = int(rng.integers(1, max_n + 1))
    labels = LABELS[: int(rng.integers(1, max_types + 1))]
    types = [labels[i] for i in rng.integers(0, len(labels), size=n)]
    mask = rng.random((n, n)) < edge_prob
    edges = [(u + 1, v + 1) for u in range(n) for v in range(u + 1, n) if mask[u, v]]
    return TypedGraph(types, edges)


def random_counting_measure(rng: np.random.Generator,
                            labels: Sequence[str] = ("a", "b"),
                            max_count: int = 3) -> CountingMeasure:
    return CountingMeasure(
        {lab: int(k) for lab, k in zip(labels, rng.integers(0, max_count + 1, len(labels)))}
    )


def random_locality_measure(rng: np.random.Generator,
                            labels: Sequence[str] = ("a", "b"),
                            num_atoms: int = 5) -> ProbMeasure:
    """A float-weighted locality measure on a few random atoms."""
    atoms = set()
    while len(atoms) < num_atoms:
        a = labels[int(rng.integers(0, len(labels)))]
        atoms.add((a, random_counting_measure(rng, labels)))
    weights = rng.dirichlet(np.ones(len(atoms)))
    return ProbMeasure({atom: float(w) for atom, w in zip(sorted(atoms, key=str), weights)})


def random_degree_law(rng: np.random.Generator, cap: int = 8,
                      exact: bool = False) -> ProbMeasure:
    support = sorted(rng.choice(cap + 1, size=int(rng.integers(2, cap + 1)),
                                replace=False).tolist())
    if exact:
        counts = [int(c) for c in rng.integers(1, 10, len(support))]
        total = sum(counts)
        return ProbMeasure({int(k): Fraction(c, total) for k, c in zip(support, counts)})
    weights = rng.dirichlet(np.ones(len(support)))
    return ProbMeasure({int(k): float(w) for k, w in zip(support, weights)})


def random_condition_spec(rng: np.random.Generator, max_types: int = 3,
                          max_group: int = 4) -> ConditionSpec:
    """An admissible spec with exact rational weights, by construction."""
    num_types = int(rng.integers(1, max_types + 1))
    labels = LABELS[:num_types]
    sizes = {}
    while sum(sizes.values()) < 1:
        sizes = {lab: int(rng.integers(0, max_group + 1)) for lab in labels}
    n = sum(sizes.values())
    eta = ProbMeasure({lab: Fraction(k, n) for lab, k in sizes.items() if k})
    present = [lab for lab in labels if sizes[lab]]
    pi = {}
    for i, a in enumerate(present):
        for b in present[i:]:
            if a == b:
                capacity = sizes[a] * (sizes[a] - 1) // 2
                m = int(rng.integers(0, capacity + 1))
                if m:
                    pi[(a, a)] = Fraction(2 * m, n)
            else:
                capacity = sizes[a] * sizes[b]
                m = int(rng.integers(0, capacity + 1))
                if m:
                    pi[(a, b)] = Fraction(m, n)
                    pi[(b, a)] = Fraction(m, n)
    return ConditionSpec(n, eta, FiniteMeasure(pi))


def single_type_spec4() -> ConditionSpec:
    """Criterion 3's single-type spec: 4 nodes, 3 edges (20 graphs)."""
    return ConditionSpec(4, ProbMeasure({"a": Fraction(1)}),
                         FiniteMeasure({("a", "a"): Fraction(3, 2)}))


def three_type_spec5() -> ConditionSpec:
    """Criterion 3's three-type spec: groups a:2, b:2, c:1; blocks ab=2,
    ac=1, bc=1, aa=1 (24 graphs)."""
    f = Fraction
    eta = ProbMeasure({"a": f(2, 5), "b": f(2, 5), "c": f(1, 5)})
    pi = FiniteMeasure({
        ("a", "b"): f(2, 5), ("b", "a"): f(2, 5), ("a", "c"): f(1, 5), ("c", "a"): f(1, 5),
        ("b", "c"): f(1, 5), ("c", "b"): f(1, 5), ("a", "a"): f(2, 5)})
    return ConditionSpec(5, eta, pi)


def prefix_label_spec() -> ConditionSpec:
    """Types ``a`` (2 nodes) and ``ab`` (3): labels where joined ``label|text``
    strings sort the other way round (60 graphs)."""
    f = Fraction
    eta = ProbMeasure({"a": f(2, 5), "ab": f(3, 5)})
    pi = FiniteMeasure({("a", "ab"): f(3, 5), ("ab", "a"): f(3, 5),
                        ("ab", "ab"): f(2, 5), ("a", "a"): f(2, 5)})
    return ConditionSpec(5, eta, pi)


def class_keys(types: Sequence[str], u: np.ndarray, v: np.ndarray):
    """``oracle._class_keys`` of one batch, with the node types numbered the
    way ``sampled_class_counts`` numbers them."""
    labels, node_type = np.unique(np.asarray(types), return_inverse=True)
    return _class_keys(labels.tolist(), node_type, u, v)


def fit_decay_slope(records) -> float:
    """Least-squares slope of -log(P-hat) against n over the hit-bearing
    ``cli.ExperimentRecord`` rows: the Monte Carlo estimate of the decay
    rate."""
    pts = [(r.n, r.estimate * r.n) for r in records if r.estimate is not None]
    if len(pts) < 2:
        raise ValueError("need at least two records with hits to fit a slope")
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    return float(np.polyfit(xs, ys, 1)[0])
