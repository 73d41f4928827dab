"""Exact small-scale enumeration of the conditional graph model.

For an admissible :class:`~graphld.sampler.ConditionSpec`, the support of the
conditional model is a cartesian product of per-block pair subsets, so it can
be enumerated outright at desk scale (guarded at 1e8 graphs).  On top of the
enumeration sit:

* ``type_class_counts`` -- group the support by exact empirical locality
  measure (the type classes), each graph keyed by
  ``graphs.locality_atoms_of``; ``sampled_class_counts`` groups Monte Carlo
  draws the same way, in batches keyed by ``_class_keys``; both name a class
  by ``measures.encode_atom_counts`` of its key;
* ``exact_event_probability`` -- the exact rational probability of any
  predicate on the locality measure, evaluated once per type class of the
  census pass that ``type_class_counts`` also runs (``_census``);
* ``lldp_exponent_gap`` -- the finite-n gap between the exact per-node decay
  exponent of one target type class and its relative-entropy rate, along a
  spec family.

All probabilities are exact rationals (big-integer counts); logarithms are
taken only at the reporting boundary, since the finite-n corrections are
O(log n / n) and would drown in float noise otherwise.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .graphs import ClassKey, Edge, TypedGraph, empirical_locality_measure, locality_atoms_of
from .measures import ProbMeasure, encode_atom_counts, encode_key, encode_measure
from .rate import ReferenceLaw, relative_entropy
from .sampler import BATCH_ENTRIES, ConditionalSampler, ConditionSpec, _as_count

#: Enumeration refuses supports larger than this.
ENUMERATION_GUARD = 10**8

EventPredicate = Callable[[ProbMeasure], bool]


class EnumerationGuardError(ValueError):
    """Raised when a spec's support is too large to enumerate."""


def _guard(spec: ConditionSpec) -> ConditionalSampler:
    sampler = ConditionalSampler(spec)
    size = math.prod(math.comb(block.capacity, block.edge_count) for block in sampler.blocks)
    if size > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"support has {size} graphs, more than the enumeration guard "
            f"{ENUMERATION_GUARD}; use Monte Carlo (sample_conditional_graph) instead")
    return sampler


def _support_edges(sampler: ConditionalSampler) -> Iterator[List[Edge]]:
    """Edge lists of the graphs ``enumerate_support`` yields, in its order."""
    pools = []
    for block in sampler.blocks:
        # each block's pair table, decoded once; an empty block needs none
        u, v = block.pairs(np.arange(block.capacity if block.edge_count else 0))
        pools.append(itertools.combinations(zip(u.tolist(), v.tolist()), block.edge_count))
    for choice in itertools.product(*pools):
        yield list(itertools.chain.from_iterable(choice))


def enumerate_support(spec: ConditionSpec) -> Iterator[TypedGraph]:
    """Yield every admissible graph exactly once, as the cartesian product of
    per-block pair combinations in lexicographic order."""
    sampler = _guard(spec)
    for edges in _support_edges(sampler):
        yield TypedGraph(sampler.types, edges)


def _row_ids(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ids of the distinct rows of a 2-D int64 array in ``np.lexsort`` order
    (last column most significant): ``(ids, first)``, ``rows[first[ids[i]]]``
    equal to ``rows[i]`` and ``first`` the lowest.  Each row packs into one
    int64 mixed-radix key (digit ``value - min``, radix ``max - min + 1``)
    above ``bits`` low bits holding its index, numbered by one plain sort and
    a binary search; it is re-ranked before its span << bits would reach
    2**62, and a column whose radix is still too wide raises ValueError."""
    bits = (len(rows) - 1).bit_length()
    key = np.zeros(len(rows), dtype=np.int64)
    span = 1
    for column in rows.T:
        low = int(column.min())
        radix = int(column.max()) - low + 1
        if span * radix << bits >= 2**62:
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        if span * radix << bits >= 2**62:
            raise ValueError(f"{len(rows)} rows with a column radix of {radix} overflow int64 keys")
        key += (column - low) * span
        span *= radix
    packed = np.sort(key << bits | np.arange(len(rows)))
    high = packed >> bits
    new = np.concatenate(([True], high[1:] != high[:-1]))
    return np.searchsorted(high[new], key), packed[new] & ((1 << bits) - 1)


def _class_keys(labels: Sequence[str], node_type: np.ndarray, u: np.ndarray,
                v: np.ndarray) -> Tuple[List[ClassKey], np.ndarray]:
    """``locality_atoms_of`` of every graph (u[i], v[i]) of a batch (endpoint arrays
    as ``ConditionalSampler.sample_batch`` returns them), without a Python
    loop over graphs: the distinct keys, and each graph's index into them.
    ``labels, node_type`` is ``np.unique(types, return_inverse=True)``."""
    rows, n, t = u.shape[0], len(node_type), len(labels)
    # bin (graph * n + node) * t + b counts the type-b neighbours of a node
    # (0-based node ids; u and v are 1-based)
    base = (np.arange(rows) * n)[:, None] - 1
    bins = np.concatenate([((u + base) * t + node_type[v - 1]).ravel(),
                           ((v + base) * t + node_type[u - 1]).ravel()])
    neighbours = np.bincount(bins, minlength=rows * n * t).reshape(rows * n, t)
    atoms = np.column_stack([np.tile(node_type, rows), neighbours])
    atom_ids, atom_first = _row_ids(atoms)
    classes = np.sort(atom_ids.reshape(rows, n), axis=1)
    class_ids, class_first = _row_ids(classes)
    atom_keys = [
        (labels[a], tuple((b, c) for b, c in zip(labels, counts) if c))
        for a, *counts in atoms[atom_first].tolist()
    ]
    keys = [
        tuple(sorted((atom_keys[i], len(list(run))) for i, run in itertools.groupby(row)))
        for row in classes[class_first].tolist()
    ]
    return keys, class_ids


@dataclass(frozen=True)
class EnumerationReport:
    """Exact census of a spec's support, grouped by locality measure.

    ``class_counts`` maps the canonical text encoding of each locality measure
    to the number of graphs realizing it; counts sum to ``support_size`` and
    each class has probability count / support_size.
    """

    spec: ConditionSpec
    support_size: int
    class_counts: Dict[str, int]

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_json_dict(),
            "support_size": self.support_size,
            "class_counts": dict(sorted(self.class_counts.items())),
        }


def _census(sampler: ConditionalSampler) -> Dict[ClassKey, List]:
    """The one pass over the support: each type class's record ``[count,
    first edge list]`` (the number of its graphs, and the edges of its first
    graph), in the order classes first appear.  Each graph's key is looked
    up once."""
    classes: Dict[ClassKey, List] = {}
    for edges in _support_edges(sampler):
        key = locality_atoms_of(sampler.types, edges)
        record = classes.get(key)
        if record is None:
            classes[key] = [1, edges]
        else:
            record[0] += 1
    return classes


def type_class_counts(spec: ConditionSpec) -> EnumerationReport:
    """Group the full support by exact empirical locality measure."""
    classes = _census(_guard(spec))
    encoded = {encode_atom_counts(spec.n, key): count for key, (count, _) in classes.items()}
    return EnumerationReport(spec, sum(count for count, _ in classes.values()), encoded)


def exact_event_probability(spec: ConditionSpec, event: EventPredicate) -> Fraction:
    """Exact probability that the locality measure of a conditional draw
    satisfies ``event``: (# graphs in the event) / support_size.

    A predicate on the locality measure is constant on a type class, so
    ``event`` is called once per class, on the measure of the class's first
    graph, and the event's graphs are the sum of its classes' counts."""
    sampler = _guard(spec)
    classes = _census(sampler)
    hits = sum(count for count, first in classes.values()
               if event(empirical_locality_measure(TypedGraph(sampler.types, first))))
    return Fraction(hits, sum(count for count, _ in classes.values()))


def lldp_exponent_gap(specs: Sequence[ConditionSpec],
                      target: ProbMeasure) -> List[Tuple[int, float]]:
    """Finite-size exponent gaps of a target type class along a spec family:

        gap_n = | -(1/n) log Q{class of p_n} - H(p_n || q_n) |,

    where the class probability is exact (enumeration) and q_n is the
    product-Poisson reference built from the spec's own constraint pair.
    ``target`` is one locality measure shared by every spec (a family whose
    target class is constant); at each n its weight w is read as the count
    n w by the spec-count rule (``sampler._as_count``), giving p_n.
    """
    gaps: List[Tuple[int, float]] = []
    for spec in specs:
        p_n = ProbMeasure({atom: Fraction(_as_count(spec.n * w, f"n*p({encode_key(atom)})"),
                                          spec.n) for atom, w in target.items()})
        report = type_class_counts(spec)
        count = report.class_counts.get(encode_measure(p_n), 0)
        if count == 0:
            raise ValueError(f"target class is empty at n = {spec.n}")
        exponent = -(math.log(count) - math.log(report.support_size)) / spec.n
        entropy = relative_entropy(p_n, ReferenceLaw(spec.type_law, spec.link_law))
        gaps.append((spec.n, abs(exponent - entropy)))
    return gaps


def sampled_class_counts(spec: ConditionSpec, num_samples: int,
                         rng: np.random.Generator) -> Dict[str, int]:
    """Class frequencies of ``num_samples`` conditional draws, keyed like
    :func:`type_class_counts` (canonical locality-measure encodings).

    Draws and classifies in batches (``ConditionalSampler.sample_batch`` and
    ``_class_keys``) of ``BATCH_ENTRIES // max(n * (types + 1), edges)``
    graphs, at least one, so a million draws of a small spec stay cheap and
    the work arrays stay small.
    """
    sampler = ConditionalSampler(spec)
    labels, node_type = np.unique(np.asarray(sampler.types), return_inverse=True)
    labels = labels.tolist()
    edges = sum(block.edge_count for block in sampler.blocks)
    step = max(1, BATCH_ENTRIES // max(spec.n * (len(labels) + 1), edges))
    counts: Dict[ClassKey, int] = {}
    for start in range(0, num_samples, step):
        u, v = sampler.sample_batch(rng, min(step, num_samples - start))
        keys, class_ids = _class_keys(labels, node_type, u, v)
        for key, count in zip(keys, np.bincount(class_ids).tolist()):
            counts[key] = counts.get(key, 0) + count
    # interned: callers that keep many results share one copy of each class
    return {
        sys.intern(encode_atom_counts(spec.n, key)): count
        for key, count in counts.items()
    }
