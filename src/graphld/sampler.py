"""Exact-uniform graph samplers.

Two models:

* ``sample_conditional_graph`` -- a typed graph conditioned to have a given
  empirical type law and link law.  Nodes ``1..n_a`` get type ``a`` in
  canonical type order; within each unordered type-pair block a uniformly
  random subset of the candidate node pairs of the required size is chosen,
  independently across blocks.  Every draw reproduces the constraint pair
  exactly, and the law is exactly uniform over the admissible graphs with
  this fixed type assignment.  (All statistics extracted downstream are
  invariant under permuting nodes within a type, so fixing the assignment is
  harmless.)

* ``sample_erdos_renyi`` -- G(n, m), a uniform m-subset of all node pairs:
  the conditional sampler on a single-type spec.

Every draw is one ``ConditionalSampler.sample_batch`` call, the only user of
the vectorized subset kernel ``_subset_rows``, which draws many independent
subsets of a block at once: a single draw (``sample_edges``) is a batch of
one, and ``iter_er_degree_histograms`` takes its G(n, m) batches from the
sampler of the single-type spec that ``_erdos_renyi_sampler`` checks; blocks
without edges draw nothing.  One decode, ``_Block.pairs``, turns pair
indices into node pairs for every draw and ``oracle``'s enumeration.  A
diagonal block of at most ``PAIR_TABLE_LIMIT`` = 2**16 pairs looks them up
in a cached table that the closed form ``_unrank_pairs_np`` wrote, so both
give the same pairs; larger blocks decode in closed form, which is exact
up to ``MAX_GROUP_SIZE`` = 2**24 nodes, so larger groups with links inside
are rejected (cross blocks decode exactly at any size).  Key widths (a
stable sort where no packed int64 key fits, as in G(16e6, 1e5)), the
decode and the empty-block skip leave the int64 index stream as it is, so
seeded ``decay``, ``sample`` and ``sampled_class_counts`` output does not
change with them.

RNG contract: every sampler consumes an explicit ``numpy.random.Generator``
(PCG64 via ``numpy.random.default_rng``); identical seed + spec produces the
identical graph for a fixed numpy and graphld version.  Sampling is pure
given the generator state; parallel Monte Carlo must give each worker an
independently seeded generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .graphs import Edge, TypedGraph
from .measures import (INPUT_TOL, FiniteMeasure, ProbMeasure, Scalar, config_field, config_int,
                       dirac, law_pair_problem)

#: Largest type group with within-type links: ``_unrank_pairs_np`` is exact up to here.
MAX_GROUP_SIZE = 2**24
#: Largest diagonal block (in pairs) decoded from a cached table: two int64
#: arrays of at most 1 MiB together, one for each group size and start.
PAIR_TABLE_LIMIT = 2**16


class InadmissibleSpecError(ValueError):
    """Raised when a ConditionSpec violates one of its admissibility bounds."""


@dataclass(frozen=True)
class ConditionSpec:
    """A target pair (type law, link law) at a given node count.

    Admissible when ``n * type_law(a)`` is integral for every type, the block
    edge counts ``n * link_law(a, b)`` (off-diagonal) and
    ``n * link_law(a, a) / 2`` (diagonal) are integral, and each block count
    fits its capacity.
    """

    n: int
    type_law: ProbMeasure
    link_law: FiniteMeasure

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "eta": self.type_law.to_json_dict(),
            "pi": self.link_law.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping[str, object]) -> "ConditionSpec":
        n = config_int(config_field(obj, "n"), "n")
        eta = ProbMeasure.from_json_dict(config_field(obj, "eta"), "type")  # type: ignore[arg-type]
        pi = FiniteMeasure.from_json_dict(config_field(obj, "pi"), "pair")  # type: ignore[arg-type]
        return cls(n, eta, pi)


@dataclass(frozen=True)
class _Block:
    """One unordered type-pair block of the pair space."""

    a: str
    b: str
    a_start: int  # first node id of the a-segment
    a_size: int
    b_start: int
    b_size: int
    capacity: int
    edge_count: int

    def pairs(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """1-based endpoints ``(u, v)`` of the block's pair indices ``idx``
        (int64, any shape): lexicographic pairs of the a-segment on a diagonal
        block, (a node, b node) in row-major order on a cross block.  A
        diagonal block of at most ``PAIR_TABLE_LIMIT`` pairs looks them up in
        ``_pair_table``, a larger one decodes them in closed form.  Both
        arrays are fresh, so the caller may shift them in place."""
        if self.a == self.b:
            if self.capacity > PAIR_TABLE_LIMIT:
                return _unrank_pairs_np(idx, self.a_size, self.a_start)
            u, v = _pair_table(self.a_size, self.a_start)
            return np.take(u, idx), np.take(v, idx)
        u, v = np.divmod(idx, self.b_size)
        return u + self.a_start, v + self.b_start


def _as_count(x: Scalar, what: str) -> int:
    if isinstance(x, Rational):
        if Fraction(x).denominator != 1:
            raise InadmissibleSpecError(f"{what} = {x} is not an integer")
        return int(x)
    rounded = round(x)
    if abs(x - rounded) > INPUT_TOL:
        raise InadmissibleSpecError(f"{what} = {x!r} is not an integer (tol {INPUT_TOL})")
    return int(rounded)


def _analyze(spec: ConditionSpec) -> Tuple[Tuple[str, ...], Tuple[_Block, ...]]:
    """Validate a spec and lay out its node segments and pair blocks.

    Raises InadmissibleSpecError naming the first violated constraint.
    """
    if spec.n < 1:
        raise InadmissibleSpecError(f"n = {spec.n} must be >= 1")
    problem = law_pair_problem(spec.type_law, spec.link_law)
    if problem:
        raise InadmissibleSpecError(problem)
    labels = spec.type_law.keys()  # sorted, distinct and valid

    sizes = {a: _as_count(spec.n * spec.type_law(a), f"n*eta({a})") for a in labels}
    if sum(sizes.values()) != spec.n:
        raise InadmissibleSpecError(
            f"type counts {sizes} sum to {sum(sizes.values())}, not n = {spec.n}")
    if any(sizes[a] > MAX_GROUP_SIZE and spec.link_law((a, a)) for a in labels):
        raise InadmissibleSpecError(f"type counts {sizes} exceed the decode limit {MAX_GROUP_SIZE}")

    starts = {}
    next_id = 1
    types: List[str] = []
    for a in labels:
        starts[a] = next_id
        types.extend([a] * sizes[a])
        next_id += sizes[a]

    blocks: List[_Block] = []
    for i, a in enumerate(labels):
        for b in labels[i:]:
            if a == b:
                count = _as_count(spec.n * spec.link_law((a, a)) / 2, f"n*pi({a},{a})/2")
                capacity = sizes[a] * (sizes[a] - 1) // 2
            else:
                count = _as_count(spec.n * spec.link_law((a, b)), f"n*pi({a},{b})")
                capacity = sizes[a] * sizes[b]
            if not 0 <= count <= capacity:
                raise InadmissibleSpecError(
                    f"block ({a},{b}) needs {count} pairs but capacity is {capacity}")
            blocks.append(_Block(a, b, starts[a], sizes[a], starts[b], sizes[b],
                                 capacity, count))
    return tuple(types), tuple(blocks)


class ConditionalSampler:
    """Prepared sampler for one ConditionSpec; reuse it across many draws."""

    def __init__(self, spec: ConditionSpec):
        self.types, self.blocks = _analyze(spec)  # raises if inadmissible

    def sample_edges(self, rng: np.random.Generator) -> List[Edge]:
        """One draw, as an edge list: row 0 of ``sample_batch(rng, 1)``."""
        u, v = self.sample_batch(rng, 1)
        return list(zip(u[0].tolist(), v[0].tolist()))

    def sample_batch(self, rng: np.random.Generator,
                     count: int) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` independent draws as endpoint arrays ``(u, v)`` of shape
        (count, E), E the spec's edge count: row i holds the edges
        (u[i, j], v[i, j]) on the nodes 1..n typed by ``self.types``.

        Each block draws its ``count`` subsets with the exact kernel
        ``_subset_rows``, independently of the other blocks, so each row is
        exactly uniform over the support.  Columns come block by block, each
        block's pair indices decoded by ``_Block.pairs``; a block without
        edges adds no column and draws nothing from ``rng``.  Both arrays
        are fresh, so the caller may shift them in place.
        """
        pairs = [block.pairs(_subset_rows(rng, block.capacity, block.edge_count, count))
                 for block in self.blocks if block.edge_count]
        if len(pairs) == 1:  # already fresh: no copy
            return pairs[0]
        empty = np.empty((count, 0), dtype=np.int64)
        return (np.hstack([empty, *(u for u, _ in pairs)]),
                np.hstack([empty, *(v for _, v in pairs)]))

    def sample(self, rng: np.random.Generator) -> TypedGraph:
        return TypedGraph(self.types, self.sample_edges(rng))


def sample_conditional_graph(spec: ConditionSpec, rng: np.random.Generator) -> TypedGraph:
    """One exact-uniform draw from the graphs realizing ``spec``.

    The empirical type and link measures of the result equal the spec's pair
    exactly (always, not just in expectation).
    """
    return ConditionalSampler(spec).sample(rng)


@functools.lru_cache(maxsize=64)
def _erdos_renyi_sampler(n: int, m: int) -> ConditionalSampler:
    """G(n, m) as a single-type spec: the one check of G(n, m)."""
    if n < 1 or m < 0:
        raise InadmissibleSpecError(f"G(n, m) needs n >= 1 and m >= 0, not G({n}, {m})")
    spec = ConditionSpec(n, dirac("a"), FiniteMeasure({("a", "a"): Fraction(2 * m, n)}))
    return ConditionalSampler(spec)


def sample_erdos_renyi(n: int, m: int, rng: np.random.Generator) -> TypedGraph:
    """A uniformly random graph with n nodes and exactly m edges, single type
    ``a``.  Raises InadmissibleSpecError unless 0 <= m <= C(n, 2), n >= 1."""
    return _erdos_renyi_sampler(n, m).sample(rng)


# ---------------------------------------------------------------------------
# Batched degree sampling for Monte Carlo studies
# ---------------------------------------------------------------------------

def _unrank_pairs_np(idx: np.ndarray, n: int, start: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized pair unranking over the C(n, 2) pairs of n nodes numbered
    from ``start``: fresh arrays of the pairs (u, v), start <= u < v < start
    + n, of lexicographic ranks ``idx``.

    Numbered from 0, pair (u, v) has w = n - u candidates (u, u+1..n-1) in
    its row, and the rows from u on hold w(w - 1)/2 pairs, so w is the
    smallest integer with w(w - 1)/2 >= rem = C(n, 2) - idx, in closed form
    w = ceil((1 + sqrt(x)) / 2) with x = 8 rem + 1.  In float64 this is exact
    while 8 C(n, 2) < 2**50, i.e. for n <= 2**24: x is then an exact odd
    integer below 2**50.  When x is a square its root is an odd integer and
    every step is exact.  Otherwise sqrt(x) lies at least
    1/(2 sqrt(x) + 2) > 2**-27 from every integer, so (1 + sqrt(x)) / 2 lies
    more than 2**-28 from every integer, while 0.5 + 0.5 sqrt(x) is computed
    with an error of at most 3 * 2**-30 (sqrt, then the sum); so the ceiling
    cannot tip.
    """
    total = n * (n - 1) // 2
    # ceil(0.5 + 0.5 * sqrt((8 total + 1) - 8.0 idx)), the same steps in place
    x = np.multiply(idx, -8.0)
    x += 8 * total + 1
    np.sqrt(x, out=x)
    x *= 0.5
    x += 0.5
    w = np.ceil(x, out=x).astype(np.int64)
    # v = u + 1 + idx - (total - w(w - 1)/2), and w(w - 3) is even
    v = w - 3
    v *= w
    v >>= 1
    v += idx
    v += n + 1 + start - total
    return np.subtract(n + start, w, out=w), v


@functools.lru_cache(maxsize=16)
def _pair_table(n: int, start: int) -> Tuple[np.ndarray, np.ndarray]:
    """``_unrank_pairs_np`` of every rank 0..C(n, 2) - 1, read-only: the pair
    of rank i is ``(u[i], v[i])``, so a lookup is the closed form itself."""
    table = _unrank_pairs_np(np.arange(n * (n - 1) // 2, dtype=np.int64), n, start)
    for column in table:
        column.setflags(write=False)
    return table


@functools.lru_cache(maxsize=256)
def _stream_layout(capacity: int, m: int) -> Tuple[int, int, Optional[type]]:
    """``_subset_rows``'s stream length L, position bits and key type for
    m-subsets of range(capacity) (not the positions: L can reach millions);
    the key type is None where no packed int64 key fits."""
    # L = mean + 4 sd of the number of draws needed to see m distinct values:
    # a sum of geometric waits, success probabilities (capacity - j) / capacity
    seen = np.arange(m)
    mean = np.sum(capacity / (capacity - seen))
    sd = math.sqrt(np.sum(seen * capacity / (capacity - seen) ** 2.0))
    length = math.ceil(mean + 4.0 * sd)
    bits = (length - 1).bit_length()
    key_type = (np.int32 if capacity << bits < 2**31 else
                np.int64 if capacity << bits < 2**63 else None)
    return length, bits, key_type


def _subset_rows(rng: np.random.Generator, capacity: int, m: int, rows: int) -> np.ndarray:
    """``rows`` independent uniform m-subsets of range(capacity), shape
    (rows, m), each row sorted ascending.

    Each row draws an i.i.d. uniform stream of L indices and keeps the first
    m distinct values in draw order, which is sequential sampling without
    replacement.  A row whose stream holds fewer than m distinct values is
    redrawn whole (when none is, the first pass is returned as it is).  This
    rejection keeps the law exact:
    permuting the labels of range(capacity) maps an i.i.d. uniform stream to
    another one with the same law, does not change whether the stream holds
    m distinct values, and permutes the kept set; so the law of the kept set
    given acceptance is invariant under every permutation, i.e. uniform over
    m-subsets.  (Keeping the m smallest distinct values instead would favour
    small labels.)
    """
    length, bits, key_type = _stream_layout(capacity, m)
    positions = None if key_type is None else np.arange(length, dtype=key_type)
    out = np.empty((rows, m), dtype=np.int64)
    todo = np.arange(rows)
    while todo.size:
        # sort each row by value, then by draw position; the draws stay int64
        # whatever the key width, so the stream is the same
        draws = rng.integers(0, capacity, size=(todo.size, length))
        if key_type is None:  # no packed key fits: a stable sort, in the same order
            position = np.argsort(draws, axis=1, kind="stable")
            values = np.take_along_axis(draws, position, axis=1)
        else:  # value << bits | position
            keys = draws.astype(key_type, copy=False)
            keys <<= bits
            keys |= positions
            keys.sort(axis=1)
            values = keys >> bits
            position = keys & ((1 << bits) - 1)
        first = np.ones(draws.shape, dtype=bool)
        np.not_equal(values[:, 1:], values[:, :-1], out=first[:, 1:])
        # column m of the draw positions of first occurrences (`length`
        # elsewhere) is where the (m+1)-th distinct value first appears; when
        # length == m there is none, and every first occurrence is kept
        cut = (np.partition(np.where(first, position, length), m, axis=1)[:, m:m + 1]
               if length > m else length)
        keep = first & (position < cut)
        full = np.count_nonzero(keep, axis=1) == m
        if todo.size == rows and full.all():  # the common case: no redraw, no scatter
            return values[keep].reshape(rows, m).astype(np.int64, copy=False)
        keep &= full[:, None]
        out[todo[full]] = values[keep].reshape(np.count_nonzero(full), m)
        todo = todo[~full]
    return out


#: Entries per work array of ``iter_er_degree_histograms``, about: a batch
#: holds ``BATCH_ENTRIES // max(n, m)`` graphs, at least one, so its arrays stay
#: small enough to be reused from batch to batch instead of being mapped and
#: paged in afresh.  It decides which row an accepted draw lands in, not
#: which graphs a call yields: every redraw pass draws exactly the rows still
#: missing, so a call stops at the same accepted draw of the generator stream
#: whatever the batch size.
BATCH_ENTRIES = 16384


def iter_er_degree_histograms(n: int, m: int, count: int,
                              rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Degree histograms of ``count`` independent G(n, m) draws, in batches.

    Yields arrays of shape (batch, n): row i holds the number of nodes of each
    degree 0..n-1 in the i-th sampled graph.  Each batch (see
    ``BATCH_ENTRIES``) is one ``sample_batch`` call of
    ``_erdos_renyi_sampler(n, m)``, so every edge set is exactly uniform.
    The generator state fully determines the output.
    """
    sampler = _erdos_renyi_sampler(n, m)
    step = max(1, BATCH_ENTRIES // max(1, n, m))
    for start in range(0, count, step):
        b = min(step, count - start)
        u, v = sampler.sample_batch(rng, b)
        offsets = (np.arange(b, dtype=np.int64) * n)[:, None]
        u += offsets - 1  # node ids are 1-based
        v += offsets - 1
        degrees = np.bincount(u.ravel(), minlength=b * n)
        degrees += np.bincount(v.ravel(), minlength=b * n)
        # bin i * n + d counts the nodes of degree d in graph i
        degrees += np.repeat(offsets.ravel(), n)
        yield np.bincount(degrees, minlength=b * n).reshape(b, n)


# ---------------------------------------------------------------------------
# Named spec families used by experiments and tests
# ---------------------------------------------------------------------------

def binary_cross_spec(n: int) -> ConditionSpec:
    """Two equal type groups joined by n/2 cross links and no within-type
    links (n even, so that group size and link count are integral)."""
    if n % 2 != 0:
        raise ValueError("binary cross family needs even n")
    half = Fraction(1, 2)
    eta = ProbMeasure({"a": half, "b": half})
    pi = FiniteMeasure({("a", "b"): half, ("b", "a"): half})
    return ConditionSpec(n, eta, pi)
