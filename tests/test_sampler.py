"""Conditional and fixed-edge-count samplers: exactness, uniformity,
determinism."""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from graphld import sampler
from graphld.graphs import TypedGraph, empirical_locality_measure, locality_atoms_of
from graphld.measures import FiniteMeasure, ProbMeasure, dirac, total_variation
from graphld.oracle import enumerate_support
from graphld.rate import ReferenceLaw
from graphld.sampler import (
    ConditionSpec,
    ConditionalSampler,
    InadmissibleSpecError,
    _subset_rows,
    _unrank_pairs_np,
    binary_cross_spec,
    iter_er_degree_histograms,
    sample_conditional_graph,
    sample_erdos_renyi,
)
from helpers import (class_keys, prefix_label_spec, random_condition_spec, single_type_spec4,
                     three_type_spec5)
from oracles import empirical_link_measure, empirical_type_measure, unrank_pair


def test_binary_cross_spec_is_admissible():
    assert ConditionalSampler(binary_cross_spec(4)).types == ("a", "a", "b", "b")


def test_odd_group_size_is_inadmissible():
    # n=3 with uniform eta on two types: 3/2 nodes per type
    spec = ConditionSpec(3, ProbMeasure({"a": 0.5, "b": 0.5}), FiniteMeasure({}))
    with pytest.raises(InadmissibleSpecError, match="not an integer"):
        ConditionalSampler(spec)


def test_block_over_capacity_is_inadmissible():
    # n=4, one node per a/b would be fine, but ask for 5 cross links
    spec = ConditionSpec(
        4,
        ProbMeasure({"a": Fraction(1, 2), "b": Fraction(1, 2)}),
        FiniteMeasure({("a", "b"): Fraction(5, 4), ("b", "a"): Fraction(5, 4)}),
    )
    with pytest.raises(InadmissibleSpecError, match="capacity"):
        sample_conditional_graph(spec, np.random.default_rng(0))


HALVES = ProbMeasure({"a": Fraction(1, 2), "b": Fraction(1, 2)})


@pytest.mark.parametrize("spec, reason", [
    (ConditionSpec(0, dirac("a"), FiniteMeasure({})), "n = 0 must be >= 1"),
    (ConditionSpec(4, dirac(("a", "a")), FiniteMeasure({})),
     "eta must be a measure over type labels"),
    (ConditionSpec(4, HALVES, FiniteMeasure({"a": 1})),
     "link law must be a measure over type pairs"),
    (ConditionSpec(4, HALVES, FiniteMeasure({("a", "b"): Fraction(1, 2)})),
     "link law is not symmetric at ('a', 'b')"),
    (ConditionSpec(4, dirac("a"), FiniteMeasure({("a", "c"): 1, ("c", "a"): 1})),
     "link law key ('a', 'c') outside the alphabet"),
    (ConditionSpec(4, ProbMeasure({"a": 0.5, "bad label": 0.5}), FiniteMeasure({})),
     "invalid type label 'bad label' (allowed: [A-Za-z0-9_.-]+)"),
    # a type law within the float mass tolerance whose counts miss n by one
    (ConditionSpec(2**40, ProbMeasure({"a": 0.5 + 2**-40, "b": 0.5}), FiniteMeasure({})),
     "type counts {'a': 549755813889, 'b': 549755813888} sum to 1099511627777, "
     "not n = 1099511627776"),
], ids=["n=0", "eta-over-pairs", "pi-over-types", "asymmetric", "outside-alphabet", "bad-label",
        "counts-miss-n"])
def test_spec_analysis_refuses_malformed_laws(spec, reason):
    with pytest.raises(InadmissibleSpecError) as refused:
        sample_conditional_graph(spec, np.random.default_rng(0))
    assert str(refused.value) == reason


def test_type_groups_beyond_the_exact_pair_decode_are_inadmissible(monkeypatch, request):
    """``_unrank_pairs_np`` is exact up to 2**24 nodes a group: one node
    more with links inside the group is rejected before the node types are
    laid out; links only across groups, or none, need no such decode."""
    big = 2**24 + 1
    eta = ProbMeasure({"a": Fraction(big, big + 2), "b": Fraction(2, big + 2)})
    inside = FiniteMeasure({("a", "a"): Fraction(2, big + 2)})
    with pytest.raises(InadmissibleSpecError, match=str(2**24)):
        ConditionalSampler(ConditionSpec(big + 2, eta, inside))
    with pytest.raises(InadmissibleSpecError, match=str(2**24)):
        sample_erdos_renyi(big, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match=str(2**24)):
        next(iter_er_degree_histograms(big, 1, 1, np.random.default_rng(0)))
    # the same rule at a small limit, where admitted specs are cheap to lay out
    # (G(n, m) samplers are cached: drop those analysed under the other limit)
    monkeypatch.setattr(sampler, "MAX_GROUP_SIZE", 3)
    sampler._erdos_renyi_sampler.cache_clear()
    request.addfinalizer(sampler._erdos_renyi_sampler.cache_clear)
    eta = ProbMeasure({"a": 0.5, "b": 0.5})
    with pytest.raises(InadmissibleSpecError, match="decode limit"):
        ConditionalSampler(ConditionSpec(8, eta, FiniteMeasure({("a", "a"): 0.25})))
    ConditionalSampler(binary_cross_spec(8))  # admitted: no links inside a group
    ConditionalSampler(ConditionSpec(8, eta, FiniteMeasure({})))
    with pytest.raises(ValueError, match="decode limit"):
        next(iter_er_degree_histograms(4, 1, 1, np.random.default_rng(0)))
    edgeless = next(iter_er_degree_histograms(4, 0, 1, np.random.default_rng(0)))
    assert edgeless.tolist() == [[4, 0, 0, 0]]


def test_sampled_graphs_reproduce_the_constraint_pair_exactly():
    rng = np.random.default_rng(41)
    for _ in range(30):
        spec = random_condition_spec(rng)
        z = sample_conditional_graph(spec, rng)
        assert empirical_type_measure(z) == spec.type_law
        assert empirical_link_measure(z) == spec.link_law


def test_zero_link_law_gives_edgeless_graph():
    spec = ConditionSpec(5, ProbMeasure({"a": 0.6, "b": 0.4}), FiniteMeasure({}))
    z = sample_conditional_graph(spec, np.random.default_rng(0))
    assert z.edges == frozenset()


def test_full_capacity_is_deterministic():
    # every block saturated: the graph is forced
    n = 4
    spec = ConditionSpec(
        n,
        ProbMeasure({"a": Fraction(1, 2), "b": Fraction(1, 2)}),
        FiniteMeasure({
            ("a", "b"): Fraction(4, 4), ("b", "a"): Fraction(4, 4),  # 4 cross links
            ("a", "a"): Fraction(2, 4), ("b", "b"): Fraction(2, 4),  # both diagonals
        }),
    )
    z = sample_conditional_graph(spec, np.random.default_rng(0))
    assert len(z.edges) == 6  # complete graph on 4 nodes
    z2 = sample_conditional_graph(spec, np.random.default_rng(99))
    assert z.edges == z2.edges


def test_same_seed_same_graph():
    spec = binary_cross_spec(8)
    a = sample_conditional_graph(spec, np.random.default_rng(12345))
    b = sample_conditional_graph(spec, np.random.default_rng(12345))
    assert a == b
    c = sample_conditional_graph(spec, np.random.default_rng(54321))
    assert a != c  # 490 admissible graphs; collision would be suspicious


def test_conditional_sampler_is_uniform_on_small_support():
    """n=4 binary cross spec: 6 graphs, chi-square over seeded draws below
    the 99.9% quantile of chi2(5)."""
    spec = binary_cross_spec(4)
    sampler = ConditionalSampler(spec)
    rng = np.random.default_rng(2024)
    draws = 60_000
    freq = Counter(frozenset(sampler.sample_edges(rng)) for _ in range(draws))
    assert len(freq) == 6
    expected = draws / 6
    stat = sum((count - expected) ** 2 / expected for count in freq.values())
    assert stat < chi2.ppf(0.999, df=5)


@pytest.mark.parametrize("spec, size", [(single_type_spec4(), 20), (three_type_spec5(), 24)],
                         ids=["single4", "three5"])
def test_batched_draws_are_uniform_over_the_support(spec, size):
    """Chi-square of 100,000 batched draws over every graph of the support,
    below the 99.9% quantile."""
    support = {graph.edges for graph in enumerate_support(spec)}
    assert len(support) == size
    draws = 100_000
    u, v = ConditionalSampler(spec).sample_batch(np.random.default_rng(2718), draws)
    freq = Counter(frozenset(zip(r, s)) for r, s in zip(u.tolist(), v.tolist()))
    assert set(freq) == support
    expected = draws / size
    stat = sum((count - expected) ** 2 / expected for count in freq.values())
    assert stat < chi2.ppf(0.999, df=size - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=20))
def test_batched_rows_realize_the_link_law_exactly(seed, rows):
    """Every row holds edge_count distinct pairs of each block, inside that
    block, so its empirical link measure is the spec's pi exactly; its
    batched class key is its per-graph one."""
    rng = np.random.default_rng(seed)
    spec = random_condition_spec(rng)
    sampler = ConditionalSampler(spec)
    u, v = sampler.sample_batch(rng, rows)
    assert u.shape == v.shape == (rows, sum(block.edge_count for block in sampler.blocks))
    start = 0
    for block in sampler.blocks:
        stop = start + block.edge_count
        bu, bv = u[:, start:stop], v[:, start:stop]
        assert np.all((bu >= block.a_start) & (bu < block.a_start + block.a_size))
        assert np.all((bv >= block.b_start) & (bv < block.b_start + block.b_size))
        assert np.all(bu < bv)
        assert all(len(set(zip(r, s))) == block.edge_count
                   for r, s in zip(bu.tolist(), bv.tolist()))
        start = stop
    keys, class_ids = class_keys(sampler.types, u, v)
    for r, s, i in zip(u.tolist(), v.tolist(), class_ids.tolist()):
        assert empirical_link_measure(TypedGraph(sampler.types, zip(r, s))) == spec.link_law
        assert keys[i] == locality_atoms_of(sampler.types, zip(r, s))


@pytest.mark.parametrize("spec", [binary_cross_spec(4), three_type_spec5(), prefix_label_spec(),
                                  ConditionSpec(4, ProbMeasure({"a": 0.5, "b": 0.5}),
                                                FiniteMeasure({})),
                                  ConditionSpec(1, ProbMeasure({"a": 1}), FiniteMeasure({}))],
                         ids=["binary4", "three5", "a-ab", "edgeless4", "one-node"])
def test_batches_skip_empty_blocks_without_drawing(spec):
    """Blocks without edges add no columns and draw nothing: a batch is the
    non-empty blocks' kernel draws side by side, from the same stream, and
    an edgeless spec gives (count, 0) arrays and leaves the generator as it
    was."""
    sampler = ConditionalSampler(spec)
    rng, replay = np.random.default_rng(9), np.random.default_rng(9)
    u, v = sampler.sample_batch(rng, 7)
    expected = [block.pairs(_subset_rows(replay, block.capacity, block.edge_count, 7))
                for block in sampler.blocks if block.edge_count]
    edges = sum(block.edge_count for block in sampler.blocks)
    assert u.shape == v.shape == (7, edges)
    assert u.dtype == v.dtype == np.int64
    none = np.empty((7, 0), dtype=np.int64)
    assert np.array_equal(u, np.hstack([none, *(bu for bu, _ in expected)]))
    assert np.array_equal(v, np.hstack([none, *(bv for _, bv in expected)]))
    assert rng.bit_generator.state == replay.bit_generator.state
    if not edges:
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state


@pytest.mark.parametrize("spec", [binary_cross_spec(4), three_type_spec5(), prefix_label_spec(),
                                  ConditionSpec(4, ProbMeasure({"a": 0.5, "b": 0.5}),
                                                FiniteMeasure({})),
                                  ConditionSpec(1, ProbMeasure({"a": 1}), FiniteMeasure({})),
                                  ConditionSpec(8, ProbMeasure({"a": 1}),
                                                FiniteMeasure({("a", "a"): Fraction(20, 8)}))],
                         ids=["binary4", "three5", "a-ab", "edgeless4", "one-node", "er8-10"])
@pytest.mark.parametrize("seed", [0, 3, 2024])
def test_one_draw_is_a_batch_of_one(spec, seed):
    """``sample_edges`` is row 0 of a one-row ``sample_batch`` and leaves the
    generator where the batch leaves it."""
    sampler = ConditionalSampler(spec)
    rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    edges = sampler.sample_edges(rng)
    u, v = sampler.sample_batch(batch_rng, 1)
    assert edges == list(zip(u[0].tolist(), v[0].tolist()))
    assert all(type(node) is int for edge in edges for node in edge)
    assert rng.bit_generator.state == batch_rng.bit_generator.state


def _unrank_pairs_listed(ks, size):
    u, v = _unrank_pairs_np(np.array(ks, dtype=np.int64), size)
    return list(zip(u.tolist(), v.tolist()))


def test_unrank_pair_matches_lexicographic_order():
    for size in (2, 3, 5, 9):
        pairs = list(itertools.combinations(range(size), 2))
        assert [unrank_pair(k, size) for k in range(len(pairs))] == pairs
        assert _unrank_pairs_listed(range(len(pairs)), size) == pairs


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=300), st.data())
def test_vectorized_unranking_is_the_lexicographic_bijection(size, data):
    total = size * (size - 1) // 2
    ks = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=50))
    pairs = _unrank_pairs_listed(ks, size)
    assert pairs == [unrank_pair(k, size) for k in ks]
    assert all(0 <= r < s < size for r, s in pairs)
    # lexicographic rank of (r, s) inverts the unranking
    assert [r * size - r * (r + 1) // 2 + s - r - 1 for r, s in pairs] == ks


@pytest.mark.parametrize(
    "spec", [binary_cross_spec(4), binary_cross_spec(6), binary_cross_spec(8),
             single_type_spec4(), three_type_spec5(), prefix_label_spec()],
    ids=["binary4", "binary6", "binary8", "single4", "three5", "a-ab"])
def test_block_pairs_decode_every_index_of_every_block(spec):
    """``_Block.pairs`` against the scalar decode plus the segment starts:
    ``unrank_pair`` on a diagonal block, ``divmod`` on a cross block; a column
    of indices decodes entry by entry."""
    for block in ConditionalSampler(spec).blocks:
        if block.a == block.b:
            expected = [(block.a_start + r, block.a_start + s)
                        for r, s in (unrank_pair(k, block.a_size) for k in range(block.capacity))]
        else:
            expected = [(block.a_start + r, block.b_start + s)
                        for r, s in (divmod(k, block.b_size) for k in range(block.capacity))]
        u, v = block.pairs(np.arange(block.capacity))
        assert list(zip(u.tolist(), v.tolist())) == expected
        column = np.arange(block.capacity).reshape(-1, 1)
        cu, cv = block.pairs(column)
        assert cu.shape == cv.shape == column.shape
        assert np.array_equal(cu[:, 0], u) and np.array_equal(cv[:, 0], v)


@pytest.mark.parametrize("size", [362, 363])
def test_block_pairs_table_decode_is_the_closed_form(size):
    """A group of 362 nodes (65,341 pairs, within ``PAIR_TABLE_LIMIT``)
    decodes from the cached pair table, one of 363 (65,703 pairs) in closed
    form; both give ``_unrank_pairs_np`` at ranks 0 and capacity - 1 and at
    random ranks, with a nonzero start.  A caller's in-place shift of one
    decode leaves the next one as it was, so the cached table is untouched."""
    start, capacity = 7, size * (size - 1) // 2
    block = sampler._Block("a", "a", start, size, start, size, capacity, 1)
    idx = np.r_[0, capacity - 1,
                np.random.default_rng(size).integers(0, capacity, 98)].reshape(10, 10)
    expected = _unrank_pairs_np(idx, size, start)
    lookups = sampler._pair_table.cache_info()
    u, v = block.pairs(idx)
    after = sampler._pair_table.cache_info()
    assert (after.hits + after.misses > lookups.hits + lookups.misses) == (size == 362)
    assert (capacity <= sampler.PAIR_TABLE_LIMIT) == (size == 362)
    assert u.shape == v.shape == idx.shape
    assert np.array_equal(u, expected[0]) and np.array_equal(v, expected[1])
    assert (u[0, 0], v[0, 0], u[0, 1], v[0, 1]) == (start, start + 1, start + size - 2,
                                                    start + size - 1)
    u -= 1  # the degree histograms shift in place
    v -= 1
    again = block.pairs(idx)
    assert np.array_equal(again[0], expected[0]) and np.array_equal(again[1], expected[1])


@pytest.mark.parametrize("n", [10**4, 10**5, 10**6, 3 * 10**6])
def test_vectorized_unranking_at_row_boundaries_of_large_n(n):
    """Every row-start rank, its neighbours and the last rank decode to
    pairs 0 <= r < s < n whose lexicographic rank is the input: the places
    where a closed-form row index is one off if it rounds the wrong way."""
    total = n * (n - 1) // 2
    for lo in range(0, n - 1, 1 << 18):
        r = np.arange(lo, min(lo + (1 << 18), n - 1), dtype=np.int64)
        starts = r * n - r * (r + 1) // 2
        ks = np.concatenate([starts - 1, starts, starts + 1, [total - 1]])
        ks = ks[(ks >= 0) & (ks < total)]
        u, v = _unrank_pairs_np(ks, n)
        assert np.all((0 <= u) & (u < v) & (v < n))
        assert np.array_equal(u * n - u * (u + 1) // 2 + v - u - 1, ks)


def _first_distinct_rows(rng, capacity, m, rows, length):
    """The kernel's law written out row by row: each row keeps the first m
    distinct values of its stream of ``length`` draws, and rows that see
    fewer are drawn again, in order, in the next pass."""
    out = [None] * rows
    todo = list(range(rows))
    while todo:
        streams = rng.integers(0, capacity, size=(len(todo), length)).tolist()
        left = []
        for i, stream in zip(todo, streams):
            kept = list(dict.fromkeys(stream))[:m]
            if len(kept) == m:
                out[i] = sorted(kept)
            else:
                left.append(i)
        todo = left
    return out


@pytest.mark.parametrize("capacity", [2**20 - 1, 2**21], ids=["int32-keys", "int64-keys"])
def test_subset_kernel_replays_the_first_distinct_values_of_its_stream(capacity):
    """Replaying the kernel's generator stream gives its rows exactly, on
    both sides of the capacity where its packed keys, value << 11 | position
    at this m, stop fitting in int32 (2**20; half the values of the second
    capacity would overflow an int32 key).  At m = 2000 most rows repeat a
    value, so draw order decides what is kept."""
    m, rows = 2000, 20
    # the stream length of _subset_rows: mean + 4 sd of the draws needed
    seen = np.arange(m)
    mean = np.sum(capacity / (capacity - seen))
    sd = math.sqrt(np.sum(seen * capacity / (capacity - seen) ** 2.0))
    length = math.ceil(mean + 4.0 * sd)
    assert (length - 1).bit_length() == 11
    rng = np.random.default_rng(2029)
    replay = np.random.default_rng(2029)
    out = _subset_rows(rng, capacity, m, rows)
    assert out.dtype == np.int64
    assert out.tolist() == _first_distinct_rows(replay, capacity, m, rows, length)
    assert rng.bit_generator.state == replay.bit_generator.state


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.data(),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
def test_subset_kernel_rows_are_distinct_subsets(capacity, data, rows, seed):
    m = data.draw(st.integers(0, capacity))
    out = _subset_rows(np.random.default_rng(seed), capacity, m, rows)
    assert out.shape == (rows, m)
    assert all(len(set(row)) == m for row in out.tolist())
    assert np.all((out >= 0) & (out < capacity))


@pytest.mark.parametrize("capacity, m, rows", [
    (10, 9, 200), (6, 6, 4), (15, 6, 50), (5456, 100, 300), (2**21, 2000, 20)])
def test_wide_key_path_draws_what_the_packed_keys_draw(monkeypatch, capacity, m, rows):
    """Where no packed int64 key fits, ``_subset_rows`` orders each row's
    draws with a stable sort.  Forced on small blocks, that path returns the
    packed path's arrays and leaves the generator in the same state, redraws
    of nearly full blocks included."""
    packed_rng = np.random.default_rng(31)
    packed = _subset_rows(packed_rng, capacity, m, rows)
    layout = sampler._stream_layout
    monkeypatch.setattr(sampler, "_stream_layout", lambda c, k: (*layout(c, k)[:2], None))
    wide_rng = np.random.default_rng(31)
    assert np.array_equal(_subset_rows(wide_rng, capacity, m, rows), packed)
    assert wide_rng.bit_generator.state == packed_rng.bit_generator.state


@pytest.mark.parametrize("capacity, m", [(16_000_000 * 15_999_999 // 2, 100_000),
                                         (2**50, 13_422)], ids=["G(16e6,1e5)", "cross-2**50"])
def test_blocks_too_wide_for_packed_keys_draw_distinct_sorted_indices(capacity, m):
    """Past ``capacity << bits < 2**63`` the packed keys used to wrap
    negative, and ``graphld sample`` on G(16e6, 1e5) wrote edges out of the
    node range."""
    out = _subset_rows(np.random.default_rng(3), capacity, m, 2)
    assert out.shape == (2, m)
    assert np.all(np.diff(out, axis=1) > 0)
    assert np.all((out >= 0) & (out < capacity))
    assert sampler._stream_layout(capacity, m)[2] is None  # the stable-sort path ran


def test_erdos_renyi_extremes_and_bounds():
    rng = np.random.default_rng(0)
    assert sample_erdos_renyi(5, 0, rng).edges == frozenset()
    full = sample_erdos_renyi(5, 10, rng)
    assert len(full.edges) == 10
    with pytest.raises(ValueError):
        sample_erdos_renyi(4, 7, rng)


def test_erdos_renyi_is_uniform_over_edge_sets():
    # n=4, m=2: all C(6,2)=15 graphs equally likely
    rng = np.random.default_rng(77)
    draws = 60_000
    freq = Counter(sample_erdos_renyi(4, 2, rng).edges for _ in range(draws))
    assert len(freq) == 15
    expected = draws / 15
    stat = sum((count - expected) ** 2 / expected for count in freq.values())
    assert stat < chi2.ppf(0.999, df=14)


def test_degree_histogram_batches_exact_small_case():
    # n=3, m=1: every graph is one edge + one isolated node
    rng = np.random.default_rng(5)
    for hist in iter_er_degree_histograms(3, 1, 1000, rng):
        assert np.all(hist[:, 0] == 1) and np.all(hist[:, 1] == 2)


def test_degree_histogram_batches_match_per_graph_sampler():
    """The batched kernel and the one-graph sampler describe the same law:
    n=4, m=2 has two isomorphism shapes, 3/15 disjoint and 12/15 sharing a
    node."""
    rng = np.random.default_rng(6)
    total = 0
    disjoint = 0
    for hist in iter_er_degree_histograms(4, 2, 200_000, rng):
        assert np.all(hist.sum(axis=1) == 4)
        assert np.all(hist @ np.arange(4) == 4)  # sum of degrees = 2m
        disjoint += int(np.sum(hist[:, 1] == 4))
        total += hist.shape[0]
    p_hat = disjoint / total
    p_true = 3 / 15
    assert abs(p_hat - p_true) < 4 * math.sqrt(p_true * (1 - p_true) / total)


def test_degree_histogram_law_in_the_dense_regime():
    """n=6, m=12 (12 of the 15 pairs): chi-square of the sampled degree
    histograms against the census of all C(15, 12) = 455 graphs, below the
    99.9% quantile."""
    n, m, draws = 6, 12, 100_000
    census = Counter()
    for edges in itertools.combinations(itertools.combinations(range(n), 2), m):
        degree = Counter(v for e in edges for v in e)
        census[tuple(sorted(Counter(degree[v] for v in range(n)).items()))] += 1
    assert sum(census.values()) == math.comb(15, 12)
    freq = Counter()
    for hist in iter_er_degree_histograms(n, m, draws, np.random.default_rng(12)):
        freq.update(tuple((k, c) for k, c in enumerate(row) if c) for row in hist.tolist())
    assert set(freq) <= set(census)
    stat = sum((freq[key] - draws * count / 455) ** 2 / (draws * count / 455)
               for key, count in census.items())
    assert stat < chi2.ppf(0.999, df=len(census) - 1)


def test_batch_size_moves_rows_but_not_the_draws(monkeypatch):
    """Every redraw pass draws exactly the missing rows, so the batch size
    changes the order of the yielded graphs but not which graphs they are."""
    def sorted_rows(n, m, count):
        hist = np.concatenate(list(iter_er_degree_histograms(
            n, m, count, np.random.default_rng(3))))
        return hist[np.lexsort(hist.T[::-1])]

    cases = [(6, 12, 5000), (30, 60, 2000)]
    default = [sorted_rows(*case) for case in cases]
    monkeypatch.setattr(sampler, "BATCH_ENTRIES", 100)
    for case, rows in zip(cases, default):
        assert np.array_equal(sorted_rows(*case), rows)


def test_degree_histogram_m_zero():
    for hist in iter_er_degree_histograms(5, 0, 10, np.random.default_rng(1)):
        assert np.all(hist[:, 0] == 5)


def test_locality_measure_converges_to_reference_law():
    """Along the binary cross family the empirical locality measure
    approaches the product-Poisson reference: mean TV over 20 seeds at
    n=1000 stays below 0.05."""
    n = 1000
    spec = binary_cross_spec(n)
    reference = ReferenceLaw(spec.type_law, spec.link_law)
    truncated = reference.truncated(12)  # row sums are 1; tail < 1e-12
    sampler = ConditionalSampler(spec)
    distances = []
    for seed in range(20):
        z = sampler.sample(np.random.default_rng(seed))
        distances.append(float(total_variation(empirical_locality_measure(z), truncated)))
    assert np.mean(distances) <= 0.05


@pytest.mark.parametrize("n, m, message", [
    (5, 25, "capacity is 10"), (5, -1, "not G(5, -1)"), (0, 0, "not G(0, 0)")])
def test_impossible_erdos_renyi_is_refused_by_its_one_check(n, m, message):
    """G(n, m) single draws and degree histograms share one check, the spec
    analysis of ``_erdos_renyi_sampler``."""
    with pytest.raises(InadmissibleSpecError, match=re.escape(message)):
        sample_erdos_renyi(n, m, np.random.default_rng(0))
    with pytest.raises(InadmissibleSpecError, match=re.escape(message)):
        next(iter_er_degree_histograms(n, m, 1, np.random.default_rng(0)))


def test_block_pairs_returns_fresh_arrays():
    """``_Block.pairs`` returns fresh arrays: the indices it was given stay as
    they were, and callers (the degree histograms) may shift its output in
    place."""
    for block in ConditionalSampler(three_type_spec5()).blocks:
        idx = np.arange(block.capacity, dtype=np.int64)
        u, v = block.pairs(idx)
        assert np.array_equal(idx, np.arange(block.capacity))
        assert not (np.shares_memory(u, idx) or np.shares_memory(v, idx)
                    or np.shares_memory(u, v))
        assert np.all(u >= block.a_start) and np.all(v >= block.b_start)


def test_sample_batch_returns_fresh_arrays():
    """The degree histograms shift ``sample_batch``'s arrays in place, so
    they must be writeable and share no memory."""
    for spec in (single_type_spec4(), binary_cross_spec(4), three_type_spec5()):
        u, v = ConditionalSampler(spec).sample_batch(np.random.default_rng(1), 3)
        assert u.flags.writeable and v.flags.writeable and not np.shares_memory(u, v)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ConditionalSampler(ConditionSpec(4, ProbMeasure({"a": Fraction(1, 3),
                                                              "b": Fraction(2, 3)}),
                                              FiniteMeasure({}))),
     InadmissibleSpecError, "n*eta(a) = 4/3 is not an integer"),
    (lambda: ConditionSpec.from_json_dict({"n": 4, "eta": {"a": 1}}),
     ValueError, "missing field 'pi'"),
    (lambda: binary_cross_spec(5), ValueError, "binary cross family needs even n"),
], ids=["exact-count-not-integral", "spec-missing-field", "odd-binary-cross"])
def test_bad_inputs_raise_naming_the_problem(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
