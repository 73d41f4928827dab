"""Exact enumeration, type classes, event probabilities, exponent gaps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from graphld.graphs import empirical_locality_measure, locality_atoms_of
from graphld.measures import (
    CountingMeasure,
    FiniteMeasure,
    ProbMeasure,
    dirac,
    encode_atom_counts,
    encode_measure,
    link_marginal,
    type_marginal,
)
from graphld.oracle import (
    EnumerationGuardError,
    _row_ids,
    enumerate_support,
    exact_event_probability,
    lldp_exponent_gap,
    sampled_class_counts,
    type_class_counts,
)
from graphld.rate import ReferenceLaw, relative_entropy
from graphld.sampler import ConditionalSampler, ConditionSpec, InadmissibleSpecError, \
    binary_cross_spec
from helpers import class_keys, prefix_label_spec, single_type_spec4, three_type_spec5
from oracles import (class_measure, entropy_neighborhood, lexsort_row_ids,
                     per_graph_event_probability)


def atom(a, counts):
    return (a, CountingMeasure(counts))


def matching_measure():
    return ProbMeasure({atom("a", {"b": 1}): Fraction(1, 2),
                        atom("b", {"a": 1}): Fraction(1, 2)})


def single_type_spec(n, edges):
    return ConditionSpec(n, dirac("a"),
                         FiniteMeasure({("a", "a"): Fraction(2 * edges, n)}))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_binary_cross_support():
    spec = binary_cross_spec(4)
    graphs = list(enumerate_support(spec))
    assert len(graphs) == 6  # C(4, 2) placements of 2 cross links
    assert len({g.edges for g in graphs}) == 6  # all distinct
    for g in graphs:
        locality = empirical_locality_measure(g)
        assert (type_marginal(locality), link_marginal(locality)) == \
            (spec.type_law, spec.link_law)


def test_enumerate_degenerate_supports():
    edgeless = ConditionSpec(3, ProbMeasure({"a": Fraction(2, 3), "b": Fraction(1, 3)}),
                             FiniteMeasure({}))
    assert len(list(enumerate_support(edgeless))) == 1
    one_edge = single_type_spec(2, 1)
    graphs = list(enumerate_support(one_edge))
    assert len(graphs) == 1 and graphs[0].edges == frozenset({(1, 2)})


def test_enumeration_guard():
    # single type, n=60, 15 links: C(1770, 15) blows through 1e8
    spec = single_type_spec(60, 15)
    with pytest.raises(EnumerationGuardError, match="100000000"):
        list(enumerate_support(spec))
    with pytest.raises(EnumerationGuardError, match="Monte Carlo"):
        type_class_counts(spec)


def test_support_size_matches_enumeration():
    for spec in (binary_cross_spec(4), binary_cross_spec(6), single_type_spec(4, 3)):
        assert type_class_counts(spec).support_size == len(list(enumerate_support(spec)))


# ---------------------------------------------------------------------------
# Type classes
# ---------------------------------------------------------------------------

def test_binary_cross_type_classes():
    """The 6-graph support splits into three classes of 2: both links at one
    a-node, both at one b-node, and the perfect matchings."""
    report = type_class_counts(binary_cross_spec(4))
    assert report.support_size == 6
    assert sorted(report.class_counts.values()) == [2, 2, 2]
    assert sum(report.class_counts.values()) == report.support_size
    matching_key = encode_measure(matching_measure())
    assert report.class_counts[matching_key] == 2
    assert Fraction(report.class_counts[matching_key], report.support_size) == Fraction(1, 3)


def test_zero_link_spec_single_class():
    spec = ConditionSpec(4, ProbMeasure({"a": 0.5, "b": 0.5}), FiniteMeasure({}))
    report = type_class_counts(spec)
    assert report.support_size == 1
    only = ProbMeasure({atom("a", {}): Fraction(1, 2), atom("b", {}): Fraction(1, 2)})
    assert report.class_counts == {encode_measure(only): 1}


def test_exact_event_probability():
    spec = binary_cross_spec(4)
    assert exact_event_probability(spec, lambda mu: True) == 1
    target = matching_measure()
    assert exact_event_probability(spec, lambda mu: mu == target) == Fraction(1, 3)


def test_counting_identity():
    # event probability times support size recovers the class count exactly
    spec = binary_cross_spec(6)
    report = type_class_counts(spec)
    target = matching_measure()
    prob = exact_event_probability(spec, lambda mu: mu == target)
    assert prob * report.support_size == report.class_counts[encode_measure(target)]


@pytest.mark.parametrize(
    "spec", [binary_cross_spec(4), binary_cross_spec(6), binary_cross_spec(8),
             single_type_spec4(), three_type_spec5(), prefix_label_spec()],
    ids=["binary4", "binary6", "binary8", "single4", "three5", "a-ab"])
def test_event_probability_per_class_equals_the_per_graph_loop(spec):
    """Three events -- the whole support, the last graph's class, and an
    entropy neighborhood of that class -- against the event tested graph by
    graph; the event is called once on each class's measure."""
    last = empirical_locality_measure(list(enumerate_support(spec))[-1])
    events = [lambda mu: True, lambda mu: mu == last,
              entropy_neighborhood(last, spec.type_law, spec.link_law, eps=0.5)]
    classes = type_class_counts(spec).class_counts
    for event in events:
        seen = []

        def counted(mu):
            seen.append(encode_measure(mu))
            return event(mu)
        assert exact_event_probability(spec, counted) == per_graph_event_probability(spec, event)
        assert sorted(seen) == sorted(classes)


# ---------------------------------------------------------------------------
# Entropy neighborhoods
# ---------------------------------------------------------------------------

def test_entropy_neighborhood_contains_center():
    spec = binary_cross_spec(4)
    p = matching_measure()
    in_b = entropy_neighborhood(p, spec.type_law, spec.link_law, eps=1e-3)
    assert in_b(p)


def test_entropy_neighborhood_excludes_low_entropy_measures():
    spec = binary_cross_spec(4)
    p = matching_measure()
    reference = ReferenceLaw(spec.type_law, spec.link_law)
    # a near-copy of the reference has entropy ~0 < H(p||q) - eps/2
    mu = reference.truncated(10)
    assert relative_entropy(p, reference) > 0.5
    in_b = entropy_neighborhood(p, spec.type_law, spec.link_law, eps=1e-3)
    assert not in_b(mu)


def test_entropy_neighborhood_event_probability():
    """At small eps only the matching class itself reaches the neighborhood:
    its entropy is 1 while the other two classes sit at 1 - log(2)/4."""
    spec = binary_cross_spec(4)
    p = matching_measure()
    reference = ReferenceLaw(spec.type_law, spec.link_law)
    seen = {}
    for g in enumerate_support(spec):
        mu = empirical_locality_measure(g)
        seen[encode_measure(mu)] = relative_entropy(mu, reference)
    assert seen[encode_measure(p)] == pytest.approx(1.0, abs=1e-12)
    others = [v for k, v in seen.items() if k != encode_measure(p)]
    assert all(v == pytest.approx(1 - math.log(2) / 4, abs=1e-12) for v in others)
    in_b = entropy_neighborhood(p, spec.type_law, spec.link_law, eps=1e-3)
    assert exact_event_probability(spec, in_b) == Fraction(1, 3)


# ---------------------------------------------------------------------------
# Exponent gaps
# ---------------------------------------------------------------------------

def test_exponent_gap_closed_forms_on_binary_family():
    """Independent arithmetic: support C((n/2)^2, n/2), matching class
    (n/2)!, reference entropy exactly 1."""
    specs = [binary_cross_spec(n) for n in (4, 6, 8)]
    gaps = lldp_exponent_gap(specs, matching_measure())
    for (n, gap) in gaps:
        half = n // 2
        count = math.factorial(half)
        support = math.comb(half * half, half)
        expected = abs(-(math.log(count) - math.log(support)) / n - 1.0)
        assert gap == pytest.approx(expected, abs=1e-12)
    assert gaps[0][1] > gaps[1][1] > gaps[2][1]  # shrinks along the family


def test_exponent_gap_single_type_one_edge():
    # support is one graph, probability 1: gap = H(p_2 || q_2) = 1
    spec = single_type_spec(2, 1)
    target = dirac(atom("a", {"a": 1}))
    [(n, gap)] = lldp_exponent_gap([spec], target)
    assert n == 2
    assert gap == pytest.approx(1.0, abs=1e-12)


def test_exponent_gap_zero_for_edgeless_family():
    specs = [ConditionSpec(n, dirac("a"), FiniteMeasure({})) for n in (3, 5)]
    for (n, gap) in lldp_exponent_gap(specs, dirac(atom("a", {}))):
        assert gap == 0.0


def test_exponent_gap_reads_float_target_weights_as_counts():
    """A float weight w names the class of the count n w at each n: 0.5 reads
    as 1/2, as in the exact matching measure."""
    specs = [binary_cross_spec(n) for n in (4, 6)]
    floats = ProbMeasure({atom("a", {"b": 1}): 0.5, atom("b", {"a": 1}): 0.5})
    assert lldp_exponent_gap(specs, floats) == lldp_exponent_gap(specs, matching_measure())
    uneven = ProbMeasure({atom("a", {"b": 1}): 0.6, atom("b", {"a": 1}): 0.4})
    with pytest.raises(InadmissibleSpecError, match="not an integer"):
        lldp_exponent_gap(specs[:1], uneven)


def test_exponent_gap_empty_class_raises():
    with pytest.raises(ValueError, match="empty"):
        lldp_exponent_gap([binary_cross_spec(4)], dirac(atom("a", {"b": 2})))


# ---------------------------------------------------------------------------
# Sampler agreement
# ---------------------------------------------------------------------------

def test_sampled_class_frequencies_match_exact_probabilities():
    spec = binary_cross_spec(4)
    report = type_class_counts(spec)
    draws = 100_000
    counts = sampled_class_counts(spec, draws, np.random.default_rng(314))
    assert sum(counts.values()) == draws
    for key, count in report.class_counts.items():
        p = count / report.support_size
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(counts.get(key, 0) / draws - p) <= 4 * se


PINNED_CENSUS = {
    "three5": [
        ("a|a:1,b:2=1/5; a|a:1,c:1=1/5; b|a:1=1/5; b|a:1,c:1=1/5; c|a:1,b:1=1/5", 176),
        ("a|a:1,b:1=1/5; a|a:1,b:1,c:1=1/5; b|a:2=1/5; b|c:1=1/5; c|a:1,b:1=1/5", 177),
        ("a|a:1,b:1=1/5; a|a:1,b:1,c:1=1/5; b|a:1=1/5; b|a:1,c:1=1/5; c|a:1,b:1=1/5", 322),
        ("a|a:1,b:1=1/5; a|a:1,b:1,c:1=1/5; b|=1/5; b|a:2,c:1=1/5; c|a:1,b:1=1/5", 149),
        ("a|a:1=1/5; a|a:1,b:2,c:1=1/5; b|a:1=1/5; b|a:1,c:1=1/5; c|a:1,b:1=1/5", 176),
    ],
    "binary8": [
        ("a|b:1=1/2; b|a:1=1/2", 12),
        ("a|b:1=1/2; b|=1/8; b|a:1=1/4; b|a:2=1/8", 82),
        ("a|b:1=1/2; b|=1/4; b|a:2=1/4", 25),
        ("a|b:1=1/2; b|=1/4; b|a:1=1/8; b|a:3=1/8", 27),
        ("a|b:1=1/2; b|=3/8; b|a:4=1/8", 2),
        ("a|=1/8; a|b:1=1/4; a|b:2=1/8; b|a:1=1/2", 69),
        ("a|=1/8; a|b:1=1/4; a|b:2=1/8; b|=1/8; b|a:1=1/4; b|a:2=1/8", 385),
        ("a|=1/8; a|b:1=1/4; a|b:2=1/8; b|=1/4; b|a:2=1/4", 88),
        ("a|=1/8; a|b:1=1/4; a|b:2=1/8; b|=1/4; b|a:1=1/8; b|a:3=1/8", 78),
        ("a|=1/4; a|b:2=1/4; b|a:1=1/2", 19),
        ("a|=1/4; a|b:2=1/4; b|=1/8; b|a:1=1/4; b|a:2=1/8", 87),
        ("a|=1/4; a|b:2=1/4; b|=1/4; b|a:2=1/4", 18),
        ("a|=1/4; a|b:1=1/8; a|b:3=1/8; b|a:1=1/2", 29),
        ("a|=1/4; a|b:1=1/8; a|b:3=1/8; b|=1/8; b|a:1=1/4; b|a:2=1/8", 75),
        ("a|=3/8; a|b:4=1/8; b|a:1=1/2", 4),
    ],
    "single4": [
        ("a|a:1=1/2; a|a:2=1/2", 1535),
        ("a|=1/4; a|a:2=3/4", 484),
        ("a|a:1=3/4; a|a:3=1/4", 481),
    ],
}


@pytest.mark.parametrize("name, spec, draws", [("three5", three_type_spec5(), 1000),
                                               ("binary8", binary_cross_spec(8), 1000),
                                               ("single4", single_type_spec4(), 2500)],
                         ids=["three5", "binary8", "single4"])
def test_sampled_class_counts_are_pinned(name, spec, draws):
    """Seeded class counts, items and order, over more than one batch (819,
    682 and 2,048 draws a batch): the draws, their batch boundaries and the
    order in which classes first appear are all part of the output."""
    counts = sampled_class_counts(spec, draws, np.random.default_rng(8))
    assert list(counts.items()) == PINNED_CENSUS[name]


@pytest.mark.parametrize("spec", [binary_cross_spec(4), binary_cross_spec(6), binary_cross_spec(8),
                                  single_type_spec4(), three_type_spec5()],
                         ids=["binary4", "binary6", "binary8", "single4", "three5"])
def test_batched_class_keys_equal_the_per_graph_key(spec):
    """``_class_keys`` on the whole support, as one batch in
    ``sample_batch`` form, against ``locality_atoms_of`` graph by graph."""
    sampler = ConditionalSampler(spec)
    graphs = [sorted(graph.edges) for graph in enumerate_support(spec)]
    edges = np.array(graphs, dtype=np.int64).reshape(len(graphs), -1, 2)
    keys, class_ids = class_keys(sampler.types, edges[:, :, 0], edges[:, :, 1])
    assert len(set(keys)) == len(keys)
    assert [keys[i] for i in class_ids.tolist()] == \
        [locality_atoms_of(sampler.types, graph) for graph in graphs]


def test_batched_class_keys_of_wide_atoms_equal_the_per_graph_key():
    """16 types of 2 nodes in a ring of 2-edge blocks: 17 atom columns, as
    many as t * n**t = 2**84 atom values would need."""
    labels = [f"t{i:02d}" for i in range(16)]
    pi = {}
    for a, b in zip(labels, labels[1:] + labels[:1]):
        pi[(a, b)] = pi[(b, a)] = Fraction(2, 32)
    spec = ConditionSpec(32, ProbMeasure({a: Fraction(1, 16) for a in labels}), FiniteMeasure(pi))
    sampler = ConditionalSampler(spec)
    u, v = sampler.sample_batch(np.random.default_rng(16), 50)
    keys, class_ids = class_keys(sampler.types, u, v)
    assert len(keys) > 1
    assert [keys[i] for i in class_ids.tolist()] == \
        [locality_atoms_of(sampler.types, zip(r, s)) for r, s in zip(u.tolist(), v.tolist())]


# ---------------------------------------------------------------------------
# Class census internals against their slow references
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_ids_equal_the_lexsort_reference(data):
    """Packed keys number distinct rows exactly as ``np.lexsort`` does; two
    2**40-wide columns overflow a plain mixed-radix key and re-rank it, and
    1,000 rows and more add 10 to 12 row-index bits to the key's width."""
    width = data.draw(st.sampled_from([1, 3, 1000, 2**40]))
    cols = data.draw(st.integers(1, 6))
    # values spread over the whole width as well as hypothesis's small ones
    elements = st.one_of(st.integers(-width, width),
                         st.integers(-4, 4).map(lambda k: k * width // 4))
    distinct = data.draw(arrays(np.int64, (data.draw(st.integers(1, 8)), cols),
                                elements=elements))
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    size = data.draw(st.sampled_from([len(picks), 1000, 1025, 4000]))
    rows = distinct[np.resize(picks, size)]
    np.random.default_rng(data.draw(st.integers(0, 2**32))).shuffle(rows)
    ids, first = _row_ids(rows)
    expected_ids, expected_first = lexsort_row_ids(rows)
    assert ids.tolist() == expected_ids.tolist()
    assert first.tolist() == expected_first.tolist()


@pytest.mark.parametrize("radix", [1023, 1024, 2**12])
def test_row_ids_re_rank_where_the_row_bits_would_overflow_the_key(radix):
    """1,500 rows take 11 row-index bits.  A 2**41 + 1 radix column and a
    ``radix`` column span (2**41 + 1) * radix, below 2**62; shifted by 11
    bits that reaches 2**62 from radix 1024 on, which re-ranks the key, and
    would overflow int64 at 2**12 without the re-rank."""
    rng = np.random.default_rng(radix)
    rows = np.column_stack([rng.choice([-2**40, 0, 2**40], 1500), rng.choice([0, radix - 1], 1500)])
    ids, first = _row_ids(rows)
    expected_ids, expected_first = lexsort_row_ids(rows)
    assert ids.tolist() == expected_ids.tolist()
    assert first.tolist() == expected_first.tolist()


def test_row_ids_refuse_a_column_too_wide_for_the_row_bits():
    """2**21 + 1 rows take 22 row-index bits; a 2**41 + 1 radix column
    shifted by them reaches 2**62 even after a re-rank, and would overflow."""
    rows = np.zeros((2**21 + 1, 1), dtype=np.int64)
    rows[::2] = 2**41
    with pytest.raises(ValueError, match="overflow"):
        _row_ids(rows)


@pytest.mark.parametrize("rows", [[[7]], [[3, -2, 2**40]], [[3], [1], [3], [2**40], [1]]],
                         ids=["one-cell", "one-row", "one-column"])
def test_row_ids_of_one_row_and_one_column(rows):
    rows = np.array(rows, dtype=np.int64)
    ids, first = _row_ids(rows)
    expected_ids, expected_first = lexsort_row_ids(rows)
    assert ids.tolist() == expected_ids.tolist()
    assert first.tolist() == expected_first.tolist()


@pytest.mark.parametrize("spec", [single_type_spec4(), three_type_spec5(), binary_cross_spec(8),
                                  prefix_label_spec()],
                         ids=["single4", "three5", "binary8", "a-ab"])
def test_class_text_names_every_class_of_the_support(spec):
    """``type_class_counts`` against the census of ``encode_measure`` of
    each graph's rebuilt class measure, dict order included."""
    sampler = ConditionalSampler(spec)
    expected = {}
    for graph in enumerate_support(spec):
        key = locality_atoms_of(sampler.types, graph.edges)
        text = encode_measure(class_measure(spec.n, key))
        assert encode_atom_counts(spec.n, key) == text
        expected[text] = expected.get(text, 0) + 1
    assert list(type_class_counts(spec).class_counts.items()) == list(expected.items())
    sampled = sampled_class_counts(spec, 2000, np.random.default_rng(5))
    assert set(sampled) <= set(expected)


LABELS = ("a", "ab", "A", "Ab", "a0", "a.", "b", "b-c")
ATOMS = st.tuples(
    st.sampled_from(LABELS),
    st.dictionaries(st.sampled_from(LABELS), st.integers(1, 30), max_size=3)
    .map(lambda counts: tuple(sorted(counts.items()))))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(ATOMS, st.integers(1, 12), min_size=1, max_size=6))
def test_class_text_equals_the_encoded_class_measure(census):
    """Mixed-case, prefix-sharing labels and neighbour counts of 10 and more,
    where text order and numeric order part."""
    n = sum(census.values())
    key = tuple(sorted(census.items()))
    assert encode_atom_counts(n, key) == encode_measure(class_measure(n, key))


@pytest.mark.parametrize("eps", [0.0, -1e-3])
def test_entropy_neighborhood_refuses_a_radius_that_is_not_positive(eps):
    spec = binary_cross_spec(4)
    with pytest.raises(ValueError, match="eps must be > 0"):
        entropy_neighborhood(matching_measure(), spec.type_law, spec.link_law, eps=eps)
