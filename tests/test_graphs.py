"""Typed graphs and their empirical distributions (all exact rationals)."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphld.graphs import TypedGraph, empirical_locality_measure, locality_atoms_of
from graphld.measures import (CountingMeasure, FiniteMeasure, ProbMeasure, degree_marginal, dirac,
                              link_marginal, type_marginal)
from helpers import LABELS, random_typed_graph
from oracles import (degree_distribution, empirical_link_measure, empirical_type_measure,
                     per_node_locality_atoms)


def type_law(z):
    return type_marginal(empirical_locality_measure(z))


def link_law(z):
    return link_marginal(empirical_locality_measure(z))


def degree_law(z):
    return degree_marginal(empirical_locality_measure(z))


def atom(a, counts):
    return (a, CountingMeasure(counts))


def test_graph_validation():
    with pytest.raises(ValueError):
        TypedGraph([], [])
    with pytest.raises(ValueError):
        TypedGraph(["a", "a"], [(1, 1)])  # self-loop
    with pytest.raises(ValueError):
        TypedGraph(["a", "a"], [(1, 3)])  # out of range
    z = TypedGraph(["a", "a"], [(2, 1), (1, 2)])  # normalized and de-duplicated
    assert z.edges == frozenset({(1, 2)})


@pytest.mark.parametrize("node", [0, 2, 4], ids=["first", "middle", "last"])
def test_graph_refuses_an_invalid_label_at_any_node(node):
    """Each distinct label is checked once, wherever its nodes are."""
    types = ["a", "b", "a", "b", "a"]
    types[node] = "bad label"
    with pytest.raises(ValueError, match=re.escape("invalid type label 'bad label'")):
        TypedGraph(types, [(1, 2)])


def test_empirical_type_measure():
    z = TypedGraph(["a", "a", "b", "b"], [(1, 3), (2, 4)])
    assert type_law(z) == ProbMeasure({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    assert type_law(TypedGraph(["a"] * 3, [])) == dirac("a")
    z3 = TypedGraph(["a", "b", "b"], [])
    assert type_law(z3) == ProbMeasure({"a": Fraction(1, 3), "b": Fraction(2, 3)})


def test_empirical_link_measure():
    z = TypedGraph(["a", "a", "b", "b"], [(1, 3), (2, 4)])
    assert link_law(z) == FiniteMeasure(
        {("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(1, 2)})
    assert link_law(TypedGraph(["a", "b"], [])) == FiniteMeasure({})
    # ordered-pair convention: a single (a,a) edge on n=2 has total mass 2*1/2 = 1
    z2 = TypedGraph(["a", "a"], [(1, 2)])
    assert link_law(z2) == FiniteMeasure({("a", "a"): 1})


def test_empirical_locality_measure():
    z = TypedGraph(["a", "a", "b", "b"], [(1, 3), (2, 4)])
    assert empirical_locality_measure(z) == ProbMeasure({
        atom("a", {"b": 1}): Fraction(1, 2),
        atom("b", {"a": 1}): Fraction(1, 2),
    })
    z2 = TypedGraph(["a", "a", "b", "b"], [(1, 3), (1, 4)])
    assert empirical_locality_measure(z2) == ProbMeasure({
        atom("a", {"b": 2}): Fraction(1, 4),
        atom("a", {}): Fraction(1, 4),
        atom("b", {"a": 1}): Fraction(1, 2),
    })
    z3 = TypedGraph(["a"] * 4, [])
    assert empirical_locality_measure(z3) == dirac(atom("a", {}))


def test_degree_distribution():
    cycle = TypedGraph(["a"] * 4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert degree_law(cycle) == dirac(2)
    assert degree_law(TypedGraph(["a"] * 5, [])) == dirac(0)
    path = TypedGraph(["a"] * 3, [(1, 2), (2, 3)])
    dist = degree_law(path)
    assert dist == ProbMeasure({1: Fraction(2, 3), 2: Fraction(1, 3)})
    # mean identity: mean = 4/3 = 2|E|/n
    mean = sum(k * w for k, w in dist.items())
    assert mean == Fraction(2 * len(path.edges), path.n)


def test_degree_mean_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = random_typed_graph(rng, max_n=30)
        dist = degree_law(z)
        assert sum(k * w for k, w in dist.items()) == Fraction(2 * len(z.edges), z.n)


def test_marginals_of_locality_measure_match_empirical_pair():
    """The type, link and degree marginals of the locality measure are
    exactly the laws that walking the graph's nodes and edges gives, in
    rational arithmetic: equal values, class, key order and JSON.  Edgeless
    graphs and graphs with isolated nodes included."""
    rng = np.random.default_rng(11)
    graphs = [random_typed_graph(rng, max_n=12, max_types=3, edge_prob=float(rng.random()))
              for _ in range(300)]
    graphs += [TypedGraph(["a", "b", "c"], []),
               TypedGraph(["a", "a", "b", "b", "c", "c"], [(1, 2), (1, 3), (2, 5), (3, 4)])]
    assert any(not z.edges for z in graphs[:-2])
    for z in graphs:
        locality = empirical_locality_measure(z)
        pairs = [(type_marginal(locality), empirical_type_measure(z)),
                 (link_marginal(locality), empirical_link_measure(z)),
                 (degree_marginal(locality), degree_distribution(z))]
        for marginal, walked in pairs:
            assert marginal == walked and type(marginal) is type(walked)
            assert marginal.items() == walked.items()
            assert list(marginal.to_json_dict().items()) == list(walked.to_json_dict().items())


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 40), num_labels=st.integers(1, 4),
       density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       idle=st.sampled_from(["none", "first", "last", "both"]),
       seed=st.integers(0, 2**32 - 1))
def test_locality_atoms_of_matches_the_per_node_walk(n, num_labels, density, idle, seed):
    """The walk over touched nodes gives the key of a neighbour count of
    every node, from edgeless to complete graphs, with the first or last node
    kept untouched, edges in any order and orientation, types a list or a
    tuple."""
    rng = np.random.default_rng(seed)
    types = [LABELS[i] for i in rng.integers(0, num_labels, size=n)]
    untouched = {"none": set(), "first": {1}, "last": {n}, "both": {1, n}}[idle]
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if u not in untouched and v not in untouched]
    kept = rng.random(len(pairs)) < density
    edges = [(v, u) if flip else (u, v)
             for (u, v), keep, flip in zip(pairs, kept, rng.random(len(pairs)) < 0.5) if keep]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    expected = per_node_locality_atoms(types, edges)
    assert locality_atoms_of(types, edges) == expected
    assert locality_atoms_of(tuple(types), iter(edges)) == expected
    assert sum(count for _, count in expected) == n


def test_single_type_locality_equals_degree_law():
    # on one type, (a, {a:k}) <-> k is a weight-preserving bijection
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = random_typed_graph(rng, max_types=1)
        locality = empirical_locality_measure(z)
        degrees = degree_distribution(z)
        assert len(locality) == len(degrees)
        for (label, counts), w in locality.items():
            assert label == "a"
            assert degrees(counts("a")) == w


def test_text_format_round_trip():
    z = TypedGraph(["b", "a", "a"], [(2, 3), (1, 2)])
    text = z.to_text()
    assert text == "typedgraph v1\nn=3\ntypes=b a a\ne 1 2\ne 2 3\n"
    assert TypedGraph.from_text(text) == z


def test_text_format_errors():
    with pytest.raises(ValueError, match="typedgraph v1"):
        TypedGraph.from_text("graph\nn=1\ntypes=a\n")
    with pytest.raises(ValueError, match="expected 2 type labels"):
        TypedGraph.from_text("typedgraph v1\nn=2\ntypes=a\n")
    with pytest.raises(ValueError, match="u < v"):
        TypedGraph.from_text("typedgraph v1\nn=2\ntypes=a a\ne 2 1\n")


@pytest.mark.parametrize("text, error", [
    ("typedgraph v1\nnodes=2\ntypes=a a\n", "line 2 must be 'n=<int>'"),
    ("typedgraph v1\n\nn=2\nlabels=a a\n", "line 4 must be 'types=<labels>'"),
    ("typedgraph v1\n\nn=0_3\ntypes=a a a\n", "line 3 must be 'n=<int>'"),
    ("typedgraph v1\n\nn=x\ntypes=a a a\n", "line 3 must be 'n=<int>'"),
    ("typedgraph v1\n\nn=-1\ntypes=a a a\n", "line 3 must be 'n=<int>'"),
    ("typedgraph v1\n\nn=3\ntypes=a  a\ta\n", "invalid type label ''"),
    ("typedgraph v1\nn=3\ntypes=a  a\ta\n", "line 3: invalid type label ''"),
])
def test_text_format_header_line_errors(text, error):
    """``int`` read ``n=0_3`` as 3, ``n=x`` failed with no line named, and
    ``n=-1`` ended in "expected -1 type labels".  Labels are split on single
    spaces, as ``to_text`` writes them: ``a  a<TAB>a`` loaded as three.  A
    bad label names its line, as the other header errors do."""
    with pytest.raises(ValueError, match=re.escape(error)):
        TypedGraph.from_text(text)


def test_text_format_rejects_a_repeated_edge_line():
    """Four edge lines, one of them repeated, would load as three edges."""
    text = "typedgraph v1\nn=4\ntypes=a a a a\ne 1 2\ne 2 3\ne 1 2\ne 3 4\n"
    with pytest.raises(ValueError, match=r"line 6: repeated edge 1 2"):
        TypedGraph.from_text(text)
    assert len(TypedGraph.from_text(text.replace("e 1 2\ne 3 4", "e 1 4\ne 3 4")).edges) == 4


@pytest.mark.parametrize("body, error", [
    ("e 1 2\ne 1 2\n", "line 7: repeated edge 1 2"),
    ("e 1 2\n\ne 3 2\n", "line 8: edge must satisfy u < v"),
    ("e 1 2\nedge 2 3\n", "line 7: expected 'e <u> <v>'"),
    ("e 1 \u0663\n", "line 6: expected 'e <u> <v>', got 'e 1 \u0663'"),
    ("e 1 2\ne 1 x\n", "line 7: expected 'e <u> <v>', got 'e 1 x'"),
    ("e  1\t2\n", "line 6: expected 'e <u> <v>', got 'e  1\\t2'"),
    ("e 1 2 \n", "line 6: expected 'e <u> <v>', got 'e 1 2 '"),
    ("e 1 2\ne 0 2\n", "line 7: edge (0, 2) out of node range 1..3"),
    ("e 2 4\n", "line 6: edge (2, 4) out of node range 1..3"),
])
def test_text_format_errors_count_blank_lines(body, error):
    """An error names its line as the file numbers it, blank lines included.
    An endpoint is read by the one integer rule: ``int`` read the
    Arabic-Indic 3 as 3 and failed on ``x`` with no line named.  An edge line
    is split on single spaces, as ``to_text`` writes it (``e  1<TAB>2``
    loaded as the edge (1, 2)), and an endpoint outside 1..n names its line."""
    with pytest.raises(ValueError, match=re.escape(error)):
        TypedGraph.from_text("typedgraph v1\n\nn=3\ntypes=a a a\n\n" + body)
