"""Measures, marginal maps, consistency checks, total variation."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphld.measures import (
    ConsistencyReport,
    CountingMeasure,
    FiniteMeasure,
    ProbMeasure,
    _sort_key,
    config_float,
    decoded_items,
    dirac,
    encode_key,
    decode_key,
    degree_marginal,
    encode_measure,
    is_sub_consistent,
    link_marginal,
    total_variation,
    type_marginal,
)
from helpers import random_locality_measure

A, B = "a", "b"


def atom(a, counts):
    return (a, CountingMeasure(counts))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def test_counting_measure_canonical():
    e = CountingMeasure({"b": 1, "a": 2, "c": 0})
    assert e.counts == (("a", 2), ("b", 1))  # sorted, zeros dropped
    assert e("a") == 2 and e("c") == 0
    assert e == CountingMeasure([("a", 2), ("b", 1)])
    assert hash(e) == hash(CountingMeasure({"a": 2, "b": 1}))
    assert e.encode() == "a:2,b:1"
    assert CountingMeasure.decode("a:2,b:1") == e
    assert CountingMeasure.decode("") == CountingMeasure()
    with pytest.raises(ValueError):
        CountingMeasure({"a": -1})


def test_key_encoding_round_trip():
    keys = [
        ("a", "type"),
        (3, "degree"),
        (("a", "b"), "pair"),
        (atom("a", {"b": 2}), "locality"),
        (atom("a", {}), "locality"),
    ]
    for key, kind in keys:
        assert decode_key(encode_key(key), kind) == key


def test_prob_measure_validation():
    ProbMeasure({A: 0.5, B: 0.5})
    ProbMeasure({A: Fraction(1, 3), B: Fraction(2, 3)})
    with pytest.raises(ValueError):
        ProbMeasure({A: 0.5, B: 0.6})
    with pytest.raises(ValueError):
        ProbMeasure({A: 1.5, B: -0.5})
    with pytest.raises(TypeError):
        FiniteMeasure({A: 0.5, 3: 0.5})  # mixed key kinds
    # zero weights are dropped, so support is exactly the carried keys
    m = FiniteMeasure({("a", "b"): 1.0, ("b", "a"): 0.0})
    assert m.keys() == (("a", "b"),)


def test_bool_weights_are_refused():
    """A bool is no weight, as it is no count (``config_int``)."""
    for weight in (True, False):
        with pytest.raises(TypeError, match="bool weight"):
            FiniteMeasure({(A, B): weight})
    with pytest.raises(TypeError, match="bool weight"):
        ProbMeasure({A: True})


def test_weights_that_are_not_numbers_are_refused_naming_their_key():
    """A string weight used to fail on ``value < 0`` with Python's own
    comparison message, naming no key."""
    for weight in ("x", "1", None, [1], 1j):
        with pytest.raises(TypeError, match=re.escape(f"weight {weight!r} at key ('a', 'b') "
                                                      "is not a number")):
            FiniteMeasure({(A, B): weight})
    # every real number passes, and a JSON int stays exact
    for weight in (np.float64(0.5), np.int64(2), Fraction(1, 3), 2):
        assert FiniteMeasure({(A, B): weight})((A, B)) == weight
    assert FiniteMeasure({(A, B): 2}).is_exact()


def test_non_finite_weights_are_refused():
    """An infinite weight has no exact fraction for ``encode_measure``."""
    for weight in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite weight"):
            FiniteMeasure({(A, B): weight})


def test_measure_equality_across_numeric_types():
    assert ProbMeasure({A: Fraction(1, 2), B: Fraction(1, 2)}) == \
        ProbMeasure({A: 0.5, B: 0.5})


# ---------------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------------

def test_link_marginal_point_masses():
    # single atom (a, {b:2}) carries weight 2 onto (a, b)
    assert link_marginal(dirac(atom(A, {B: 2}))) == FiniteMeasure({(A, B): 2})
    # empty neighborhood contributes nothing
    assert link_marginal(dirac(atom(A, {}))) == FiniteMeasure({})
    mixed = ProbMeasure({atom(A, {B: 1}): Fraction(1, 2), atom(B, {A: 1}): Fraction(1, 2)})
    assert link_marginal(mixed) == FiniteMeasure(
        {(A, B): Fraction(1, 2), (B, A): Fraction(1, 2)})


def test_type_marginal_point_masses():
    assert type_marginal(dirac(atom(A, {B: 2}))) == dirac(A)
    assert type_marginal(dirac(atom(A, {}))) == dirac(A)
    mixed = ProbMeasure({atom(A, {B: 1}): 0.5, atom(B, {A: 1}): 0.5})
    assert type_marginal(mixed) == ProbMeasure({A: 0.5, B: 0.5})
    three = ProbMeasure({
        atom(A, {B: 2}): Fraction(1, 4),
        atom(A, {}): Fraction(1, 4),
        atom(B, {A: 1}): Fraction(1, 2),
    })
    assert type_marginal(three) == ProbMeasure({A: Fraction(1, 2), B: Fraction(1, 2)})


def test_degree_marginal_point_masses():
    # an atom's degree is its total neighbour count, whatever the types
    assert degree_marginal(dirac(atom(A, {}))) == dirac(0)
    assert degree_marginal(dirac(atom(A, {A: 2, B: 1}))) == dirac(3)
    mixed = ProbMeasure({
        atom(A, {B: 2}): Fraction(1, 4),
        atom(B, {A: 1, B: 1}): Fraction(1, 4),
        atom(B, {A: 1}): Fraction(1, 2),
    })
    assert degree_marginal(mixed) == ProbMeasure({1: Fraction(1, 2), 2: Fraction(1, 2)})


def test_type_marginal_total_mass_random():
    rng = np.random.default_rng(101)
    for _ in range(50):
        p = random_locality_measure(rng)
        assert abs(type_marginal(p).total_mass() - 1) <= 1e-12


def test_link_marginal_is_linear():
    rng = np.random.default_rng(102)
    for _ in range(50):
        p = random_locality_measure(rng)
        q = random_locality_measure(rng)
        alpha = float(rng.random())
        blend = {}
        for key in set(p.keys()) | set(q.keys()):
            blend[key] = alpha * p(key) + (1 - alpha) * q(key)
        left = link_marginal(ProbMeasure(blend))
        right_p, right_q = link_marginal(p), link_marginal(q)
        for key in set(left.keys()) | set(right_p.keys()) | set(right_q.keys()):
            expected = alpha * right_p(key) + (1 - alpha) * right_q(key)
            assert abs(left(key) - expected) <= 1e-10


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------

def test_consistency_equality_case():
    pi = FiniteMeasure({(A, B): 2})
    p = dirac(atom(A, {B: 2}))
    assert link_marginal(p) == pi
    assert is_sub_consistent(pi, p, 0)


def test_sub_consistency_violation_reports_residual():
    pi = FiniteMeasure({(A, B): 1})
    p = dirac(atom(A, {B: 2}))
    report = is_sub_consistent(pi, p, 0)
    assert not report
    assert report.max_residual == 1


def test_sub_consistent_but_not_consistent():
    pi = FiniteMeasure({(A, B): 3})
    p = dirac(atom(A, {B: 2}))
    assert is_sub_consistent(pi, p, 0)
    assert link_marginal(p) != pi


def test_consistent_implies_sub_consistent_random():
    rng = np.random.default_rng(103)
    for _ in range(50):
        p = random_locality_measure(rng)
        pi = link_marginal(p)  # exactly consistent by construction
        assert link_marginal(p) == pi
        assert is_sub_consistent(pi, p, 0)


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------

def test_total_variation_basics():
    mu = ProbMeasure({A: 0.75, B: 0.25})
    uniform = ProbMeasure({A: 0.5, B: 0.5})
    assert total_variation(mu, mu) == 0
    assert total_variation(dirac(A), dirac(B)) == 1
    assert abs(total_variation(mu, uniform) - 0.25) <= 1e-15


def test_total_variation_key_space_mismatch():
    with pytest.raises(TypeError):
        total_variation(dirac(A), dirac(0))


def test_total_variation_is_a_metric_random():
    rng = np.random.default_rng(104)
    for _ in range(50):
        ms = [random_locality_measure(rng, num_atoms=4) for _ in range(3)]
        d01 = total_variation(ms[0], ms[1])
        d10 = total_variation(ms[1], ms[0])
        d12 = total_variation(ms[1], ms[2])
        d02 = total_variation(ms[0], ms[2])
        assert abs(d01 - d10) <= 1e-12
        assert d02 <= d01 + d12 + 1e-12


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_dict_round_trip():
    pi = FiniteMeasure({(A, B): 0.5, (B, A): 0.5})
    assert FiniteMeasure.from_json_dict(pi.to_json_dict(), "pair") == pi


def test_encode_measure_exact_rationals():
    p = ProbMeasure({atom(A, {B: 1}): Fraction(1, 2), atom(B, {A: 1}): Fraction(1, 2)})
    assert encode_measure(p) == "a|b:1=1/2; b|a:1=1/2"


def test_encode_measure_writes_float_weights_as_their_exact_fractions():
    """Equal measures encode identically, whatever their weight types: a
    float is written as the binary fraction it holds."""
    exact = ProbMeasure({atom(A, {B: 1}): Fraction(1, 2), atom(B, {A: 1}): Fraction(1, 2)})
    floats = ProbMeasure({atom(A, {B: 1}): 0.5, atom(B, {A: 1}): 0.5})
    assert encode_measure(floats) == encode_measure(exact) == "a|b:1=1/2; b|a:1=1/2"
    assert encode_measure(ProbMeasure({A: 0.5, B: 0.5})) == "a=1/2; b=1/2"
    assert encode_measure(FiniteMeasure({(A, B): 3.0, (B, A): 3})) == "a,b=3; b,a=3"
    assert encode_measure(FiniteMeasure({0: 0.1})) == "0=3602879701896397/36028797018963968"


# Labels whose text order differs from their tuple order: "a.b|" sorts
# before "a|" as text, "10" before "9", "B" before "_" before "a".
LABELS = st.sampled_from(["a", "a.b", "a-1", "a_", "b", "B", "_", "10", "9"])
KEYS = {
    "type": LABELS,
    "pair": st.tuples(LABELS, LABELS),
    "degree": st.integers(0, 200),
    "locality": st.tuples(LABELS, st.dictionaries(LABELS, st.integers(0, 12), max_size=3)
                          .map(CountingMeasure)),
}
WEIGHTS = st.one_of(st.integers(0, 5), st.fractions(0, 3, max_denominator=7),
                    st.floats(0, 10, allow_nan=False))


def _reads(m):
    """Everything that reads a measure's order, read keys-last."""
    return m.items(), list(m.to_json_dict().items()), encode_measure(m), m.keys()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_measure_order_depends_on_neither_insertion_nor_reads(data):
    """The support is ordered once, on first read: measures of one kind
    built from shuffled dicts, or decoded from a shuffled JSON object, read
    alike whichever read comes first, and ``keys()`` is the support sorted
    by ``_sort_key`` (a locality atom by its text)."""
    kind = data.draw(st.sampled_from(sorted(KEYS)))
    weights = data.draw(st.dictionaries(KEYS[kind], WEIGHTS, max_size=12))
    support = [key for key, w in weights.items() if w != 0]
    measures = [FiniteMeasure(dict(data.draw(st.permutations(list(weights.items())))))
                for _ in range(3)]
    json_dict = {encode_key(key): float(w) for key, w in weights.items()}
    measures.append(FiniteMeasure.from_json_dict(
        dict(data.draw(st.permutations(list(json_dict.items())))), kind))
    keys = tuple(sorted(support, key=_sort_key))
    assert measures[0].keys() == keys  # a first read through keys()
    assert measures[1].items() == tuple((key, weights[key]) for key in keys)  # through items()
    assert encode_measure(measures[2]) == encode_measure(measures[0])  # through the encoder
    assert list(measures[3].to_json_dict().items()) == [(encode_key(key), float(weights[key]))
                                                        for key in keys]  # decoded
    for m in measures:
        assert _reads(m) == _reads(m) and m.keys() == keys  # a second read changes nothing
    assert _reads(measures[1]) == _reads(measures[2]) == _reads(measures[0])


@pytest.mark.parametrize("text, expected", [
    ("a|b:0_2", "malformed counting-measure entry 'b:0_2'"),
    ("a|b:x,:1", "malformed counting-measure entry 'b:x'"),
    ("a|:1,b:x", "malformed counting-measure entry 'b:x'"),
    ("a|b:1,", "malformed counting-measure entry ''"),
    ("ab", "locality key 'ab' missing '|' separator"),
    ("a b|c:1", "invalid type label 'a b' (allowed: [A-Za-z0-9_.-]+)"),
    ("a|b c:1", "invalid type label 'b c' (allowed: [A-Za-z0-9_.-]+)"),
    ("|b:1", "invalid type label '' (allowed: [A-Za-z0-9_.-]+)"),
    ("a|:1", "invalid type label '' (allowed: [A-Za-z0-9_.-]+)"),
    ("a|b", "malformed counting-measure entry 'b'"),
    ("a|b:-1", "count for 'b' must be a non-negative int, got -1"),
], ids=["count-underscore", "bad-count-before-empty-label", "every-count-before-labels",
        "trailing-comma", "missing-bar", "bad-atom-label", "bad-neighbour-label",
        "empty-atom-label", "empty-neighbour-label", "count-without-colon", "negative-count"])
def test_locality_key_reader_refusals(text, expected):
    """The messages of the locality-key reader (``from_json_dict`` through
    ``decode_key`` and ``CountingMeasure.decode``) for each malformed key,
    as the CLI prints them after ``error:``; a key with two faults names the
    first count that fails, before any label."""
    with pytest.raises(ValueError) as caught:
        ProbMeasure.from_json_dict({"b|a:1": 0.5, text: 0.5}, "locality")
    assert str(caught.value) == expected


def test_locality_key_reader_merges_and_refuses_spellings():
    """A repeated neighbour label adds up and a zero count drops, as in
    ``CountingMeasure``; two spellings of one atom are refused."""
    read = ProbMeasure.from_json_dict({"a|b:1,b:2": 0.5, "a|c:0,a:01": 0.5}, "locality")
    assert read.keys() == (atom(A, {A: 1}), atom(A, {B: 3}))
    assert encode_measure(read) == "a|a:1=1/2; a|b:3=1/2"
    with pytest.raises(ValueError) as caught:
        ProbMeasure.from_json_dict({"a|b:1": 0.5, "a|b:01": 0.5}, "locality")
    assert str(caught.value) == "keys 'a|b:1' and 'a|b:01' are the same key"


def test_exact_weights_must_have_mass_exactly_one():
    """``PROB_MASS_TOL`` forgives float mass only: exact weights whose mass
    misses 1 by 1e-13 used to build a measure whose ``total_mass() == 1`` was
    False."""
    near = Fraction(1, 2) + Fraction(1, 10**13)
    with pytest.raises(ValueError, match="sum to 10000000000001/10000000000000, not 1"):
        ProbMeasure({A: Fraction(1, 2), B: near})
    assert ProbMeasure({A: 0.5, B: float(near)}).total_mass() != 1
    assert ProbMeasure({A: Fraction(1, 2), B: Fraction(1, 2)}).total_mass() == 1


@pytest.mark.parametrize("value", [2, -3, 2.5, 0.0, 10**300])
def test_config_float_reads_finite_numbers(value):
    assert config_float(value, "c") == float(value)
    assert type(config_float(value, "c")) is float


@pytest.mark.parametrize("value", [True, False, None, "2.0", [2.0], math.inf, math.nan])
def test_config_float_refuses_the_rest_naming_the_field(value):
    with pytest.raises(ValueError, match=re.escape(f"c = {value!r} is not a finite number")):
        config_float(value, "c")


@pytest.mark.parametrize("value, digits", [(10**400, 401), (-10**400, 401), (10**400 - 1, 400),
                                           (2**1024, 309)])
def test_config_float_refuses_a_huge_int_by_its_digit_count(value, digits):
    """An int beyond the float range is named by its length, not written out."""
    with pytest.raises(ValueError) as caught:
        config_float(value, "c")
    assert str(caught.value) == f"c is an integer of {digits} digits, beyond the float range"


@pytest.mark.parametrize("call, expected", [
    (lambda: is_sub_consistent(FiniteMeasure({(A, B): 1}), dirac(atom(A, {B: 1})), -1e-9),
     ValueError("tol must be >= 0")),
    (lambda: is_sub_consistent(FiniteMeasure({}), dirac(atom(A, {}))),
     ConsistencyReport(True, None)),
    (lambda: list(decoded_items([1], int)), ValueError("expected a JSON object of keys, not [1]")),
    (lambda: FiniteMeasure.from_json_dict("a", "type"),
     ValueError("expected a JSON object of keys, not 'a'")),
    (lambda: CountingMeasure.decode("b:x"), ValueError("malformed counting-measure entry 'b:x'")),
    (lambda: CountingMeasure.decode("b:1_0"),
     ValueError("malformed counting-measure entry 'b:1_0'")),
    (lambda: CountingMeasure.decode("b: 2"), ValueError("malformed counting-measure entry 'b: 2'")),
    (lambda: CountingMeasure.decode("b:+2"), ValueError("malformed counting-measure entry 'b:+2'")),
    (lambda: CountingMeasure.decode("b:\u0663"),
     ValueError("malformed counting-measure entry 'b:\u0663'")),
    (lambda: CountingMeasure.decode("b:-2"),
     ValueError("count for 'b' must be a non-negative int, got -2")),
    (lambda: decode_key("ab", "locality"), ValueError("locality key 'ab' missing '|' separator")),
    (lambda: decode_key("1_0", "degree"),
     ValueError("invalid degree key '1_0' (allowed: -?[0-9]+)")),
    (lambda: FiniteMeasure({1.5: 1}), TypeError("unsupported measure key 1.5")),
], ids=["negative-tol", "nothing-to-compare", "list-as-map", "string-as-map",
        "counting-entry-not-a-count", "counting-entry-underscore", "counting-entry-space",
        "counting-entry-plus", "counting-entry-arabic-indic", "counting-entry-negative",
        "locality-key-without-bar", "degree-key-with-underscore", "float-key"])
def test_consistency_edge_cases_and_map_refusals(call, expected):
    """With no link mass on either side the check has no residual to
    report; a JSON value that is not an object, where a map is expected, is
    refused rather than ending in an AttributeError.  A locality count is
    read by the one integer rule (``int`` read "1_0" as 10, " 2", "+2" and
    the Arabic-Indic 3 as numbers), and a negative count still reaches
    ``CountingMeasure``'s own check."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected
