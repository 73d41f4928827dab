"""Finite measures over a type alphabet and the marginal machinery on them.

The building blocks are:

* ``CountingMeasure`` -- an integer multiset of types (a node's neighbor-type
  counts), hashable and canonically ordered.
* ``FiniteMeasure`` / ``ProbMeasure`` -- non-negative weight functions over a
  finite key set; keys are type labels, ordered type pairs, locality atoms
  ``(type, CountingMeasure)``, or non-negative integers (degree laws).

On top of these sit the marginal maps: ``type_marginal`` collapses a locality
measure to its type law, ``link_marginal`` to its pair law

    link_marginal(p)(a, b) = sum_e p(a, e) * e(b),

and ``degree_marginal`` to its degree law.  Of a graph's empirical locality
measure these are its empirical type, link and degree laws (the paper's
contraction), so a graph is walked once, by ``graphs.locality_atoms_of``.

``is_sub_consistent``, the one consistency check, reports whether a pair law
dominates the link marginal of a locality measure (the paper's condition for
a finite rate) and the largest excess; ``law_pair_problem`` checks a pair
(type law, link law), its type labels included: the one rule for labels,
which ``_check_label`` shares.
``encode_measure`` writes a measure as one line, each weight an exact
fraction, and ``encode_atom_counts`` the same text of a type class from its
atom counts (a ``graphs.locality_atoms_of`` key): the one spelling of a
class.  ``decoded_items`` reads the keys of a JSON object, refusing a value
that is not an object and two spellings of one key, and ``degree_values``
reads a {degree: number} object into the values at 0..K; ``decode_key`` is
the one reader of each key kind.  ``decode_int`` is the one rule for an
integer written in text (``-?[0-9]+``): degree keys, locality counts, the
graph file's ``n=`` and edge endpoints, and ``--seed`` (a counting text in
``encode``'s form is matched whole, with the same digits).

All values are immutable after construction (a measure's order is computed
once, on first read, alike in any thread) and every function here is pure, so
everything in this module is safe to share across threads.

Weights may be exact rationals (``int`` / ``Fraction``, not ``bool``) or
floats.  Empirical measures extracted from graphs are exact; exactness is
preserved by every operation in this module and only dropped at
serialization boundaries.  ``PROB_MASS_TOL`` (on mass) and ``INPUT_TOL`` (on
a written number) forgive float error only: exact inputs must be exact.  JSON
config fields are read by ``config_field``, the one field reader, and numbers
by ``config_int`` and ``config_float``; each refuses a bad field naming it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational, Real
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple,
                    Union)

Scalar = Union[int, float, Fraction]

#: Absolute tolerance on the total mass of a probability measure with float weights.
PROB_MASS_TOL = 1e-12

#: Float error allowed in a written number: a count at n, a constraint met.
INPUT_TOL = 1e-9

_LABEL = r"[A-Za-z0-9_.-]+"
_LABEL_RE = re.compile(_LABEL + r"\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")
# ``encode``'s form but for the label order: label:count, count > 0 with no leading zero
_ENTRY = _LABEL + ":[1-9][0-9]*"
_COUNTING_TEXT_RE = re.compile(rf"{_ENTRY}(?:,{_ENTRY})*\Z")


def decode_int(text: str, problem: str) -> int:
    """``text`` as an integer if it is ASCII digits after an optional minus
    sign (``int`` alone would read "1_0", " 0", "+1" and other scripts'
    digits); else ValueError(problem).  A negative value passes, so that it
    reaches its caller's range check."""
    if not _INT_RE.match(text):
        raise ValueError(problem)
    return int(text)


def _label_problem(label: object) -> Optional[str]:
    """Why ``label`` is not a type label, or None."""
    if isinstance(label, str) and _LABEL_RE.match(label):
        return None
    return f"invalid type label {label!r} (allowed: [A-Za-z0-9_.-]+)"


def _check_label(label: str) -> str:
    problem = _label_problem(label)
    if problem:
        raise ValueError(problem)
    return label


@dataclass(frozen=True)
class CountingMeasure:
    """An integer multiset of types: ``counts[b]`` copies of type ``b``.

    Stored canonically as a sorted tuple of ``(label, count)`` pairs with all
    zero counts dropped, so equal multisets compare and hash identically.
    """

    counts: Tuple[Tuple[str, int], ...]

    def __init__(self, counts: Union[Mapping[str, int], Iterable[Tuple[str, int]]] = ()):
        items = counts.items() if isinstance(counts, Mapping) else counts
        acc: Dict[str, int] = {}
        for label, k in items:
            _check_label(label)
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"count for {label!r} must be a non-negative int, got {k!r}")
            if k:
                acc[label] = acc.get(label, 0) + k
        object.__setattr__(self, "counts", tuple(sorted(acc.items())))

    def __call__(self, label: str) -> int:
        for b, k in self.counts:
            if b == label:
                return k
        return 0

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self.counts)

    def encode(self) -> str:
        """Canonical text form, e.g. ``"a:2,b:1"`` (empty multiset -> ``""``);
        the text it was decoded from, when that was already canonical."""
        return self.__dict__.get("_text") or _counting_text(self.counts)

    @classmethod
    def decode(cls, text: str) -> "CountingMeasure":
        """The multiset ``text`` writes.  Text in ``encode``'s form is read in
        one match, builds no message and is kept as ``encode()``; other text
        (repeated labels add up, a zero count drops) goes entry by entry
        through ``decode_int`` and ``__init__``, so a fault names its entry."""
        if _COUNTING_TEXT_RE.match(text):
            counts = tuple((label, int(count)) for label, _, count in
                           (part.partition(":") for part in text.split(",")))
            if all(x[0] < y[0] for x, y in zip(counts, counts[1:])):
                measure = object.__new__(cls)
                object.__setattr__(measure, "counts", counts)
                object.__setattr__(measure, "_text", text)
                return measure
        if not text:
            return cls()
        pairs = []
        for part in text.split(","):
            label, _, count = part.partition(":")
            pairs.append((label, decode_int(count, f"malformed counting-measure entry {part!r}")))
        return cls(pairs)

    def __repr__(self) -> str:
        return f"CountingMeasure({dict(self.counts)!r})"


# Measure keys: a type label, an ordered pair of labels, a locality atom
# (label, CountingMeasure), or a non-negative integer (degree laws).
Key = Union[str, int, Tuple[str, str], Tuple[str, CountingMeasure]]


def key_kind(key: Key) -> str:
    """Classify a measure key: 'type', 'pair', 'locality' or 'degree'."""
    if isinstance(key, str):
        return "type"
    if isinstance(key, int):
        return "degree"
    if isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], str):
        if isinstance(key[1], str):
            return "pair"
        if isinstance(key[1], CountingMeasure):
            return "locality"
    raise TypeError(f"unsupported measure key {key!r}")


#: The text of a key of each kind: its label, ``a,b``, ``a|`` and the counting
#: text, or its integer.
_KEY_TEXT: Dict[str, Callable[[Key], str]] = {
    "type": str, "degree": str, "pair": "{0[0]},{0[1]}".format,
    "locality": lambda key: f"{key[0]}|{key[1].encode()}"}  # type: ignore[union-attr]


def encode_key(key: Key) -> str:
    return _KEY_TEXT[key_kind(key)](key)


def decode_key(text: str, kind: str) -> Key:
    if kind == "type":
        return _check_label(text)
    if kind == "degree":
        return decode_int(text, f"invalid degree key {text!r} (allowed: -?[0-9]+)")
    if kind == "pair":
        a, _, b = text.partition(",")
        return (_check_label(a), _check_label(b))
    if kind == "locality":
        a, sep, rest = text.partition("|")
        if not sep:
            raise ValueError(f"locality key {text!r} missing '|' separator")
        return (_check_label(a), CountingMeasure.decode(rest))
    raise ValueError(f"unknown key kind {kind!r}")


def decoded_items(obj: Mapping[str, object], decode: Callable[[str], Hashable]
                  ) -> Iterator[Tuple[Hashable, str, object]]:
    """``(decode(text), text, value)`` for each item of a JSON object.  A
    value that is not an object, and two spellings of one key (``"2"`` and
    ``"02"`` of degree 2), raise ValueError, rather than an AttributeError or
    one spelling silently overwriting the other."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"expected a JSON object of keys, not {obj!r}")
    spellings: Dict[Hashable, str] = {}
    for text, value in obj.items():
        key = decode(text)
        if key in spellings:
            raise ValueError(f"keys {spellings[key]!r} and {text!r} are the same key")
        spellings[key] = text
        yield key, text, value


def degree_values(obj: object, cap: int, field: str) -> List[float]:
    """The values at degrees 0..cap of a JSON object {degree: number}, 0.0
    where a degree is absent.  A degree outside 0..cap, or a value that is
    not a finite number, raises ValueError naming ``field``."""
    values = [0.0] * (cap + 1)
    for degree, text, value in decoded_items(obj, lambda k: decode_key(k, "degree")):
        if not 0 <= degree <= cap:
            raise ValueError(f"{field} index {degree} outside 0..{cap}")
        values[degree] = config_float(value, f"{field}[{text}]")
    return values


def _sort_key(key: Key):
    """Keys of one kind order as themselves, a locality atom by its text."""
    return (key[0], key[1].encode()) if key_kind(key) == "locality" else key


class FiniteMeasure:
    """A non-negative weight function on a finite key set (mass unconstrained).

    Zero-weight keys are dropped at construction, so the support is exactly
    the stored key set and equal measures compare equal.  Instances are
    immutable; the support is put in canonical order once, on first read
    (``keys``, ``items`` and every reader built on them), and kept.
    """

    __slots__ = ("_w", "_items")

    def __init__(self, weights: Mapping[Key, Scalar]):
        self._keep(weights, None)

    def _keep(self, weights: Mapping[Key, Scalar], kind: Optional[str]) -> None:
        """Keep the non-zero weights, checking each weight, and each key's kind
        unless ``kind`` is given (keys decoded as that kind)."""
        w: Dict[Key, Scalar] = {}
        check_keys = kind is None
        for key, value in weights.items():
            if check_keys:
                k = key_kind(key)
                if kind is None:
                    kind = k
                elif k != kind:
                    raise TypeError(f"mixed key kinds in one measure: {kind} and {k}")
            # a finite float >= 0 (as JSON weights mostly are) needs no other check
            if type(value) is not float or not 0.0 <= value < math.inf:
                if isinstance(value, bool):
                    raise TypeError(f"bool weight {value!r} at key {key!r}")
                if not isinstance(value, Real):
                    raise TypeError(f"weight {value!r} at key {key!r} is not a number")
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"non-finite weight {value!r} at key {key!r}")
                if value < 0:
                    raise ValueError(f"negative weight {value!r} at key {key!r}")
            if value != 0:
                w[key] = value
        self._w = w
        self._items = None
        self._validate()

    def _validate(self) -> None:
        pass

    # -- mapping-style access -------------------------------------------------
    def __call__(self, key: Key) -> Scalar:
        return self._w.get(key, 0)

    def __contains__(self, key: Key) -> bool:
        return key in self._w

    def __len__(self) -> int:
        return len(self._w)

    def keys(self) -> Tuple[Key, ...]:
        """Support keys in canonical order."""
        return tuple(key for key, _ in self.items())

    def items(self) -> Tuple[Tuple[Key, Scalar], ...]:
        """``(key, weight)`` over the support in canonical order, sorted on
        the first read and kept."""
        if self._items is None:
            order = sorted(self._w, key=_sort_key if self.kind() == "locality" else None)
            self._items = tuple((key, self._w[key]) for key in order)
        return self._items

    def _texts(self) -> List[Tuple[str, Scalar]]:
        """``(encode_key(key), weight)`` in canonical order, the kind read once."""
        text = _KEY_TEXT.get(self.kind())
        return [(text(key), w) for key, w in self.items()]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteMeasure) and self._w == other._w

    def __repr__(self) -> str:
        name = type(self).__name__
        body = ", ".join(f"{text}: {w}" for text, w in self._texts())
        return f"{name}({{{body}}})"

    # -- totals ---------------------------------------------------------------
    def total_mass(self) -> Scalar:
        return sum(self._w.values())

    def kind(self) -> Union[str, None]:
        """Key kind of the support ('type', 'pair', 'locality', 'degree') or None if empty."""
        for key in self._w:
            return key_kind(key)
        return None

    def is_exact(self) -> bool:
        """True if every weight is an exact rational (int or Fraction)."""
        return all(isinstance(v, Rational) for v in self._w.values())

    # -- serialization ----------------------------------------------------------
    def to_json_dict(self) -> Dict[str, float]:
        return {text: float(w) for text, w in self._texts()}

    @classmethod
    def from_json_dict(cls, obj: Mapping[str, Scalar], kind: str) -> "FiniteMeasure":
        """The measure a JSON object writes, each key read by ``decode_key``
        as ``kind``, so only the weights are checked again."""
        measure = cls.__new__(cls)
        measure._keep({key: v for key, _, v in decoded_items(obj, lambda k: decode_key(k, kind))},
                      kind)
        return measure


class ProbMeasure(FiniteMeasure):
    """A FiniteMeasure whose total mass is 1: exactly, for exact weights, and
    within ``PROB_MASS_TOL`` once a weight is a float."""

    __slots__ = ()

    def _validate(self) -> None:
        mass = self.total_mass()
        if isinstance(mass, Rational) and mass != 1:
            raise ValueError(f"probability weights sum to {mass}, not 1")
        if abs(mass - 1) > PROB_MASS_TOL:
            raise ValueError(f"probability weights sum to {float(mass)!r}, not 1")


def dirac(key: Key) -> ProbMeasure:
    """The point mass at ``key``."""
    return ProbMeasure({key: 1})


# ---------------------------------------------------------------------------
# Marginal maps on locality measures
# ---------------------------------------------------------------------------

def type_marginal(p: ProbMeasure) -> ProbMeasure:
    """Collapse a locality measure to its type law: out(a) = sum_e p(a, e)."""
    out: Dict[Key, Scalar] = {}
    for (a, _e), w in p.items():
        out[a] = out.get(a, 0) + w
    return ProbMeasure(out)


def link_marginal(p: ProbMeasure) -> FiniteMeasure:
    """Pair law carried by a locality measure:

        out(a, b) = sum_e p(a, e) * e(b).

    Keys with value 0 are omitted.
    """
    out: Dict[Key, Scalar] = {}
    for (a, e), w in p.items():
        for b, k in e:
            key = (a, b)
            out[key] = out.get(key, 0) + w * k
    return FiniteMeasure(out)


def degree_marginal(p: ProbMeasure) -> ProbMeasure:
    """Degree law carried by a locality measure: out(k) = sum of p(a, e) over
    the atoms whose neighbour count sum_b e(b) is k.  The left inverse of
    ``rate.embed_degree_law``."""
    out: Dict[Key, Scalar] = {}
    for (_a, e), w in p.items():
        k = sum(count for _b, count in e)
        out[k] = out.get(k, 0) + w
    return ProbMeasure(out)


def law_pair_problem(type_law: FiniteMeasure, link_law: FiniteMeasure) -> Optional[str]:
    """The first reason ``(type_law, link_law)`` is not a constraint pair, or
    None: ``type_law`` must be over valid type labels, and ``link_law`` a
    symmetric measure over pairs of them.  Float weights are symmetric to
    1e-12."""
    if type_law.kind() != "type":
        return "eta must be a measure over type labels"
    for a in type_law.keys():
        problem = _label_problem(a)
        if problem:
            return problem
    if link_law.kind() not in (None, "pair"):
        return "link law must be a measure over type pairs"
    sym_tol = 0 if link_law.is_exact() else 1e-12
    for (a, b) in link_law.keys():
        if a not in type_law or b not in type_law:
            return f"link law key ({a!r}, {b!r}) outside the alphabet"
        if abs(link_law((a, b)) - link_law((b, a))) > sym_tol:
            return f"link law is not symmetric at ({a!r}, {b!r})"
    return None


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the sub-consistency check: ``max_residual`` is the largest
    residual ``link_marginal(p)(k) - pi(k)`` (positive means violated), None
    when there is nothing to compare."""

    ok: bool
    max_residual: Union[Scalar, None]

    def __bool__(self) -> bool:
        return self.ok


def is_sub_consistent(pi: FiniteMeasure, p: ProbMeasure, tol: Scalar = 0) -> ConsistencyReport:
    """Check that ``link_marginal(p)(a, b) <= pi(a, b) + tol`` at every key of
    either measure."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    marg = link_marginal(p)
    residuals = [marg(key) - pi(key) for key in set(marg.keys()) | set(pi.keys())]
    if not residuals:
        return ConsistencyReport(True, None)
    worst = max(residuals)
    return ConsistencyReport(worst <= tol, worst)


def total_variation(mu: FiniteMeasure, nu: FiniteMeasure) -> Scalar:
    """Total variation distance ``(1/2) * sum_k |mu(k) - nu(k)|`` over the
    union of supports.  Raises if the two measures live on different key
    spaces."""
    mk, nk = mu.kind(), nu.kind()
    if mk is not None and nk is not None and mk != nk:
        raise TypeError(f"key-space mismatch: {mk} vs {nk}")
    keys = set(mu.keys()) | set(nu.keys())
    total = sum(abs(mu(k) - nu(k)) for k in keys)
    return total / 2


def _counting_text(counts: Iterable[Tuple[str, int]]) -> str:
    """The text of a multiset's sorted ``(label, count)`` pairs: ``a:2,b:1``."""
    return ",".join(f"{b}:{k}" for b, k in counts)


def _fraction_text(numerator: int, denominator: int) -> str:
    """A weight as its lowest-terms fraction: ``1/2``, or ``3`` when whole."""
    g = math.gcd(numerator, denominator)
    return str(numerator // g) if g == denominator else f"{numerator // g}/{denominator // g}"


def encode_measure(m: FiniteMeasure) -> str:
    """One-line canonical encoding, each weight as its exact fraction (a float
    as the binary fraction it holds: 0.5 as ``1/2``), so two measures encode
    identically iff they are equal, whatever their weight types."""
    return "; ".join(f"{text}={_fraction_text(*Fraction(w).as_integer_ratio())}"
                     for text, w in m._texts())


def encode_atom_counts(n: int, atom_counts: Iterable[Tuple[Tuple[str, Tuple], int]]) -> str:
    """``encode_measure`` of the locality measure on n nodes that puts count/n
    on each atom ``(label, sorted (label, count) pairs)``, written straight
    from the counts without building the measure: the text of a type class."""
    return "; ".join(f"{a}|{text}={_fraction_text(count, n)}" for a, text, count in
                     sorted((a, _counting_text(e), count) for (a, e), count in atom_counts))


def config_field(obj: object, name: str, kind: Optional[type] = None) -> object:
    """Field ``name`` of a JSON config object, of JSON kind ``kind`` (dict, list, or str
    for a file path) if one is given; anything else raises ValueError naming the field."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"expected a JSON object with field {name!r}, not {obj!r}")
    if name not in obj:
        raise ValueError(f"missing field {name!r}")
    if kind is not None and not isinstance(obj[name], kind):
        what = {dict: "a JSON object", list: "a list", str: "a file path"}[kind]
        raise ValueError(f"{name} = {obj[name]!r} is not {what}")
    return obj[name]


def config_int(value: object, field: str) -> int:
    """An integer field of a JSON config: an int, or an integral float (4.0
    reads as 4); anything else raises ValueError naming the field."""
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{field} = {value!r} is not an integer")
    return int(value)


def config_float(value: object, field: str) -> float:
    """A real field of a JSON config: an int or a float, not a bool, that is
    finite as a float; anything else raises ValueError naming the field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range: its length, not its digits
            raise ValueError(f"{field} is an integer of {len(str(abs(value)))} digits, "
                             f"beyond the float range") from None
    raise ValueError(f"{field} = {value!r} is not a finite number")
