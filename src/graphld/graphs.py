"""Typed simple graphs and their empirical distributions.

A ``TypedGraph`` is a set of labelled nodes ``1..n``, each carrying a type
label, plus a simple undirected edge set.  ``locality_atoms_of`` is the one
walk of a graph: it gives the type-class key (each distinct locality atom
with its node count), from which ``empirical_locality_measure`` builds the
law of (node type, neighbor-type multiset) in exact rational arithmetic.
The walk costs the graph's edges plus C-level passes over its types (one to
find the labels, one to count each): only nodes that an edge touches get
neighbour counts, and the rest are counted by type.
The graph's type, link and degree laws are marginals of that measure
(``measures.type_marginal``, ``link_marginal``, ``degree_marginal``): the
fraction of nodes of each type, (1/n) x the ordered count of adjacent type
pairs (symmetric, mass 2|E|/n), and the law of node degree (mean 2|E|/n).

Exact arithmetic matters: graphs with equal locality measures must land in the
same equivalence class bit-for-bit, which float weights cannot guarantee.
Graphs are immutable and the extraction functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

from .measures import CountingMeasure, ProbMeasure, _check_label, _label_problem, decode_int

Edge = Tuple[int, int]

#: A type class: the sorted ``((type, neighbor-type counts), node count)``
#: pairs of a graph; on n nodes, equal keys mean equal locality measures.
ClassKey = Tuple[Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], int], ...]


@dataclass(frozen=True)
class TypedGraph:
    """A simple undirected graph on nodes ``1..n`` with a type per node.

    ``types[i]`` is the label of node ``i + 1``; edges are stored as a
    frozenset of ``(u, v)`` pairs with ``u < v``.
    """

    n: int
    types: Tuple[str, ...]
    edges: frozenset

    def __init__(self, types: Sequence[str], edges: Iterable[Edge]):
        n = len(types)
        if n < 1:
            raise ValueError("graph needs at least one node")
        for t in dict.fromkeys(types):  # each distinct label once, in node order
            _check_label(t)
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of node range 1..{n}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "types", tuple(types))
        object.__setattr__(self, "edges", frozenset(normalized))

    # -- text format ----------------------------------------------------------
    def to_text(self) -> str:
        """Bit-exact line format::

            typedgraph v1
            n=<int>
            types=<space-separated labels, node order>
            e <u> <v>          (u < v, lexicographically sorted)
        """
        lines = ["typedgraph v1", f"n={self.n}", "types=" + " ".join(self.types)]
        lines.extend(f"e {u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TypedGraph":
        # (line number in the file, line): blank lines are skipped, not renumbered
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if len(lines) < 3 or lines[0][1].strip() != "typedgraph v1":
            raise ValueError("not a 'typedgraph v1' file")
        (n_lineno, n_line), (types_lineno, types_line) = lines[1:3]
        bad_n = f"line {n_lineno} must be 'n=<int>'"
        n = decode_int(n_line[2:], bad_n) if n_line.startswith("n=") else -1
        if n < 0:
            raise ValueError(bad_n)
        if not types_line.startswith("types="):
            raise ValueError(f"line {types_lineno} must be 'types=<labels>'")
        # "".split(" ") is [""]: n = 0 goes on to the node-count check
        types = types_line[len("types="):].split(" ") if n else []
        if len(types) != n:
            raise ValueError(f"expected {n} type labels, got {len(types)}")
        problem = next(filter(None, map(_label_problem, dict.fromkeys(types))), None)
        if problem:
            raise ValueError(f"line {types_lineno}: {problem}")
        edges = set()
        for lineno, line in lines[3:]:
            parts = line.split(" ")
            bad_edge = f"line {lineno}: expected 'e <u> <v>', got {line!r}"
            if len(parts) != 3 or parts[0] != "e":
                raise ValueError(bad_edge)
            u, v = decode_int(parts[1], bad_edge), decode_int(parts[2], bad_edge)
            if not u < v:
                raise ValueError(f"line {lineno}: edge must satisfy u < v")
            if u < 1 or v > n:
                raise ValueError(f"line {lineno}: edge ({u}, {v}) out of node range 1..{n}")
            if (u, v) in edges:
                raise ValueError(f"line {lineno}: repeated edge {u} {v}")
            edges.add((u, v))
        return cls(types, edges)


# ---------------------------------------------------------------------------
# Empirical distributions
# ---------------------------------------------------------------------------

def locality_atoms_of(types: Sequence[str], edges: Iterable[Edge]) -> ClassKey:
    """The type-class key of a bare (types, edges) description: each distinct
    locality atom ``(type, sorted neighbor-type counts)`` with the number of
    nodes that carry it, sorted.

    The one per-graph atom counter: :func:`empirical_locality_measure` and
    the enumeration census (``oracle._census``) both read it.  Only nodes
    that an edge touches get neighbour counts; the untouched nodes of each
    type are its node count less its touched ones, all of atom
    ``(type, ())``, counted over ``types`` in C when some node is untouched.
    """
    # 0-based node -> neighbour-type counts, touched nodes only
    neigh: Dict[int, Dict[str, int]] = {}
    for u, v in edges:
        i, j = u - 1, v - 1
        a, b = types[i], types[j]
        ni = neigh.get(i)
        if ni is None:
            neigh[i] = {b: 1}
        else:
            ni[b] = ni.get(b, 0) + 1
        nj = neigh.get(j)
        if nj is None:
            neigh[j] = {a: 1}
        else:
            nj[a] = nj.get(a, 0) + 1
    counts: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], int] = {}
    for i, counted in neigh.items():
        # one neighbour type (the common case) is already sorted
        seen = tuple(sorted(counted.items())) if len(counted) > 1 else tuple(counted.items())
        atom = (types[i], seen)
        counts[atom] = counts.get(atom, 0) + 1
    if len(neigh) < len(types):
        touched = list(map(types.__getitem__, neigh))
        for t in set(types):
            idle = types.count(t) - touched.count(t)
            if idle:
                counts[t, ()] = idle
    return tuple(sorted(counts.items()))


def empirical_locality_measure(z: TypedGraph) -> ProbMeasure:
    """out = (1/n) * sum over nodes v of the point mass at
    ``(type(v), neighbor-type counts of v)``, exact."""
    return ProbMeasure({(a, CountingMeasure(e)): Fraction(k, z.n)
                        for (a, e), k in locality_atoms_of(z.types, z.edges)})
