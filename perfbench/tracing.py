"""Spans for the traced run, recorded from outside the program.

The traced run replaces each public callable of graphld's modules with a
wrapper, at every name its callers bind (``graphld.cli.iter_er_degree_histograms``
is the name ``run_decay_study`` calls, ``graphld.oracle.locality_atoms_of`` the
one ``sampled_class_counts`` calls), and restores the originals afterwards.
A wrapped call is one span; a wrapped generator gets one span per item it
produces.  A callable's self time is its span time minus the time of its
child spans.  Work counts come from return values, so they repeat exactly.

Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import graphld.cli
import graphld.graphs
import graphld.optimizer
import graphld.oracle
import graphld.rate
import graphld.sampler

MODULES = ("cli", "sampler", "graphs", "oracle", "optimizer", "rate", "measures")

#: Spans whose summed self time is reported as ``<name>.self_s``.
SELF_TIMES = (
    "cli.main", "cli.run_decay_study",
    "sampler.iter_er_degree_histograms.sparse", "sampler.iter_er_degree_histograms.dense",
    "sampler.ConditionalSampler.sample_edges", "sampler.ConditionalSampler.init",
    "graphs.locality_atoms_of", "graphs.empirical_locality_measure",
    "oracle.sampled_class_counts", "oracle.type_class_counts",
    "oracle.exact_event_probability", "oracle.lldp_exponent_gap",
    "measures.encode_measure", "rate.relative_entropy", "rate.typed_rate", "rate.degree_rate",
    "optimizer.rate_infimum_for_event", "optimizer.minimize_relative_entropy",
    "optimizer.check_feasible",
)
#: Spans whose count is reported as ``<name>.calls``.
CALLS = ("cli.main", "sampler.ConditionalSampler.sample_edges", "graphs.locality_atoms_of",
         "graphs.empirical_locality_measure", "measures.encode_measure",
         "rate.relative_entropy")
#: Work counts taken from return values.
COUNTS = ("sampler.iter_er_degree_histograms.graphs", "oracle.sampled_class_counts.classes",
          "oracle.type_class_counts.graphs", "oracle.exact_event_probability.graphs",
          "optimizer.minimize_relative_entropy.iterations")


class Tracer:
    """Span recorder for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.unit = -1          # id of the unit being run
        self.regime = ""        # decay study of that unit
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[List[Any]] = []   # [span id, name, start, child time]
        self._next_id = 0
        self._names: Dict[str, int] = {}
        self._cols = {"id": array("q"), "name": array("i"), "parent": array("q"),
                      "unit": array("i"), "start": array("d"), "end": array("d")}

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        cols = self._cols
        cols["id"].append(span_id)
        cols["name"].append(self._names.setdefault(name, len(self._names)))
        cols["parent"].append(parent)
        cols["unit"].append(self.unit)
        cols["start"].append(start)
        cols["end"].append(end)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def module_self_s(self, module: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.split(".", 1)[0] == module)

    def write(self, path: Path, manifest: Dict[str, Any]) -> int:
        """Write every span as a tab-separated line (gzip); returns the count."""
        names = {i: name for name, i in self._names.items()}
        cols = self._cols
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# " + json.dumps(manifest, sort_keys=True) + "\n")
            fh.write("id\tname\tparent\tworkload\tunit\tstart_s\tend_s\n")
            for i in range(len(cols["id"])):
                fh.write(f"{cols['id'][i]}\t{names[cols['name'][i]]}\t{cols['parent'][i]}\t"
                         f"{self.workload}\t{cols['unit'][i]}\t{cols['start'][i]!r}\t"
                         f"{cols['end'][i]!r}\n")
        return len(cols["id"])


def _wrap_call(tracer: Tracer, fn: Callable, name: str,
               count: Optional[Tuple[str, Callable[[Any], int]]]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if count is not None:
            tracer.count(count[0], count[1](result))
        return result
    return traced


def _wrap_generator(tracer: Tracer, fn: Callable, name: Optional[str],
                    count: Optional[Tuple[str, Callable[[Any], int]]]) -> Callable:
    """One span per produced item (none when ``name`` is None: count only).
    ``{regime}`` in the name is filled from the unit being run."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            if name is not None:
                tracer.open(name.format(regime=tracer.regime))
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                if name is not None:
                    tracer.close()
            if count is not None:
                tracer.count(count[0], count[1](item))
            yield item
    return traced


def _targets() -> List[Tuple[Any, str, Optional[str], Optional[Tuple[str, Callable]], bool]]:
    """(owner, attribute, span name, work count, is generator) for every
    binding the workloads reach."""
    cli, graphs, oracle = graphld.cli, graphld.graphs, graphld.oracle
    optimizer, rate = graphld.optimizer, graphld.rate
    sampler_cls = graphld.sampler.ConditionalSampler
    atoms = "graphs.locality_atoms_of"
    locality = "graphs.empirical_locality_measure"
    census = ("oracle.type_class_counts", ("oracle.type_class_counts.graphs",
                                           lambda report: report.support_size))
    entropy = "rate.relative_entropy"
    minimize = ("optimizer.minimize_relative_entropy",
                ("optimizer.minimize_relative_entropy.iterations", lambda opt: opt.iterations))
    return [
        (cli, "main", "cli.main", None, False),
        (cli, "run_decay_study", "cli.run_decay_study", None, False),
        (cli, "iter_er_degree_histograms", "sampler.iter_er_degree_histograms.{regime}",
         ("sampler.iter_er_degree_histograms.graphs", lambda hist: hist.shape[0]), True),
        (sampler_cls, "__init__", "sampler.ConditionalSampler.init", None, False),
        (sampler_cls, "sample_edges", "sampler.ConditionalSampler.sample_edges", None, False),
        (graphs, "locality_atoms_of", atoms, None, False),
        (oracle, "locality_atoms_of", atoms, None, False),
        (oracle, "empirical_locality_measure", locality, None, False),
        (cli, "empirical_locality_measure", locality, None, False),
        (oracle, "sampled_class_counts", "oracle.sampled_class_counts",
         ("oracle.sampled_class_counts.classes", len), False),
        (oracle, "type_class_counts", *census, False),
        (cli, "type_class_counts", *census, False),
        (oracle, "exact_event_probability", "oracle.exact_event_probability", None, False),
        (oracle, "enumerate_support", None,
         ("oracle.exact_event_probability.graphs", lambda graph: 1), True),
        (cli, "lldp_exponent_gap", "oracle.lldp_exponent_gap", None, False),
        (oracle, "encode_measure", "measures.encode_measure", None, False),
        (oracle, "relative_entropy", entropy, None, False),
        (rate, "relative_entropy", entropy, None, False),
        (cli, "typed_rate", "rate.typed_rate", None, False),
        (cli, "degree_rate", "rate.degree_rate", None, False),
        (cli, "rate_infimum_for_event", "optimizer.rate_infimum_for_event", None, False),
        (optimizer, "minimize_relative_entropy", *minimize, False),
        (cli, "minimize_relative_entropy", *minimize, False),
        (optimizer, "check_feasible", "optimizer.check_feasible", None, False),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count, generator in _targets():
            original = owner.__dict__[attr]
            wrap = _wrap_generator if generator else _wrap_call
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(tracer, original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> Dict[str, float]:
    """Per-layer numbers of one traced run.  ``traced_s`` and ``untraced_s``
    are the wall times of the same units with and without tracing."""
    metrics: Dict[str, float] = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    for name in CALLS:
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0)
    for name in COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    for module in MODULES:
        metrics[f"{module}.share"] = tracer.module_self_s(module) / traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics
