"""Experiment runner: sample, measure, rate, enumerate, optimize, and run
decay-rate / exponent-gap studies from the command line.

Subcommands (``graphld <cmd> --config FILE [--out PATH]``; ``sample`` and
``decay`` also take ``--seed U64``, ``decay`` and ``lldp`` ``--format
csv|json``, and any other option is a usage error):

* ``sample``    -- draw a conditional or fixed-edge-count graph, write the
                   ``typedgraph v1`` text format;
* ``measure``   -- empirical type / link / locality / degree measures of a
                   graph file, as JSON;
* ``rate``      -- evaluate a rate function on measures given in the config;
* ``enumerate`` -- exact support census of a spec (guarded);
* ``optimize``  -- entropy projection / predicted decay rate for an event;
* ``decay``     -- Monte Carlo decay-rate study over a list of graph sizes;
* ``lldp``      -- exact finite-size exponent gaps along a spec family.

Exit codes: 0 on success (``--help`` included), 1 on usage and parse
errors, 2 on guard, feasibility and convergence errors (``optimize`` writes
nothing when its solve did not converge; ``decay`` still writes its table and
warns).  An error or a warning is one ``error:`` or ``warning:`` line on
stderr.  Every integer read from text, the graph file's included, follows
``measures.decode_int``'s rule, ``-?[0-9]+``; ``--seed`` is ``[0-9]+``.

Determinism contract: a stochastic run is sharded into fixed-size blocks of
samples; shard ``i`` for graph size ``n`` consumes the dedicated substream
``numpy.random.default_rng([seed, n, i])``.  Results are reduced by exact
hit-count addition, so identical config + seed gives byte-identical output
regardless of how shards would be distributed over workers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graphs import TypedGraph, empirical_locality_measure
from .measures import (CountingMeasure, FiniteMeasure, ProbMeasure, config_field, config_float,
                       config_int, decode_int, degree_marginal, degree_values, link_marginal,
                       type_marginal)
from .oracle import EnumerationGuardError, lldp_exponent_gap, type_class_counts
from .optimizer import (
    ConstraintSet,
    InfeasibleConstraintsError,
    minimize_relative_entropy,
    rate_infimum_for_event,
)
from .rate import degree_rate, typed_rate
from .sampler import (
    ConditionSpec,
    InadmissibleSpecError,
    _as_count,
    _erdos_renyi_sampler,
    binary_cross_spec,
    iter_er_degree_histograms,
    sample_conditional_graph,
    sample_erdos_renyi,
)

#: Fixed Monte Carlo shard size (part of the determinism contract).
SHARD_SIZE = 1 << 16


class NotConvergedError(RuntimeError):
    """The optimizer stopped before meeting its tolerances."""


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a decay-rate study.

    ``estimate`` is -(1/n) log(hits/samples) and ``stderr`` its delta-method
    standard error sqrt((1 - P) / hits) / n; both are None when the event was
    never hit (absence is reported rather than an infinite estimate, which
    would corrupt slope fits).
    """

    n: int
    event: str
    estimate: Optional[float]
    stderr: Optional[float]
    predicted: float
    samples: int
    hits: int

    def to_json_dict(self) -> Dict[str, object]:
        return asdict(self)


def _csv_text(columns: Sequence[str], rows: List[Dict[str, object]]) -> str:
    """A table as CSV: the header always, then one line a row, None an empty
    field.  Fields are comma-free (event ids are), and str of a float is its
    repr.  As JSON, a table is the list of its row objects."""
    lines = [",".join(columns)]
    lines += [",".join("" if row[col] is None else str(row[col]) for col in columns)
              for row in rows]
    return "\n".join(lines) + "\n"


def _count_event_hits(n: int, m: int, samples: int, event: ConstraintSet,
                      seed: int) -> int:
    """Hits of a degree-law event over ``samples`` G(n, m) draws, sharded.

    Each draw's integer degree counts go through the event's one exact rule,
    ``ConstraintSet.holds_on_counts``, with no float tolerance.  It reads the
    event as the rate predictor does (zero beyond K, except the mean) and
    thresholds as decimals: {p(0) >= 0.4} at n = 50 needs 20 isolated nodes.
    """
    hits = 0
    for shard_index, start in enumerate(range(0, samples, SHARD_SIZE)):
        rng = np.random.default_rng([seed, n, shard_index])
        for hist in iter_er_degree_histograms(n, m, min(SHARD_SIZE, samples - start), rng):
            hits += int(np.count_nonzero(event.holds_on_counts(hist, n, m)))
    return hits


def run_decay_study(c: float, n_list: Sequence[int], samples: int,
                    event: ConstraintSet, seed: int) -> List[ExperimentRecord]:
    """Estimate -(1/n) log P{degree law in event} for G(n, nc/2) across
    ``n_list`` and pair each estimate with the optimizer's predicted rate.

    The predicted rate is solved first, so its refusals (c <= 0, an
    infeasible event) come before any size's.  Sizes where n*c/2 is not an
    integer (``sampler._as_count``) are skipped with a warning; an
    impossible G(n, m) raises before the first draw.  Deterministic given
    ``seed`` (see the module docstring).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be strictly increasing")
    optimum = rate_infimum_for_event(c, event)
    event_id = event.describe()
    if not optimum.converged:
        warnings.warn(f"the predicted rate of {event_id} did not converge "
                      f"(KKT residual {optimum.kkt_residual!r})")
    sizes = []
    for n in n_list:
        try:
            m = _as_count(n * c / 2, "n*c/2")
        except InadmissibleSpecError:
            warnings.warn(f"skipping n={n}: n*c/2 = {n * c / 2!r} is not an integer")
            continue
        _erdos_renyi_sampler(n, m)  # the one check of G(n, m)
        sizes.append((n, m))
    records = []
    for n, m in sizes:
        hits = _count_event_hits(n, m, samples, event, seed)
        if hits:
            p_hat = hits / samples
            estimate = 0.0 - math.log(p_hat) / n  # 0.0, not -0.0, for a sure event
            stderr = math.sqrt((1.0 - p_hat) / hits) / n
        else:
            estimate = None
            stderr = None
        records.append(ExperimentRecord(n, event_id, estimate, stderr,
                                        optimum.value, samples, hits))
    return records


def matching_measure() -> ProbMeasure:
    """The locality measure of a perfect cross matching in the binary-cross
    family: every node has exactly one neighbor of the opposite type."""
    half = Fraction(1, 2)
    return ProbMeasure({
        ("a", CountingMeasure({"b": 1})): half,
        ("b", CountingMeasure({"a": 1})): half,
    })


def run_measure(graph: TypedGraph) -> Dict[str, object]:
    """All four empirical distributions of a graph, as JSON-ready dicts: the
    locality measure and its type, link and degree marginals."""
    locality = empirical_locality_measure(graph)
    return {
        "n": graph.n,
        "type": type_marginal(locality).to_json_dict(),
        "link": link_marginal(locality).to_json_dict(),
        "locality": locality.to_json_dict(),
        "degree": degree_marginal(locality).to_json_dict(),
    }


def run_rate(config: Dict[str, object]) -> Dict[str, object]:
    """Evaluate a rate function from a config object.

    Degree form: {"c": num, "p": {degree: weight}, "tol": num?}.
    Typed form:  {"eta": {...}, "pi": {...}, "p": {locality-key: weight},
                  "tol": num?}.
    """
    tol = None if config.get("tol") is None else config_float(config["tol"], "tol")
    if "c" in config:
        p = ProbMeasure.from_json_dict(config_field(config, "p"), "degree")
        result = degree_rate(config_float(config["c"], "c"), p, tol)
    else:
        eta = ProbMeasure.from_json_dict(config_field(config, "eta"), "type")
        pi = FiniteMeasure.from_json_dict(config_field(config, "pi"), "pair")
        p = ProbMeasure.from_json_dict(config_field(config, "p"), "locality")
        result = typed_rate(eta, pi, p, tol)
    return result.to_json_dict()


def run_optimize(config: Dict[str, object]) -> Dict[str, object]:
    """Entropy projection from a config object.

    Event form:     {"c": num, "constraints": {...}} -- predicted decay
                    rate on all of the degrees (mean-c equality appended).
    Reference form: {"q": {degree: weight}, "constraints": {...}} -- plain
                    projection onto the constraints; q weighs each
                    degree 0..K, and no other (a weight of 0 forces p to 0
                    there).

    Raises NotConvergedError when the solve did not meet its tolerances.
    """
    cons = ConstraintSet.from_json_dict(config_field(config, "constraints", dict))
    if "c" in config:
        optimum = rate_infimum_for_event(config_float(config["c"], "c"), cons)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):  # the solver refuses q < 0
            log_q = np.log(degree_values(config_field(config, "q"), cons.support_cap, "q"))
        optimum = minimize_relative_entropy(log_q, cons)
    if not optimum.converged:
        raise NotConvergedError(
            f"the optimizer did not converge: KKT residual {optimum.kkt_residual!r} "
            f"after {optimum.iterations} iterations")
    return optimum.to_json_dict()


# ---------------------------------------------------------------------------
# Command-line wiring
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


def _load_config(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        # standard JSON only: NaN, Infinity and numbers that overflow are refused
        config = json.load(fh, parse_constant=_finite_float, parse_float=_finite_float)
    if not isinstance(config, dict):
        raise ValueError(f"a config must be a JSON object, not {config!r}")
    return config


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_text(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _seed(text: str) -> int:
    bad_seed = f"invalid --seed {text!r} (allowed: [0-9]+)"
    if text.startswith("-"):
        raise ValueError(bad_seed)
    return decode_int(text, bad_seed)


def _cmd_sample(config, seed) -> str:
    rng = np.random.default_rng(seed)
    if "er" in config:
        er = config_field(config, "er", dict)
        graph = sample_erdos_renyi(config_int(config_field(er, "n"), "er.n"),
                                   config_int(config_field(er, "m"), "er.m"), rng)
    else:
        spec = ConditionSpec.from_json_dict(config_field(config, "spec", dict))
        graph = sample_conditional_graph(spec, rng)
    return graph.to_text()


def _cmd_measure(config, seed) -> Dict[str, object]:
    # a str, not an int: open() would take an int for a file descriptor
    with open(config_field(config, "graph", str), "r", encoding="utf-8") as fh:
        return run_measure(TypedGraph.from_text(fh.read()))


def _cmd_enumerate(config, seed) -> Dict[str, object]:
    spec = ConditionSpec.from_json_dict(config_field(config, "spec", dict))
    return type_class_counts(spec).to_json_dict()


def _cmd_decay(config, seed) -> List[Dict[str, object]]:
    records = run_decay_study(
        c=config_float(config_field(config, "c"), "c"),
        n_list=[config_int(n, "n_list") for n in config_field(config, "n_list", list)],
        samples=config_int(config_field(config, "samples"), "samples"),
        event=ConstraintSet.from_json_dict(config_field(config, "event", dict)),
        seed=seed,
    )
    return [rec.to_json_dict() for rec in records]


def _cmd_lldp(config, seed) -> List[Dict[str, object]]:
    if "family" in config:
        if config["family"] != "binary-cross":
            raise ValueError(f"unknown family {config['family']!r} (allowed: 'binary-cross')")
        specs = [binary_cross_spec(config_int(n, "n_list"))
                 for n in config_field(config, "n_list", list)]
        target = matching_measure()
    else:
        specs = [ConditionSpec.from_json_dict(obj) for obj in config_field(config, "specs", list)]
        target = ProbMeasure.from_json_dict(config_field(config, "target"), "locality")
    return [{"n": n, "gap": gap} for n, gap in lldp_exponent_gap(specs, target)]


@dataclass(frozen=True)
class _Command:
    """A subcommand: its runner ``(config, seed) -> result`` (graph text, a JSON
    object or table rows), whether it draws (``--seed``), its table columns (``--format``)."""

    run: Callable[[Dict[str, object], Optional[int]], object]
    draws: bool = False
    columns: Tuple[str, ...] = ()


# Runners look their callees up as module globals at call time, so a wrapped
# or patched ``cli.run_rate`` or ``cli.type_class_counts`` is the one called.
_COMMANDS = {
    "sample": _Command(_cmd_sample, draws=True),
    "measure": _Command(_cmd_measure),
    "rate": _Command(lambda config, seed: run_rate(config)),
    "enumerate": _Command(_cmd_enumerate),
    "optimize": _Command(lambda config, seed: run_optimize(config)),
    "decay": _Command(_cmd_decay, draws=True,
                      columns=tuple(field.name for field in fields(ExperimentRecord))),
    "lldp": _Command(_cmd_lldp, columns=("n", "gap")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphld",
        description="Typed random graphs: sampling, empirical measures, "
                    "relative-entropy rates, exact enumeration, and "
                    "decay-rate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.set_defaults(parser=cmd)  # refuses what the subcommand does not read
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", help="output path (default stdout)")
        if command.draws:
            cmd.add_argument("--seed", required=True, help="64-bit RNG seed")
        if command.columns:
            cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


#: Built once: parsing leaves the parser as it was.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args, extra = _PARSER.parse_known_args(argv)
        if extra:  # with the subcommand's usage, which names the options it takes
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse wrote usage and error lines, or --help
        return 1 if exc.code else 0
    command = _COMMANDS[args.command]
    with warnings.catch_warnings():  # which restores showwarning on exit
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            seed = _seed(args.seed) if command.draws else None
            result = command.run(_load_config(args.config), seed)
            if command.columns and args.format == "csv":
                result = _csv_text(command.columns, result)
            _emit(result if isinstance(result, str) else _json_text(result), args.out)
            return 0
        except (EnumerationGuardError, InadmissibleSpecError, InfeasibleConstraintsError,
                NotConvergedError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, TypeError, OSError) as exc:  # json.JSONDecodeError too
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
