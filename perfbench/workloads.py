"""The four benchmark workloads: the jobs a graphld user waits for.

A workload is set up once (configs written, specs analysed), then yields
*cycles*: fixed lists of units that together cover every input of the
workload once.  The runner times whole cycles, one unit at a time (a closed
loop with one client), so every run sees the same input mix.  Each unit
carries its own output check; workloads with Monte Carlo output add a check
on the law of the pooled results (:meth:`Workload.law_problems`).

Units call the program the way a user does: ``graphld.cli.main`` in process
for every subcommand, and ``graphld.oracle`` where no subcommand exists.
Both are looked up on the module at call time, so the traced run can wrap
them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from graphld import cli, oracle
from graphld.measures import CountingMeasure, FiniteMeasure, ProbMeasure, dirac
from graphld.rate import ReferenceLaw, truncated_poisson
from graphld.sampler import ConditionalSampler, ConditionSpec, binary_cross_spec

import reference as ref


@dataclass
class Unit:
    """One closed-loop request: ``run`` does the timed work and returns its
    output; ``check`` lists what is wrong with that output."""

    kind: str
    group: str          # units whose outputs are pooled for the law check
    work: int           # what `throughput` counts, for this unit
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]
    regime: str = ""    # decay study ("sparse"/"dense"), for the traced run


class Workload:
    name = ""
    work_name = ""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def _write(self, name: str, config: Dict[str, Any]) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(config, sort_keys=True))
        return str(path)

    def _cli(self, command: str, config: str, extra: Tuple[str, ...] = ()) -> Callable[[], Any]:
        """A unit body: one in-process `graphld` call, its output read back."""
        out = self.workdir / f"{command}.out"

        def run() -> Tuple[int, str]:
            code = cli.main([command, "--config", config, "--out", str(out), *extra])
            return code, out.read_text() if code == 0 else ""
        return run

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2**63))

    def warmup(self) -> Unit:
        raise NotImplementedError

    def cycle(self) -> List[Unit]:
        raise NotImplementedError

    def build_references(self) -> None:
        """Exact answers the checks compare against (not part of set-up)."""

    def law_problems(self, done: List[Tuple[Unit, Any]]) -> Dict[str, List[str]]:
        """Problems of the pooled outputs, by unit group."""
        return {}


def _cli_checked(check: Callable[[str], List[str]]) -> Callable[[Tuple[int, str]], List[str]]:
    def checked(output: Tuple[int, str]) -> List[str]:
        code, text = output
        return [f"exit code {code}"] if code != 0 else check(text)
    return checked


# ---------------------------------------------------------------------------
# decay_mc
# ---------------------------------------------------------------------------

class DecayMC(Workload):
    """Monte Carlo decay studies: `graphld decay` at one size per unit.

    Sparse study: c = 2, event {p(0) >= 0.2}; its G(n, m) draws take the
    batched rejection path.  Dense study: c = 6, event {p(0) >= 0.05}, where
    m(m - 1) > 8 C(n, 2) sends the kernel to per-row Floyd sampling.  Cost per
    sample does not depend on the threshold; 0.2 (not criterion 5's 0.4)
    leaves enough hits at n = 200 for the law check.
    """

    name = "decay_mc"
    work_name = "sampled graphs"
    SAMPLES = 1024
    STUDIES = (("sparse", 2.0, 0.2, (50, 100, 150, 200)),
               ("dense", 6.0, 0.05, (20, 30, 40)))

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.sizes = []
        for regime, c, r, n_list in self.STUDIES:
            for n in n_list:
                config = self._write(f"decay-{regime}-{n}.json", {
                    "c": c, "n_list": [n], "samples": self.SAMPLES,
                    "event": {"K": 1, "ge": [{"f": "pmf@0", "r": r}]}})
                self.sizes.append((regime, c, r, n, config))
        self.predicted: Dict[float, float] = {}
        self.probability: Dict[str, float] = {}

    def _unit(self, regime: str, c: float, r: float, n: int, config: str) -> Unit:
        group = f"{regime} n={n}"
        run = self._cli("decay", config, ("--seed", str(self._seed())))
        check = _cli_checked(lambda text: ref.check_decay_csv(
            text, n, self.SAMPLES, self.predicted[c]))
        return Unit(f"decay {group}", group, self.SAMPLES, run, check, regime)

    def warmup(self) -> Unit:
        return self._unit(*self.sizes[0])

    def cycle(self) -> List[Unit]:
        return [self._unit(*size) for size in self.sizes]

    def build_references(self) -> None:
        for regime, c, r, n, _ in self.sizes:
            # the CLI's default reference cap for these events: max(50, ceil(10 c))
            self.predicted[c] = ref.point_event_rate(c, max(50, math.ceil(10 * c)), 0, r, "ge")
            m = round(n * c / 2)
            self.probability[f"{regime} n={n}"] = float(
                ref.isolated_tail_probability(n, m, ref.min_isolated(n, r)))

    def law_problems(self, done):
        hits: Dict[str, int] = {}
        trials: Dict[str, int] = {}
        for unit, (_, text) in done:
            hits[unit.group] = hits.get(unit.group, 0) + ref.decay_hits(text)
            trials[unit.group] = trials.get(unit.group, 0) + self.SAMPLES
        return {group: ref.binomial_problems(f"decay {group} hits", hits[group],
                                             trials[group], self.probability[group])
                for group in hits}


# ---------------------------------------------------------------------------
# class_mc
# ---------------------------------------------------------------------------

def three_type_spec() -> ConditionSpec:
    """Criterion 3's three-type spec: groups a:2, b:2, c:1; blocks ab=2,
    ac=1, bc=1, aa=1."""
    f = Fraction
    eta = ProbMeasure({"a": f(2, 5), "b": f(2, 5), "c": f(1, 5)})
    pi = FiniteMeasure({
        ("a", "b"): f(2, 5), ("b", "a"): f(2, 5), ("a", "c"): f(1, 5), ("c", "a"): f(1, 5),
        ("b", "c"): f(1, 5), ("c", "b"): f(1, 5), ("a", "a"): f(2, 5)})
    return ConditionSpec(5, eta, pi)


def single_type_spec() -> ConditionSpec:
    """Criterion 3's single-type spec: 4 nodes, 3 edges."""
    return ConditionSpec(4, dirac("a"), FiniteMeasure({("a", "a"): Fraction(3, 2)}))


class ClassMC(Workload):
    """Monte Carlo type-class censuses: one `sampled_class_counts` call of a
    fixed number of draws per unit.  The n = 4 specs are bound by per-call
    overhead, binary-cross n = 8 by the class key, so it runs twice a cycle."""

    name = "class_mc"
    work_name = "draws classified"
    DRAWS = 1000

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.specs = {"binary4": binary_cross_spec(4), "single4": single_type_spec(),
                      "three5": three_type_spec(), "binary8": binary_cross_spec(8)}
        for spec in self.specs.values():
            ConditionalSampler(spec)  # admissibility
        self.census: Dict[str, Dict[str, int]] = {}

    def _unit(self, name: str) -> Unit:
        spec, seed = self.specs[name], self._seed()

        def run() -> Dict[str, int]:
            return oracle.sampled_class_counts(spec, self.DRAWS, np.random.default_rng(seed))
        check = lambda counts: ref.check_class_sample(counts, self.DRAWS, self.census[name])
        return Unit(f"classes {name}", name, self.DRAWS, run, check)

    def warmup(self) -> Unit:
        return self._unit("binary4")

    def cycle(self) -> List[Unit]:
        return [self._unit(name) for name in ("binary4", "single4", "three5", "binary8",
                                              "binary8")]

    def build_references(self) -> None:
        self.census = {name: ref.brute_class_counts(spec) for name, spec in self.specs.items()}

    def law_problems(self, done):
        pooled: Dict[str, Dict[str, int]] = {}
        for unit, counts in done:
            acc = pooled.setdefault(unit.group, {})
            for key, count in counts.items():
                acc[key] = acc.get(key, 0) + count
        return {group: ref.class_law_problems(counts, self.census[group])
                for group, counts in pooled.items()}


# ---------------------------------------------------------------------------
# exact_census
# ---------------------------------------------------------------------------

def matching_measure() -> ProbMeasure:
    """Locality measure of a perfect cross matching in the binary-cross family."""
    half = Fraction(1, 2)
    return ProbMeasure({("a", CountingMeasure({"b": 1})): half,
                        ("b", CountingMeasure({"a": 1})): half})


class ExactCensus(Workload):
    """Exact enumeration, no RNG: `graphld lldp` on binary-cross n = 4, 6, 8
    (the `type_class_counts` loop), `graphld enumerate` on the three-type
    spec, and `exact_event_probability` at binary-cross n = 6 (the
    `enumerate_support` -> `empirical_locality_measure` loop).  The seed only
    orders the cycle."""

    name = "exact_census"
    work_name = "support graphs"
    LLDP_SIZES = (4, 6, 8)
    EVENT_N = 6
    #: C(4, 2) C(2, 1) C(2, 1) C(1, 1): the blocks ab, ac, bc and aa
    THREE_TYPE_SUPPORT = 24

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.lldp = {n: self._write(f"lldp-{n}.json", {"family": "binary-cross", "n_list": [n]})
                     for n in self.LLDP_SIZES}
        self.spec = three_type_spec()
        self.enumerate = self._write("enumerate.json", {"spec": self.spec.to_json_dict()})
        self.event_spec = binary_cross_spec(self.EVENT_N)
        self.target = matching_measure()
        self.census: Dict[str, int] = {}

    def _lldp_unit(self, n: int) -> Unit:
        return Unit(f"lldp n={n}", "lldp", ref.binary_cross_support(n),
                    self._cli("lldp", self.lldp[n]),
                    _cli_checked(lambda text: ref.check_lldp_csv(text, n)))

    def _event_unit(self) -> Unit:
        spec, target, n = self.event_spec, self.target, self.EVENT_N

        def run() -> Fraction:
            return oracle.exact_event_probability(spec, lambda mu: mu == target)
        return Unit(f"event n={n}", "event", ref.binary_cross_support(n), run,
                    lambda prob: ref.check_event_probability(prob, n))

    def warmup(self) -> Unit:
        return self._lldp_unit(4)

    def cycle(self) -> List[Unit]:
        units = [self._lldp_unit(n) for n in self.LLDP_SIZES]
        units.append(Unit("enumerate three5", "enumerate", self.THREE_TYPE_SUPPORT,
                          self._cli("enumerate", self.enumerate),
                          _cli_checked(lambda text: ref.check_enumerate_json(text, self.census))))
        units.append(self._event_unit())
        return [units[i] for i in self.rng.permutation(len(units))]

    def build_references(self) -> None:
        self.census = ref.brute_class_counts(self.spec)


# ---------------------------------------------------------------------------
# rate_sweep
# ---------------------------------------------------------------------------

class RateSweep(Workload):
    """Predicted rates: `graphld optimize` over events at c = 0.5..8 (slack
    and binding p(0) floors, a p(1) equality, a redundant mean equality, and
    criterion 5's event), with reference caps K cycling over 50, 75, 100; and
    `graphld rate` on truncated references in degree and typed form.  The
    seed only orders the cycle."""

    name = "rate_sweep"
    work_name = "solves and evaluations"
    BINDING = {0.5: (0.7, 0.9), 1.0: (0.5, 0.7), 2.0: (0.3, 0.4), 4.0: (0.1, 0.3),
               8.0: (0.01, 0.05)}
    CAPS = (50, 75, 100)

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        # (config path, (c, cap, point, r, relation) of the independent value, pinned value)
        self.solves: List[Tuple[str, Tuple[float, int, int, float, str], Any]] = []
        for c, binding in self.BINDING.items():
            events = [("ge", 0, 0.5 * float(np.exp(-c))), *(("ge", 0, r) for r in binding),
                      ("eq", 1, 0.2), ("mean", 0, c)]
            for relation, point, r in events:
                cap = self.CAPS[len(self.solves) % len(self.CAPS)]
                # pmf@1 on {0..1} equals the mean vector and would be read as
                # the mean, so each event's own cap is one above its point
                if relation == "mean":
                    constraints = {"K": 1, "eq": [{"f": "mean", "r": r}]}
                else:
                    constraints = {"K": point + 1, relation: [{"f": f"pmf@{point}", "r": r}]}
                path = self._write(f"optimize-{len(self.solves)}.json",
                                   {"c": c, "K": cap, "constraints": constraints})
                self.solves.append((path, (c, cap, point, r, relation), None))
        # criterion 5's event at the default cap, pinned to its published value
        path = self._write("optimize-criterion5.json", {
            "c": 2.0, "constraints": {"K": 1, "ge": [{"f": "pmf@0", "r": 0.4}]}})
        self.solves.append((path, (2.0, 50, 0, 0.4, "ge"), ref.V_STAR))
        self.rates = [self._write(f"rate-degree-{c}.json", {
            "c": c, "p": truncated_poisson(c, 45).to_json_dict(), "tol": 1e-6})
            for c in (0.5, 1.0, 2.0, 4.0)]
        eta = ProbMeasure({"a": 0.5, "b": 0.5})
        pi = FiniteMeasure({("a", "b"): 0.5, ("b", "a"): 0.5, ("a", "a"): 1.0})
        self.rates.append(self._write("rate-typed.json", {
            "eta": eta.to_json_dict(), "pi": pi.to_json_dict(),
            "p": ReferenceLaw(eta, pi).truncated(16).to_json_dict(), "tol": 1e-6}))
        self.expected: List[float] = []

    def _solve_unit(self, index: int) -> Unit:
        path, _, pinned = self.solves[index]
        check = _cli_checked(lambda text: ref.check_optimum_json(
            text, self.expected[index], pinned))
        return Unit(f"optimize #{index}", "optimize", 1, self._cli("optimize", path), check)

    def _rate_unit(self, path: str) -> Unit:
        return Unit(f"rate {Path(path).stem}", "rate", 1, self._cli("rate", path),
                    _cli_checked(ref.check_rate_json))

    def warmup(self) -> Unit:
        return self._solve_unit(len(self.solves) - 1)

    def cycle(self) -> List[Unit]:
        units = [self._solve_unit(i) for i in range(len(self.solves))]
        units += [self._rate_unit(path) for path in self.rates]
        return [units[i] for i in self.rng.permutation(len(units))]

    def build_references(self) -> None:
        self.expected = [ref.point_event_rate(*args) for _, args, _ in self.solves]


WORKLOADS = {w.name: w for w in (DecayMC, ClassMC, ExactCensus, RateSweep)}
