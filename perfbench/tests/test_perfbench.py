"""Tests of the benchmark itself: every workload reports every metric, and
every output check rejects a corrupted result.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import graphld.oracle  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace, section):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "rate_sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_highest_percentile_with_ten_units_beyond():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


# ---------------------------------------------------------------------------
# Each check fails on a corrupted result
# ---------------------------------------------------------------------------

def _corrupt_csv_field(text: str, column: int, change) -> str:
    header, row = text.splitlines()
    fields = row.split(",")
    fields[column] = change(fields[column])
    return f"{header}\n{','.join(fields)}\n"


def test_decay_law_check_rejects_doubled_hits(tmp_path):
    bench = workloads.DecayMC(tmp_path, 5)
    bench.build_references()
    units = [bench.warmup() for _ in range(4)]      # sparse n = 50
    done = [(unit, unit.run()) for unit in units]
    assert all(not unit.check(out) for unit, out in done)
    assert not any(bench.law_problems(done).values())
    doubled = [(unit, (code, _corrupt_csv_field(text, 6, lambda h: str(2 * int(h)))))
               for unit, (code, text) in done]
    assert any(bench.law_problems(doubled).values())


def test_class_checks_reject_a_moved_class(tmp_path):
    bench = workloads.ClassMC(tmp_path, 5)
    bench.build_references()
    units = [bench._unit("binary8") for _ in range(5)]
    done = [(unit, unit.run()) for unit in units]
    assert all(not unit.check(out) for unit, out in done)
    assert not any(bench.law_problems(done).values())
    census = bench.census["binary8"]
    keys = sorted(census, key=census.get)
    rare, common = keys[0], keys[-1]

    def move(counts):
        moved = dict(counts)
        moved[rare] = moved.get(rare, 0) + moved.pop(common, 0)
        return moved
    assert any(bench.law_problems([(unit, move(out)) for unit, out in done]).values())
    renamed = dict(done[0][1])
    renamed["a|b:9\t1"] = renamed.pop(common)
    assert done[0][0].check(renamed)


def test_lldp_check_rejects_gap_off_by_1e_9(tmp_path):
    bench = workloads.ExactCensus(tmp_path, 5)
    unit = bench._lldp_unit(6)
    code, text = unit.run()
    assert code == 0 and not unit.check((code, text))
    shifted = _corrupt_csv_field(text, 1, lambda g: repr(float(g) + 1e-9))
    assert unit.check((code, shifted))


def test_census_checks_reject_wrong_counts(tmp_path):
    bench = workloads.ExactCensus(tmp_path, 5)
    bench.build_references()
    unit = next(u for u in bench.cycle() if u.group == "enumerate")
    code, text = unit.run()
    assert not unit.check((code, text))
    report = json.loads(text)
    key = sorted(report["class_counts"])[0]
    report["class_counts"][key] += 1
    assert unit.check((code, json.dumps(report)))
    event = bench._event_unit()
    prob = event.run()
    assert not event.check(prob)
    assert event.check(prob + Fraction(1, ref.binary_cross_support(bench.EVENT_N)))


def test_optimum_check_rejects_value_off_by_1e_5(tmp_path):
    bench = workloads.RateSweep(tmp_path, 5)
    bench.build_references()
    unit = bench.warmup()                           # criterion 5's event
    code, text = unit.run()
    assert not unit.check((code, text))
    out = json.loads(text)
    assert abs(out["value"] - ref.V_STAR) <= 1e-6
    out["value"] += 1e-5
    assert unit.check((code, json.dumps(out)))
    rate = bench._rate_unit(bench.rates[-1])
    code, text = rate.run()
    assert not rate.check((code, text))
    assert rate.check((code, text.replace('"feasible": true', '"feasible": false')))


def test_point_event_reference_matches_criterion_5():
    assert abs(ref.point_event_rate(2.0, 50, 0, 0.4, "ge") - ref.V_STAR) <= 1e-9


def test_isolated_tail_probability_by_enumeration():
    """Exact P{>= 1 isolated node} in G(4, 3), against listing all 20 graphs."""
    import itertools
    pairs = list(itertools.combinations(range(4), 2))
    graphs = list(itertools.combinations(pairs, 3))
    isolated = sum(1 for g in graphs if len({v for e in g for v in e}) < 4)
    assert ref.isolated_tail_probability(4, 3, 1) == Fraction(isolated, len(graphs))


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_tracing_counts_spans_and_restores_the_program(tmp_path):
    original = graphld.oracle.sampled_class_counts
    bench = workloads.ClassMC(tmp_path, 5)
    tracer = tracing.Tracer("class_mc")
    with tracing.installed(tracer):
        done = run.run_units([bench._unit("binary4")], tracer)
    assert graphld.oracle.sampled_class_counts is original
    assert tracer.calls["sampler.ConditionalSampler.sample_edges"] == bench.DRAWS
    assert tracer.calls["graphs.locality_atoms_of"] == bench.DRAWS
    assert tracer.counts["oracle.sampled_class_counts.classes"] == len(done[0][1])
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert 0 < metrics["sampler.ConditionalSampler.sample_edges.self_s"] < 1.0
    assert tracer.write(tmp_path / "spans.tsv.gz", {}) == tracer._next_id
