"""Experiment runners and command-line wiring."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from setuptools.config.pyprojecttoml import read_configuration

import graphld
import graphld.optimizer
from graphld.cli import (
    ExperimentRecord,
    _json_text,
    main,
    matching_measure,
    run_decay_study,
    run_measure,
    run_optimize,
    run_rate,
)
from graphld.graphs import TypedGraph
from graphld.measures import FiniteMeasure, ProbMeasure
from graphld.optimizer import ConstraintSet, minimize_relative_entropy, rate_infimum_for_event
from graphld.oracle import lldp_exponent_gap, type_class_counts
from graphld.rate import degree_rate, typed_rate
from graphld.sampler import binary_cross_spec, iter_er_degree_histograms
from helpers import fit_decay_slope, three_type_spec5
from oracles import isolated_tail_probability


def event_p0_at_least(threshold):
    return ConstraintSet(1, inequalities=[("pmf@0", threshold)])


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def test_run_measure_on_matching_graph():
    z = TypedGraph(["a", "a", "b", "b"], [(1, 3), (2, 4)])
    out = run_measure(z)
    assert out["type"] == {"a": 0.5, "b": 0.5}
    assert out["link"] == {"a,b": 0.5, "b,a": 0.5}
    assert out["locality"] == {"a|b:1": 0.5, "b|a:1": 0.5}
    assert out["degree"] == {"1": 1.0}


def test_run_rate_typed_infeasible():
    config = {
        "eta": {"a": 0.5, "b": 0.5},
        "pi": {"a,b": 1.0, "b,a": 1.0},
        "p": {"a|b:2": 1.0},
    }
    out = run_rate(config)
    assert out["value"] == "inf"
    assert out["feasible"] is False


def test_run_rate_degree_form():
    out = run_rate({"c": 2.0, "p": {"2": 1.0}})
    assert out["feasible"] is True
    assert out["value"] == pytest.approx(2 - math.log(2), rel=1e-12)


def test_run_optimize_mean_only_event():
    out = run_optimize({"c": 2.0, "constraints": {"K": 10, "eq": [{"f": "mean", "r": 2.0}]}})
    assert out["value"] <= 1e-8


def test_decay_full_space_event_estimates_zero():
    records = run_decay_study(2.0, [10, 20], samples=2000,
                              event=ConstraintSet(1), seed=5)
    for rec in records:
        assert rec.hits == rec.samples
        assert str(rec.estimate) == "0.0"  # not -0.0, which also == 0.0
        assert rec.stderr == 0.0


def test_decay_mean_event_always_holds():
    # every G(n, nc/2) degree law has mean exactly c
    events = [
        # K above the max degree
        ConstraintSet.from_json_dict({"K": 19, "eq": [{"f": "mean", "r": 2.0}]}),
        # K below it: the mean is still the mean of the whole degree law, as
        # the rate predictor reads it (predicted rate 0)
        ConstraintSet(2, inequalities=[("mean", 1.9)]),
    ]
    for event in events:
        records = run_decay_study(2.0, [10, 20], samples=2000, event=event, seed=6)
        for rec in records:
            assert rec.hits == rec.samples and rec.estimate == 0.0


def test_decay_no_hit_records_absence(tmp_path):
    # 18 of 20 nodes isolated cannot carry 20 links
    records = run_decay_study(2.0, [20], samples=5000,
                              event=event_p0_at_least(0.9), seed=7)
    [rec] = records
    assert rec.hits == 0
    assert rec.estimate is None and rec.stderr is None
    config = {"c": 2.0, "n_list": [20], "samples": 5000,
              "event": {"K": 1, "ge": [{"f": "pmf@0", "r": 0.9}]}}
    code, text = run_main(tmp_path, "decay", config, "--seed", "7")
    assert code == 0
    line = text.splitlines()[1]
    assert line.startswith("20,K1;ge[pmf@0>=0.9],,,")  # empty estimate fields
    assert json.loads(json.dumps(rec.to_json_dict()))["estimate"] is None


def test_decay_skips_non_integral_sizes():
    with pytest.warns(UserWarning, match="n=3"):
        records = run_decay_study(1.0, [3, 4], samples=500,
                                  event=ConstraintSet(1), seed=8)
    assert [rec.n for rec in records] == [4]


def test_decay_study_is_deterministic():
    kwargs = dict(c=2.0, n_list=[10, 20], samples=30_000,
                  event=event_p0_at_least(0.3), seed=99)
    first = run_decay_study(**kwargs)
    assert run_decay_study(**kwargs) == first
    assert run_decay_study(**{**kwargs, "seed": 100}) != first


def test_decay_validates_inputs():
    with pytest.raises(ValueError, match="strictly increasing"):
        run_decay_study(2.0, [20, 10], 100, ConstraintSet(1), seed=1)
    with pytest.raises(ValueError, match="samples"):
        run_decay_study(2.0, [10], 0, ConstraintSet(1), seed=1)


def test_decay_hits_of_an_equality_event_match_a_direct_integer_count():
    """{p(0) = r} at n = 6, c = 1 (m = 3) holds on a draw exactly when it has
    r n isolated nodes: 3 for r = 0.5, and none ever for 0.3333333333333333,
    whose r n is not an integer (a float tolerance of 1e-9 took 2 isolated
    nodes as a hit)."""
    n, m, samples, seed = 6, 3, 5000, 41
    near_third = 0
    for r in (0.5, 0.3333333333333333):
        event = ConstraintSet(1, equalities=[("pmf@0", r)])
        [rec] = run_decay_study(1.0, [n], samples, event, seed)
        # samples < SHARD_SIZE, so the study drew one shard, from this stream
        rng = np.random.default_rng([seed, n, 0])
        isolated = [int(row[0]) for hist in iter_er_degree_histograms(n, m, samples, rng)
                    for row in hist]
        assert rec.hits == sum(k == Fraction(repr(r)) * n for k in isolated)
        near_third = isolated.count(2)
    assert rec.hits == 0 < near_third


def test_fit_decay_slope_recovers_linear_rate():
    records = [ExperimentRecord(n, "e", (0.2 * n + 1.0) / n, 0.01, 0.2, 1000, 10)
               for n in (10, 20, 30)]
    assert fit_decay_slope(records) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError, match="two records"):
        fit_decay_slope(records[:1])


def test_isolated_tail_oracle_matches_enumeration():
    """The exact isolated-node oracle against a census of every m-edge graph
    on n <= 6 labelled nodes."""
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(len(pairs) + 1):
            isolated = []
            for edges in itertools.combinations(pairs, m):
                touched = {v for edge in edges for v in edge}
                isolated.append(n - len(touched))
            for r in ("0", "0.3", "0.5", "1"):
                hits = sum(i >= Fraction(r) * n for i in isolated)
                assert isolated_tail_probability(n, m, r) == \
                    Fraction(hits, len(isolated))


def test_decay_slope_tracks_predicted_rate_on_feasible_event():
    """End-to-end decay validation at an observable scale: for the event
    {p(0) >= 0.3} at c=2 each P-hat lies within 4 standard errors of the
    exact probability, the fitted slope of -log(P-hat) against n lands within
    25% of the projected rate, and the per-size gap to it shrinks."""
    event = event_p0_at_least(0.3)
    predicted = rate_infimum_for_event(2.0, event).value
    records = run_decay_study(2.0, [10, 20, 30, 40], samples=400_000,
                              event=event, seed=2024)
    assert all(rec.hits > 0 for rec in records)
    for rec in records:  # m = n c / 2 = n edges
        p = float(isolated_tail_probability(rec.n, rec.n, "0.3"))
        se = math.sqrt(p * (1 - p) / rec.samples)
        assert abs(rec.hits / rec.samples - p) <= 4 * se
    slope = fit_decay_slope(records)
    assert abs(slope - predicted) / predicted < 0.25
    gaps = [abs(rec.estimate - predicted) for rec in records]
    noise = [4 * rec.stderr for rec in records]
    assert all(gaps[i + 1] <= gaps[i] + noise[i + 1] for i in range(len(gaps) - 1))


def test_lldp_study_csv(tmp_path):
    code, text = run_main(tmp_path, "lldp", {"family": "binary-cross", "n_list": [4, 6]})
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "n,gap"
    assert lines[1].startswith("4,0.725346927")
    assert lines[2].startswith("6,0.560157111")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def test_main_sample_then_measure(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(
        {"spec": {"n": 4, "eta": {"a": 0.5, "b": 0.5},
                  "pi": {"a,b": 0.5, "b,a": 0.5}}}))
    graph_file = tmp_path / "graph.txt"
    assert main(["sample", "--config", str(spec_file), "--seed", "7",
                 "--out", str(graph_file)]) == 0
    text = graph_file.read_text()
    assert text.startswith("typedgraph v1\nn=4\n")

    measure_cfg = tmp_path / "measure.json"
    measure_cfg.write_text(json.dumps({"graph": str(graph_file)}))
    out_file = tmp_path / "measures.json"
    assert main(["measure", "--config", str(measure_cfg), "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["type"] == {"a": 0.5, "b": 0.5}
    assert payload["link"] == {"a,b": 0.5, "b,a": 0.5}


TWO_TYPE_SPEC = {"n": 8, "eta": {"a": 0.5, "b": 0.5},
                 "pi": {"a,a": 0.75, "a,b": 0.625, "b,a": 0.625, "b,b": 0.25}}


PINNED_SAMPLES = {
    "er-3": ({"er": {"n": 8, "m": 10}}, 3, "1 3,1 4,1 7,1 8,2 5,2 8,3 7,3 8,5 6,5 8"),
    "er-2024": ({"er": {"n": 8, "m": 10}}, 2024, "1 4,1 5,1 6,1 8,2 4,4 5,5 6,5 8,6 7,7 8"),
    "spec-3": ({"spec": TWO_TYPE_SPEC}, 3, "1 2,1 3,1 5,1 6,2 4,2 6,2 7,3 6,5 6"),
    "spec-2024": ({"spec": TWO_TYPE_SPEC}, 2024, "1 2,1 3,1 6,1 7,2 4,4 6,4 7,4 8,5 7"),
    "er-7": ({"er": {"n": 8, "m": 10}}, 7, "1 3,1 8,2 4,3 7,3 8,4 6,4 8,5 7,6 7,6 8"),
}


def pinned_sample_text(config, edges):
    types = "a a a a a a a a" if "er" in config else "a a a a b b b b"
    return f"typedgraph v1\nn=8\ntypes={types}\n" + \
        "".join(f"e {edge}\n" for edge in edges.split(","))


@pytest.mark.parametrize("config, seed, edges", PINNED_SAMPLES.values(), ids=list(PINNED_SAMPLES))
def test_main_sample_bytes_are_pinned(tmp_path, config, seed, edges):
    """Seeded ``sample`` output, byte for byte: the subset kernel's index
    stream for a batch of one and the pair decode of a diagonal (G(n, m),
    and blocks aa, bb) and a cross block (ab) fix every edge."""
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "graph.txt"
    assert main(["sample", "--config", str(config_file), "--seed", str(seed),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == pinned_sample_text(config, edges).encode()


def test_seed_is_read_by_the_one_integer_rule(tmp_path, capsys):
    """``int`` read ``--seed 1_0`` as 10 and " 7" and "+7" as 7, argparse
    exited 2 with usage lines on "x", and numpy refused "-1" without naming
    the flag: each exits 1 with one error line naming ``--seed``, for
    ``sample`` and ``decay``, while ``--seed 7`` keeps its pinned bytes."""
    config, _, edges = PINNED_SAMPLES["er-7"]
    decay = {"c": 2.0, "n_list": [10], "samples": 10, "event": {"K": 1}}
    for bad in ("1_0", " 7", "+7", "x", "-1", "-0"):
        for command, cfg in (("sample", config), ("decay", decay)):
            assert run_main(tmp_path, command, cfg, "--seed", bad) == (1, None)
            assert capsys.readouterr().err == f"error: invalid --seed {bad!r} (allowed: [0-9]+)\n"
    assert run_main(tmp_path, "sample", config, "--seed", "7") == \
        (0, pinned_sample_text(config, edges))


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    """Exit 2 means a guard, feasibility or convergence error, on which a
    script may fall back to Monte Carlo; argparse used to exit 2 on a
    missing or unknown subcommand and on an unknown ``--format``.  A missing
    ``--config`` is a usage error too."""
    for argv in ([], ["frob"], ["rate", "--format", "xml"], ["rate"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: graphld") and "error: " in err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: graphld")


def test_main_sample_requires_seed(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(
        {"spec": {"n": 2, "eta": {"a": 1.0}, "pi": {}}}))
    assert main(["sample", "--config", str(spec_file)]) == 1
    assert "--seed" in capsys.readouterr().err


def test_main_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["enumerate", "--config", str(bad)]) == 1
    missing_field = tmp_path / "missing.json"
    missing_field.write_text("{}")
    assert main(["enumerate", "--config", str(missing_field)]) == 1


def test_main_guard_and_feasibility_exit_codes(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(
        {"spec": {"n": 60, "eta": {"a": 1.0}, "pi": {"a,a": 0.5}}}))
    assert main(["enumerate", "--config", str(huge)]) == 2
    assert "Monte Carlo" in capsys.readouterr().err

    inadmissible = tmp_path / "inadm.json"
    inadmissible.write_text(json.dumps(
        {"spec": {"n": 3, "eta": {"a": 0.5, "b": 0.5}, "pi": {}}}))
    assert main(["sample", "--config", str(inadmissible), "--seed", "1"]) == 2

    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(json.dumps(
        {"c": 2.0, "constraints": {"K": 5, "ge": [{"f": "pmf@0", "r": 0.6},
                                                  {"f": "pmf@1", "r": 0.6}]}}))
    assert main(["optimize", "--config", str(infeasible)]) == 2


#: Criterion 5's event.  The solves that use it below stop after one trial
#: point, which does not reach the tolerances.
CRITERION_5 = {"c": 2.0, "constraints": {"K": 1, "ge": [{"f": "pmf@0", "r": 0.4}]}}


def stop_after_one_trial_point(monkeypatch):
    monkeypatch.setattr(graphld.optimizer, "MAX_ITERATIONS", 1)


def test_optimize_exits_2_without_output_when_the_solve_does_not_converge(
        tmp_path, capsys, monkeypatch):
    stop_after_one_trial_point(monkeypatch)
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps(CRITERION_5))
    out = tmp_path / "out.json"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    assert "did not converge: KKT residual" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_reads_pmf_at_one_on_cap_one_as_a_point_evaluation():
    """At K = 1, pmf@1 has the mean's vector (0, 1), but it is still p(1):
    the event solves as it does at K = 2, instead of as the infeasible
    {mean = 0.2} next to the appended mean = 2."""
    constraints = {"K": 1, "eq": [{"f": "pmf@1", "r": 0.2}]}
    assert ConstraintSet.from_json_dict(constraints).describe() == "K1;eq[pmf@1=0.2]"
    out = run_optimize({"c": 2.0, "constraints": constraints})
    wide = run_optimize({"c": 2.0, "constraints": {**constraints, "K": 2}})
    assert out["value"] == pytest.approx(wide["value"], abs=1e-14)
    assert out["dual_eq"] == pytest.approx(wide["dual_eq"], abs=1e-12)
    # the K = 2 law's p(2) is part of the K = 1 law's tail
    assert out["tail_mass"] == pytest.approx(wide["minimizer"]["2"] + wide["tail_mass"],
                                             abs=1e-14)
    assert out["value"] == pytest.approx(0.016111532840765642, rel=1e-12)


def test_optimize_reports_convergence_of_criterion_5_event():
    out = run_optimize({"c": 2.0, "constraints": {"K": 1, "ge": [{"f": "pmf@0", "r": 0.4}]}})
    assert out["converged"] is True
    assert out["kkt_residual"] <= 1e-6


def test_decay_warns_but_writes_when_the_prediction_does_not_converge(
        tmp_path, capsys, monkeypatch):
    stop_after_one_trial_point(monkeypatch)
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps({"c": 2.0, "n_list": [10], "samples": 100,
                               "event": CRITERION_5["constraints"]}))
    out = tmp_path / "decay.csv"
    assert main(["decay", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("warning: the predicted rate of K1;ge[pmf@0>=0.4] did not converge")
    assert out.read_text().splitlines()[1].startswith("10,K1;ge[pmf@0>=0.4],")


@pytest.mark.parametrize("c, n_list, code, err", [
    (1.0, [5, 6], 0, "warning: skipping n=5: n*c/2 = 2.5 is not an integer\n"),
    (9.0, [3, 4], 2, "warning: skipping n=3: n*c/2 = 13.5 is not an integer\n"
                     "error: block (a,a) needs 18 pairs but capacity is 6\n"),
], ids=["then-writes", "then-fails"])
def test_decay_prints_each_warning_as_one_line(tmp_path, capsys, c, n_list, code, err):
    """A skipped size printed Python's warning format: the file, line and
    category, then the source line of the ``warnings.warn`` call."""
    config = {"c": c, "n_list": n_list, "samples": 10, "event": {"K": 1}}
    assert run_main(tmp_path, "decay", config, "--seed", "1")[0] == code
    assert capsys.readouterr().err == err


def test_main_decay_csv_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps({
        "c": 2.0, "n_list": [10, 20], "samples": 20000,
        "event": {"K": 1, "ge": [{"f": "pmf@0", "r": 0.3}]},
    }))
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(["decay", "--config", str(cfg), "--seed", "11", "--out", str(out1)]) == 0
    assert main(["decay", "--config", str(cfg), "--seed", "11", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "n,event,estimate,stderr,predicted,samples,hits"


def test_main_lldp_family_shorthand(tmp_path):
    cfg = tmp_path / "lldp.json"
    cfg.write_text(json.dumps({"family": "binary-cross", "n_list": [4, 6]}))
    out = tmp_path / "gaps.csv"
    assert main(["lldp", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "n,gap"


def test_main_format_json_for_decay(tmp_path):
    cfg = tmp_path / "decay.json"
    cfg.write_text(json.dumps({
        "c": 2.0, "n_list": [10], "samples": 1000, "event": {"K": 1},
    }))
    out = tmp_path / "records.json"
    assert main(["decay", "--config", str(cfg), "--seed", "3",
                 "--format", "json", "--out", str(out)]) == 0
    [record] = json.loads(out.read_text())
    assert record["hits"] == 1000


def test_main_rejects_csv_for_json_only_commands(capsys):
    assert main(["measure", "--config", "x.json", "--format", "csv"]) == 1


def test_package_version_matches_the_project_metadata():
    """``graphld.__version__`` is the one source: pyproject.toml reads it."""
    config = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    assert config["project"]["version"] == graphld.__version__


def test_console_script_is_installed():
    result = subprocess.run([sys.executable, "-m", "graphld.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "decay" in result.stdout


# ---------------------------------------------------------------------------
# Every subcommand through main, and the README's config forms
# ---------------------------------------------------------------------------

def run_main(tmp_path, command, config, *extra):
    """``main`` on ``config`` written to a file: (exit code, output text)."""
    config_file = tmp_path / f"{command}.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / f"{command}.out"
    code = main([command, "--config", str(config_file), "--out", str(out), *extra])
    return code, out.read_text() if code == 0 else None


def seed_for(command):
    """``--seed 1`` for the subcommands that draw, which alone take it."""
    return ("--seed", "1") if command in ("sample", "decay") else ()


def json_round_trip(obj):
    return json.loads(json.dumps(obj))


def test_main_rate_degree_form(tmp_path):
    code, text = run_main(tmp_path, "rate", {"c": 2.0, "p": {"0": 0.25, "2": 0.75}})
    assert code == 0
    p = ProbMeasure({0: 0.25, 2: 0.75})
    assert json.loads(text) == json_round_trip(degree_rate(2.0, p).to_json_dict())


def test_main_rate_typed_form(tmp_path):
    config = {"eta": {"a": 0.5, "b": 0.5}, "pi": {"a,b": 1.0, "b,a": 1.0},
              "p": {"a|b:2": 0.5, "b|a:2": 0.5}}
    code, text = run_main(tmp_path, "rate", config)
    assert code == 0
    eta = ProbMeasure.from_json_dict(config["eta"], "type")
    pi = FiniteMeasure.from_json_dict(config["pi"], "pair")
    p = ProbMeasure.from_json_dict(config["p"], "locality")
    expected = typed_rate(eta, pi, p).to_json_dict()
    assert expected["feasible"] is True
    assert json.loads(text) == json_round_trip(expected)


def test_main_enumerate_writes_the_census(tmp_path):
    spec = three_type_spec5()
    code, text = run_main(tmp_path, "enumerate", {"spec": spec.to_json_dict()})
    assert code == 0
    assert json.loads(text) == json_round_trip(type_class_counts(spec).to_json_dict())
    assert "target_class" not in text and "event_probability" not in text


def test_main_optimize_reference_form(tmp_path):
    q = {"0": 0.4, "1": 0.3, "2": 0.2, "3": 0.1}
    constraints = {"K": 3, "eq": [{"f": "mean", "r": 1.5}], "ge": [{"f": "pmf@0", "r": 0.3}]}
    code, text = run_main(tmp_path, "optimize", {"q": q, "constraints": constraints})
    assert code == 0
    expected = minimize_relative_entropy(np.log([0.4, 0.3, 0.2, 0.1]),
                                         ConstraintSet.from_json_dict(constraints))
    assert expected.converged
    assert json.loads(text) == json_round_trip(expected.to_json_dict())


def test_main_lldp_json_format(tmp_path):
    code, text = run_main(tmp_path, "lldp", {"family": "binary-cross", "n_list": [4, 6]},
                          "--format", "json")
    assert code == 0
    rows = lldp_exponent_gap([binary_cross_spec(4), binary_cross_spec(6)], matching_measure())
    assert json.loads(text) == [{"n": n, "gap": gap} for n, gap in rows]


@pytest.mark.parametrize("n_list", [[4, 6], [4, 6, 8]])
def test_main_lldp_explicit_form_reads_target_weights_as_counts(tmp_path, n_list):
    """The README's explicit form: the float target weights 0.5 name the
    matching class, whose text is ``1/2``, at every n."""
    specs = [{"n": n, "eta": {"a": 0.5, "b": 0.5}, "pi": {"a,b": 0.5, "b,a": 0.5}}
             for n in n_list]
    explicit = {"specs": specs, "target": {"a|b:1": 0.5, "b|a:1": 0.5}}
    code, text = run_main(tmp_path, "lldp", explicit)
    assert code == 0
    assert (code, text) == run_main(tmp_path, "lldp", {"family": "binary-cross",
                                                       "n_list": n_list})
    if n_list == [4, 6]:
        assert text == "n,gap\n4,0.7253469278329726\n6,0.5601571117307902\n"


def test_main_lldp_target_weight_that_is_no_count_exits_2(tmp_path, capsys):
    spec = {"n": 4, "eta": {"a": 0.5, "b": 0.5}, "pi": {"a,b": 0.5, "b,a": 0.5}}
    config = {"specs": [spec], "target": {"a|b:1": 0.6, "b|a:1": 0.4}}
    assert run_main(tmp_path, "lldp", config)[0] == 2
    assert "n*p(a|b:1) = 2.4 is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("c, n, message", [
    (10.0, 5, "block (a,a) needs 25 pairs but capacity is 10"),
    (-0.4, 5, "G(n, m) needs n >= 1 and m >= 0, not G(5, -1)"),
    (2.0, 0, "G(n, m) needs n >= 1 and m >= 0, not G(0, 0)"),
], ids=["G(5,25)", "G(5,-1)", "G(0,0)"])
def test_impossible_erdos_renyi_exits_2_from_decay_and_sample(tmp_path, capsys, c, n, message):
    """``decay`` refuses an impossible G(n, nc/2) as ``sample`` refuses it, by
    the one G(n, m) check, before any draw.  A c <= 0 is refused first, by
    the solve of the predicted rate, as ``optimize`` refuses it."""
    m = round(n * c / 2)
    assert run_main(tmp_path, "sample", {"er": {"n": n, "m": m}}, "--seed", "1")[0] == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    decay = {"c": c, "n_list": [n], "samples": 100, "event": {"K": 1}}
    code, err = (2, message) if c > 0 else (1, "c must be > 0")
    assert run_main(tmp_path, "decay", decay, "--seed", "1")[0] == code
    assert capsys.readouterr().err == f"error: {err}\n"


LLDP_TARGET = {"a|b:1": 0.5, "b|a:1": 0.5}


@pytest.mark.parametrize("command, config, message", [
    ("optimize", {"c": 2.0, "constraints": {"K": 1, "ge": [{"f": "pmf@0"}]}},
     "missing field 'r'"),
    ("sample", {"er": {"n": 4}}, "missing field 'm'"),
    ("decay", {"c": 2.0, "n_list": "10", "samples": 100, "event": {"K": 1}},
     "n_list = '10' is not a list"),
    ("lldp", {"family": "binary-cross", "n_list": 4}, "n_list = 4 is not a list"),
    ("lldp", {"family": "binary-crosss", "n_list": [4]},
     "unknown family 'binary-crosss' (allowed: 'binary-cross')"),
    ("enumerate", {"spec": {"n": 4, "eta": {"a": 1}, "pi": {"a,a": "x"}}},
     "weight 'x' at key ('a', 'a') is not a number"),
    ("optimize", {"c": -2.0, "constraints": {"K": 1}}, "c must be > 0"),
    ("decay", {"c": -2.0, "n_list": [10], "samples": 100, "event": {"K": 1}}, "c must be > 0"),
    ("lldp", {"specs": "ab", "target": LLDP_TARGET}, "specs = 'ab' is not a list"),
    ("lldp", {"specs": [3], "target": LLDP_TARGET},
     "expected a JSON object with field 'n', not 3"),
    ("decay", {"c": 2.0, "n_list": [10], "samples": 100, "event": [1]},
     "event = [1] is not a JSON object"),
    ("sample", {"er": [4, 4]}, "er = [4, 4] is not a JSON object"),
    ("optimize", {"c": 2.0, "constraints": {"K": 1, "ge": [1]}},
     "expected a JSON object with field 'f', not 1"),
    ("optimize", {"c": 2.0, "constraints": {"K": 1, "eq": 5}}, "eq = 5 is not a list"),
    ("rate", {"c": 2.0, "p": {"2": 1.0}, "tol": -1}, "tol must be >= 0"),
], ids=["optimize.r", "sample.er.m", "decay.n_list", "lldp.n_list", "lldp.family",
        "enumerate.pi-string", "optimize.c", "decay.c", "lldp.specs-string", "lldp.specs-item",
        "decay.event-list", "sample.er-list", "optimize.ge-item", "optimize.eq-int",
        "rate.tol-negative"])
def test_config_errors_exit_1_naming_the_field(tmp_path, capsys, command, config, message):
    """These printed the bare ``KeyError`` (``'r'``), read a string n_list
    digit by digit (``n_list = '1' is not an integer``), printed a Python
    message (``'int' object is not iterable``, ``'<' not supported between
    instances of 'str' and 'int'``, ``string indices must be integers``,
    ``'int' object is not subscriptable``), or, for ``decay`` at c = -2,
    named the G(10, -10) it makes and exited 2: the predicted rate is now
    solved before the sizes are checked.  Every field is read by
    ``measures.config_field``.  The degree form of ``rate`` read a negative
    ``tol`` as an infeasible measure; the typed form already refused it.  An
    unknown ``lldp`` family was read as the explicit form, which named the
    missing ``specs``."""
    assert run_main(tmp_path, command, config, *seed_for(command)) == (1, None)
    assert capsys.readouterr().err == f"error: {message}\n"


def test_main_lets_an_internal_key_error_propagate(tmp_path, monkeypatch):
    """A KeyError raised inside the program is a bug, not a missing config
    field: ``main`` no longer reports it as ``error: missing field 'x'``."""
    def broken(config):
        raise KeyError("x")

    monkeypatch.setattr(graphld.cli, "run_rate", broken)
    with pytest.raises(KeyError, match="'x'"):
        run_main(tmp_path, "rate", {"c": 2.0, "p": {"2": 1.0}})


SPEC4 = {"n": 4, "eta": {"a": 0.5, "b": 0.5}, "pi": {"a,b": 0.5, "b,a": 0.5}}
DECAY_EVENT = {"K": 1, "ge": [{"f": "pmf@0", "r": 0.3}]}
DECAY_CONFIG = {"c": 2.0, "n_list": [10], "samples": 200, "event": DECAY_EVENT}
OPTIMIZE_CONFIG = {"c": 2.0, "constraints": DECAY_EVENT}


#: The options each subcommand takes, true where required.
OPTIONS = {
    "sample": {"--config": True, "--out": False, "--seed": True},
    "measure": {"--config": True, "--out": False},
    "rate": {"--config": True, "--out": False},
    "enumerate": {"--config": True, "--out": False},
    "optimize": {"--config": True, "--out": False},
    "decay": {"--config": True, "--out": False, "--seed": True, "--format": False},
    "lldp": {"--config": True, "--out": False, "--format": False},
}


@pytest.mark.parametrize("command", OPTIONS)
def test_each_subcommand_takes_only_the_options_it_reads(tmp_path, capsys, command):
    """Every subcommand used to take ``--seed`` and ``--format``, so
    ``rate --seed 5``, ``lldp --seed 1`` and ``optimize --format json``
    exited 0 and ignored the option: an option a subcommand does not read is
    now a usage error, on a config it runs, with the subcommand's own usage."""
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert {name: not bracket for bracket, name in re.findall(r"(\[?)(--[a-z]+)", usage)} == \
        OPTIONS[command]
    graph = tmp_path / "graph.txt"
    graph.write_text("typedgraph v1\nn=2\ntypes=a a\ne 1 2\n")
    config = {"sample": {"er": {"n": 4, "m": 2}}, "measure": {"graph": str(graph)},
              "rate": {"c": 2.0, "p": {"2": 1.0}}, "enumerate": {"spec": SPEC4},
              "optimize": OPTIMIZE_CONFIG, "decay": DECAY_CONFIG,
              "lldp": {"family": "binary-cross", "n_list": [4]}}[command]
    assert run_main(tmp_path, command, config, *seed_for(command))[0] == 0
    for option in (("--seed", "5"), ("--format", "json")):
        if option[0] not in OPTIONS[command]:
            assert run_main(tmp_path, command, config, *seed_for(command), *option) == (1, None)
            err = capsys.readouterr().err
            assert err.startswith(f"usage: graphld {command} ")
            assert err.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")


@pytest.mark.parametrize("command, config, path, name, extra", [
    ("sample", {"spec": SPEC4}, ("spec", "n"), "n", ("--seed", "5")),
    ("enumerate", {"spec": SPEC4}, ("spec", "n"), "n", ()),
    ("sample", {"er": {"n": 6, "m": 4}}, ("er", "n"), "er.n", ("--seed", "5")),
    ("sample", {"er": {"n": 6, "m": 4}}, ("er", "m"), "er.m", ("--seed", "5")),
    ("decay", DECAY_CONFIG, ("n_list", 0), "n_list", ("--seed", "5")),
    ("decay", DECAY_CONFIG, ("samples",), "samples", ("--seed", "5")),
    ("decay", DECAY_CONFIG, ("event", "K"), "K", ("--seed", "5")),
    ("lldp", {"family": "binary-cross", "n_list": [4]}, ("n_list", 0), "n_list", ()),
    ("lldp", {"specs": [SPEC4], "target": {"a|b:1": 0.5, "b|a:1": 0.5}},
     ("specs", 0, "n"), "n", ()),
    ("optimize", OPTIMIZE_CONFIG, ("constraints", "K"), "K", ()),
], ids=["sample.spec.n", "enumerate.spec.n", "sample.er.n", "sample.er.m", "decay.n_list",
        "decay.samples", "decay.event.K", "lldp.n_list", "lldp.specs.n",
        "optimize.constraints.K"])
def test_integer_config_fields_read_integral_floats_and_refuse_the_rest(
        tmp_path, capsys, command, config, path, name, extra):
    """An int and the float of the same value give the same bytes; a
    fraction, a string or a boolean exits 1, naming the field, where
    ``int(...)`` used to truncate or convert it."""
    def with_value(value):
        copy = json.loads(json.dumps(config))
        node = copy
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return copy

    node = config
    for key in path:
        node = node[key]
    code, text = run_main(tmp_path, command, config, *extra)
    assert code == 0
    assert run_main(tmp_path, command, with_value(float(node)), *extra) == (0, text)
    capsys.readouterr()
    for bad in (node + 0.5, str(node), True):
        assert run_main(tmp_path, command, with_value(bad), *extra) == (1, None)
        assert f"{name} = {bad!r} is not an integer" in capsys.readouterr().err


DECAY_FIELDS = '"n_list": [4], "samples": 10, "event": {"K": 1, "ge": [{"f": "pmf@0", "r": 0.2}]}'


@pytest.mark.parametrize("command, text, error", [
    ("sample", '{"spec": {"n": 4, "eta": {"a": 1}, "pi": {"a,a": Infinity}}}',
     "Infinity is not a finite JSON number"),
    ("sample", '{"spec": {"n": 4, "eta": {"a": 1}, "pi": {"a,a": 1e400}}}',
     "1e400 is not a finite JSON number"),
    ("enumerate", '{"spec": {"n": 4, "eta": {"a": 1}, "pi": {"a,a": Infinity}}}',
     "Infinity is not a finite JSON number"),
    ("enumerate", '{"spec": {"n": 4, "eta": {"a": 1}, "pi": {"a,a": 1e400}}}',
     "1e400 is not a finite JSON number"),
    ("decay", '{"c": Infinity, ' + DECAY_FIELDS + '}', "Infinity is not a finite JSON number"),
    ("decay", '{"c": NaN, ' + DECAY_FIELDS + '}', "NaN is not a finite JSON number"),
    ("optimize", '{"c": 2.0, "constraints": {"K": 1, "ge": [{"f": "pmf@0", "r": -Infinity}]}}',
     "-Infinity is not a finite JSON number"),
    ("rate", '{"c": Infinity, "p": {"0": 0.5, "1": 0.5}}',
     "Infinity is not a finite JSON number"),
], ids=["sample.inf", "sample.1e400", "enumerate.inf", "enumerate.1e400", "decay.inf",
        "decay.nan", "optimize.-inf", "rate.inf"])
def test_configs_must_be_standard_json(tmp_path, capsys, command, text, error):
    """NaN, Infinity and float literals that overflow exit 1 with an error
    line and write nothing.  They used to raise OverflowError from the count
    rule, reach linprog, or (``rate``) write Infinity, which is not JSON."""
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), *seed_for(command), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_json_output_refuses_non_finite_numbers():
    with pytest.raises(ValueError, match="JSON"):
        _json_text({"tv_marginal": math.inf})


@pytest.mark.parametrize("spec", [
    {"n": 4, "eta": {"a": True}, "pi": {"a,a": 1}},
    {"n": 4, "eta": {"a": 1}, "pi": {"a,a": True}},
], ids=["eta", "pi"])
def test_bool_weights_exit_1(tmp_path, capsys, spec):
    """A bool weight used to read as 1 and draw a graph."""
    assert run_main(tmp_path, "sample", {"spec": spec}, "--seed", "1") == (1, None)
    assert capsys.readouterr().err.startswith("error: bool weight True at key")


@pytest.mark.parametrize("spec, message", [
    ({"n": 0, "eta": {"a": 1}, "pi": {}}, "n = 0 must be >= 1"),
    ({"n": 4, "eta": {"a": 0.5, "b": 0.5}, "pi": {"a,b": 0.5}},
     "link law is not symmetric at ('a', 'b')"),
    ({"n": 4, "eta": {"a": 1}, "pi": {"a,c": 0.5, "c,a": 0.5}},
     "link law key ('a', 'c') outside the alphabet"),
], ids=["n=0", "asymmetric", "outside-alphabet"])
def test_malformed_spec_laws_exit_2_from_sample(tmp_path, capsys, spec, message):
    assert run_main(tmp_path, "sample", {"spec": spec}, "--seed", "1") == (2, None)
    assert capsys.readouterr().err == f"error: {message}\n"


HUGE = 10**400  # standard JSON, but beyond the float range
RATE_CONFIG = {"c": 2.0, "p": {"2": 1.0}, "tol": 1.0}
EXPLICIT_CONFIG = {"c": 2.0, "constraints": {"K": 1, "ge": [{"f": {"0": 1.0}, "r": 0.3}]}}
REFERENCE_CONFIG = {"q": {"0": 1.0, "1": 2.0, "2": 1.0},
                    "constraints": {"K": 2, "ge": [{"f": "pmf@0", "r": 0.5}]}}


@pytest.mark.parametrize("command, config, path, name, extra", [
    ("decay", DECAY_CONFIG, ("c",), "c", ("--seed", "5")),
    ("rate", RATE_CONFIG, ("c",), "c", ()),
    ("rate", RATE_CONFIG, ("tol",), "tol", ()),
    ("optimize", OPTIMIZE_CONFIG, ("c",), "c", ()),
    ("optimize", OPTIMIZE_CONFIG, ("constraints", "ge", 0, "r"), "r", ()),
    ("optimize", EXPLICIT_CONFIG, ("constraints", "ge", 0, "f", "0"), "coefficient[0]", ()),
    ("optimize", REFERENCE_CONFIG, ("q", "1"), "q[1]", ()),
], ids=["decay.c", "rate.c", "rate.tol", "optimize.c", "optimize.r", "optimize.coefficient",
        "optimize.q"])
def test_float_config_fields_read_numbers_and_refuse_the_rest(
        tmp_path, capsys, command, config, path, name, extra):
    """An integral float and its int give the same bytes; a bool, a string
    or an int beyond the float range exits 1, naming the field; the huge
    int by its digit count, not its 401 digits.  A bool used to read as 0 or
    1 (``rate`` at c = 1.0, ``optimize`` at r = 0.0), and a huge int ended in
    an OverflowError traceback."""
    def with_value(value):
        copy = json.loads(json.dumps(config))
        node = copy
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return copy

    node = config
    for key in path:
        node = node[key]
    code, text = run_main(tmp_path, command, config, *extra)
    assert code == 0
    if node.is_integer():
        assert run_main(tmp_path, command, with_value(int(node)), *extra) == (0, text)
    capsys.readouterr()
    for bad in (True, False, str(node)):
        assert run_main(tmp_path, command, with_value(bad), *extra) == (1, None)
        assert capsys.readouterr().err == f"error: {name} = {bad!r} is not a finite number\n"
    for bad in (HUGE, -HUGE):
        assert run_main(tmp_path, command, with_value(bad), *extra) == (1, None)
        assert capsys.readouterr().err == \
            f"error: {name} is an integer of 401 digits, beyond the float range\n"


def test_main_measure_refuses_an_invalid_label_in_a_graph_file(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("typedgraph v1\nn=3\ntypes=a b! a\ne 1 2\n")
    assert run_main(tmp_path, "measure", {"graph": str(graph)}) == (1, None)
    assert capsys.readouterr().err == \
        "error: line 3: invalid type label 'b!' (allowed: [A-Za-z0-9_.-]+)\n"


@pytest.mark.parametrize("text, message", [
    ("typedgraph v1\nn=0_3\ntypes=a a a\ne 1 2\n", "line 2 must be 'n=<int>'"),
    ("typedgraph v1\nn=3\ntypes=a a a\ne 1 \u0663\n",
     "line 4: expected 'e <u> <v>', got 'e 1 \u0663'"),
], ids=["n-underscore", "endpoint-arabic-indic"])
def test_main_measure_refuses_a_bad_integer_in_a_graph_file(tmp_path, capsys, text, message):
    """``int`` read ``n=0_3`` as 3 and an Arabic-Indic 3 as 3, so a file
    that is not canonical ``typedgraph v1`` loaded."""
    graph = tmp_path / "graph.txt"
    graph.write_text(text, encoding="utf-8")
    assert run_main(tmp_path, "measure", {"graph": str(graph)}) == (1, None)
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, config, first, second", [
    ("rate", {"c": 2.0, "p": {"2": 1.0, "02": 1.0}}, "2", "02"),
    ("optimize", {"q": {"0": 1.0, "1": 2.0, "01": 5.0, "2": 1.0},
                  "constraints": {"K": 2, "ge": [{"f": "pmf@0", "r": 0.5}]}}, "1", "01"),
    ("rate", {"eta": {"a": 0.5, "b": 0.5}, "pi": {"a,b": 1.0, "b,a": 1.0},
              "p": {"a|b:1,b:2": 0.5, "a|b:3": 0.5}}, "a|b:1,b:2", "a|b:3"),
    ("optimize", {"c": 2.0, "constraints": {"K": 2, "ge": [{"f": {"1": 1.0, "01": 0.0},
                                                            "r": 0.5}]}}, "1", "01"),
], ids=["rate.degree", "optimize.q", "rate.locality", "optimize.coefficient"])
def test_two_spellings_of_one_key_exit_1(tmp_path, capsys, command, config, first, second):
    """A later spelling of a key used to overwrite the earlier one: ``rate``
    dropped a unit of mass, ``optimize`` read q(1) = 5 and a coefficient of
    0 in place of 1."""
    assert run_main(tmp_path, command, config) == (1, None)
    assert capsys.readouterr().err == f"error: keys {first!r} and {second!r} are the same key\n"


@pytest.mark.parametrize("command, config, message", [
    ("rate", {"c": 2.0, "p": [1]}, "expected a JSON object of keys, not [1]"),
    ("enumerate", {"spec": {"n": 4, "eta": [1], "pi": {}}},
     "expected a JSON object of keys, not [1]"),
    ("optimize", {"q": [1, 2, 3], "constraints": {"K": 2, "ge": [{"f": "pmf@0", "r": 0.5}]}},
     "expected a JSON object of keys, not [1, 2, 3]"),
    ("rate", [1], "a config must be a JSON object, not [1]"),
    ("lldp", "binary-cross", "a config must be a JSON object, not 'binary-cross'"),
    ("optimize", {**REFERENCE_CONFIG, "q": {**REFERENCE_CONFIG["q"], "7": 1.0}},
     "q index 7 outside 0..2"),
    ("optimize", {**REFERENCE_CONFIG, "q": {"-1": 1.0, **REFERENCE_CONFIG["q"]}},
     "q index -1 outside 0..2"),
    ("measure", {"graph": 1}, "graph = 1 is not a file path"),
    ("measure", {"graph": None}, "graph = None is not a file path"),
    ("rate", {"c": 10.0, "p": {"1_0": 1.0}}, "invalid degree key '1_0' (allowed: -?[0-9]+)"),
    ("optimize", {**REFERENCE_CONFIG, "q": {" 0": 1.0, "1": 2.0, "2": 1.0}},
     "invalid degree key ' 0' (allowed: -?[0-9]+)"),
    ("optimize", {"c": 2.0, "constraints": {"K": 2, "ge": [{"f": {"+1": 1.0}, "r": 0.5}]}},
     "invalid degree key '+1' (allowed: -?[0-9]+)"),
    ("rate", {"c": 1.0, "p": {"\u0661": 1.0}},
     "invalid degree key '\u0661' (allowed: -?[0-9]+)"),
    ("optimize", {"c": 2.0, "constraints": {"K": 10, "ge": [{"f": "pmf@1_0", "r": 0.1}]}},
     "invalid degree key '1_0' (allowed: -?[0-9]+)"),
    ("rate", {"eta": {"a": 0.5, "b": 0.5}, "pi": {"a,b": 1.0, "b,a": 1.0},
              "p": {"a|b:0_2": 0.5, "b|a:+2": 0.5}},
     "malformed counting-measure entry 'b:0_2'"),
    ("lldp", {"specs": [SPEC4], "target": {"a|b:1_0": 0.5, "b|a:1": 0.5}},
     "malformed counting-measure entry 'b:1_0'"),
], ids=["rate.p-list", "enumerate.eta-list", "optimize.q-list", "rate.config-list",
        "lldp.config-string", "optimize.q-key-7", "optimize.q-key--1", "measure.graph-int",
        "measure.graph-null", "rate.degree-underscore", "optimize.q-space",
        "optimize.coefficient-plus", "rate.degree-arabic-indic", "optimize.pmf-underscore",
        "rate.locality-count-underscore", "lldp.target-count-underscore"])
def test_malformed_configs_exit_1_with_one_error_line(tmp_path, capsys, command, config,
                                                      message):
    """A list where a map is expected used to end in an AttributeError
    traceback; ``optimize`` dropped q keys outside 0..K and exited 0;
    ``measure`` passed an int ``graph`` to ``open``, which read it as a file
    descriptor and closed it (here, the process's stdout); and ``int`` read
    the degree keys "1_0" as 10, " 0" as 0, "+1" and the Arabic-Indic one
    as 1, and the locality counts "0_2" as 2 and "1_0" as 10."""
    assert run_main(tmp_path, command, config) == (1, None)
    assert capsys.readouterr().err == f"error: {message}\n"
    os.fstat(1)  # stdout is still open


@pytest.mark.parametrize("command, config", [
    ("optimize", {"c": 2.0, "constraints": {"K": 30, "ge": [{"f": "pmf@0", "r": 0.4}]}}),
    ("decay", {"c": 2.0, "n_list": [10], "samples": 10,
               "event": {"K": 30, "ge": [{"f": "pmf@0", "r": 0.4}]}}),
], ids=["optimize", "decay"])
def test_a_top_level_k_is_not_read(tmp_path, command, config):
    """The event is solved on all of the degrees, so no reference cap is
    read: a top-level "K", even below the event's, changes no byte."""
    code, text = run_main(tmp_path, command, config, *seed_for(command))
    assert code == 0
    assert run_main(tmp_path, command, {**config, "K": 20}, *seed_for(command)) == (0, text)


P0_98 = {"c": 2.0, "constraints": {"K": 1, "ge": [{"f": "pmf@0", "r": 0.98}]}}


def test_optimize_solves_an_event_met_only_beyond_the_former_default_cap(tmp_path):
    """2 % of the mass must carry mean 2, which no law on 0..50 does; on all
    of the degrees the tail carries it, as Poisson(2) tilted to mean 100."""
    code, text = run_main(tmp_path, "optimize", P0_98)
    assert code == 0
    out = json.loads(text)
    assert out["converged"] is True
    assert out["value"] == pytest.approx(7.726006897580, abs=1e-9)
    assert set(out["minimizer"]) == {"0", "1"}
    assert out["tail_mass"] == pytest.approx(0.02, abs=1e-8)
    assert out["tail_mean"] == pytest.approx(100.0, rel=1e-6)


def test_optimize_refuses_an_event_met_only_by_mass_escaping_to_infinity(tmp_path, capsys):
    config = {**P0_98, "constraints": {"K": 1, "ge": [{"f": "pmf@0", "r": 1.0}]}}
    assert run_main(tmp_path, "optimize", config) == (2, None)
    assert capsys.readouterr().err.startswith(
        "error: no degree law on 0, 1, ... satisfies the constraints")


ZERO_WEIGHT_Q = {"0": 1.0, "1": 1.0}


def test_a_zero_reference_weight_drops_its_degree(tmp_path):
    """q(2) = 0 forces p(2) = 0: the event on 0..2 solves as it does on 0..1."""
    ge = [{"f": "pmf@0", "r": 0.6}]
    code, text = run_main(tmp_path, "optimize",
                          {"q": ZERO_WEIGHT_Q, "constraints": {"K": 2, "ge": ge}})
    assert code == 0
    assert run_main(tmp_path, "optimize",
                    {"q": ZERO_WEIGHT_Q, "constraints": {"K": 1, "ge": ge}}) == (0, text)
    # p = (0.6, 0.4) against q = (1, 1): the value is minus its entropy
    assert json.loads(text)["value"] == pytest.approx(0.6 * math.log(0.6) + 0.4 * math.log(0.4),
                                                      abs=1e-9)


def test_an_event_on_a_zero_weight_degree_is_infeasible(tmp_path, capsys):
    config = {"q": ZERO_WEIGHT_Q, "constraints": {"K": 2, "ge": [{"f": "pmf@2", "r": 0.1}]}}
    assert run_main(tmp_path, "optimize", config) == (2, None)
    assert "no degree law on 0..2 satisfies the constraints" in capsys.readouterr().err


@pytest.mark.parametrize("q", [{"0": 1.0, "1": -1.0}, {"0": 0.0}, {}],
                         ids=["negative", "zero", "empty"])
def test_a_negative_or_all_zero_reference_is_refused(tmp_path, capsys, q):
    config = {"q": q, "constraints": {"K": 1, "ge": [{"f": "pmf@0", "r": 0.5}]}}
    assert run_main(tmp_path, "optimize", config) == (1, None)
    assert capsys.readouterr().err == ("error: reference law must be finite and non-negative "
                                       "on 0..L, and positive somewhere\n")


def test_output_goes_to_stdout_without_out(tmp_path, capsys):
    config = {"c": 2.0, "p": {"0": 0.25, "2": 0.75}}
    code, text = run_main(tmp_path, "rate", config)
    assert code == 0
    assert main(["rate", "--config", str(tmp_path / "rate.json")]) == 0
    assert capsys.readouterr().out == text

