"""Golden outputs: each entry of ``golden.json``, run through ``cli.main`` in
process, gives its recorded exit code, sha256 of stdout and first stderr
line.  stdout and ``--out`` are written by one function, so the digests pin
both.

An entry is a subcommand, an inline config (or ``config_text``, the file's
text, for a config that is not standard JSON), a ``seed`` and ``format``
where the subcommand takes them, and extra ``args`` for a usage refusal; a
``graph`` is written to a file whose path becomes the config's ``graph``.
A change that moves a digest bumps the version and names each moved entry
and its reason in CHANGES.md.  Seeded digests (``sample``, ``decay``) also
depend on numpy's ``Generator`` streams; the manifest records the numpy
version they were taken under.

Rewrite the recorded fields from the current tree with
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from graphld.cli import main
from graphld.measures import FiniteMeasure, ProbMeasure
from graphld.rate import ReferenceLaw, truncated_poisson

MANIFEST = Path(__file__).resolve().parent / "golden.json"
GOLDEN = json.loads(MANIFEST.read_text(encoding="utf-8"))
RECORDED = ("exit", "stdout_sha256", "stderr")


def run_entry(entry, workdir: Path):
    """``main`` on one entry: its exit code, sha256 of stdout and first stderr line."""
    path = workdir / "config.json"
    if "config_text" in entry:  # a config that is not standard JSON, written as is
        path.write_text(entry["config_text"], encoding="utf-8")
    else:
        config = dict(entry["config"])
        if "graph" in entry:
            graph = workdir / "graph.txt"
            graph.write_text(entry["graph"], encoding="utf-8")
            config["graph"] = str(graph)
        path.write_text(json.dumps(config), encoding="utf-8")
    argv = [entry["command"], "--config", str(path)]
    if "seed" in entry:
        argv += ["--seed", str(entry["seed"])]
    if "format" in entry:
        argv += ["--format", entry["format"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + entry.get("args", []))
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "stderr": (err.getvalue().splitlines() or [""])[0]}


@pytest.mark.parametrize("entry", GOLDEN["entries"], ids=[e["id"] for e in GOLDEN["entries"]])
def test_golden_output(tmp_path, entry):
    got = run_entry(entry, tmp_path)
    want = {key: entry[key] for key in RECORDED}
    if got != want and "seed" in entry and np.__version__ != GOLDEN["numpy"]:
        pytest.fail(f"{got} != {want}, but the digests were taken under numpy "
                    f"{GOLDEN['numpy']} and this is numpy {np.__version__}, whose "
                    f"Generator streams may differ")
    assert got == want


def test_rate_sweep_references_keep_their_weights():
    """The benchmark's ``rate`` references, rebuilt here, equal the recorded
    configs weight by weight: ``truncated_poisson(c, 45)`` and the typed law's
    ``truncated(16)``; so does the 1,722-atom ``truncated(40)`` of a law with
    all four pair rates positive."""
    entries = {e["id"]: e.get("config") for e in GOLDEN["entries"]}
    for c in (0.5, 1.0, 2.0, 4.0):
        assert truncated_poisson(c, 45).to_json_dict() == entries[f"rate.sweep-degree-{c}"]["p"]
    for entry, cap, atoms in (("rate.sweep-typed", 16, 170), ("rate.typed-1722", 40, 1722)):
        typed = entries[entry]
        eta = ProbMeasure.from_json_dict(typed["eta"], "type")
        pi = FiniteMeasure.from_json_dict(typed["pi"], "pair")
        assert ReferenceLaw(eta, pi).truncated(cap).to_json_dict() == typed["p"]
        assert len(typed["p"]) == atoms


def _write_manifest() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for entry in GOLDEN["entries"]:
            entry.update(run_entry(entry, Path(workdir)))
    lines = [json.dumps(entry) for entry in GOLDEN["entries"]]
    MANIFEST.write_text(f'{{"numpy": "{np.__version__}", "entries": [\n'
                        + ",\n".join(lines) + "\n]}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write_manifest()
