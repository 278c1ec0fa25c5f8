"""The README's walkthrough against the benchmark's copy of it and
against its pins."""

import sys
from pathlib import Path

from tests.pins import PINS
from tests.readme_walkthrough import readme_commands, readme_heredocs, run

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def test_walkthrough_documents_equal_the_benchmarks():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    docs = readme_heredocs()
    assert docs["corpus.cfg"] == workloads.WALKTHROUGH_CORPUS.format(seed=11)
    assert docs["run.cfg"] == workloads.README_RUN_CFG


def test_walkthrough_runs_every_command_once():
    assert [argv[0] for argv in readme_commands()] == [
        "synth-corpus", "annotate", "train", "eval", "explain", "infer"]


def test_walkthrough_outputs_equal_their_pins(tmp_path):
    assert run(tmp_path) == PINS["walkthrough"]
