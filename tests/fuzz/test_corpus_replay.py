"""Regression corpus: every checked-in history once tripped an oracle.

Each file in ``corpus/`` is a (minimized) history that exposed a real
bug; replaying it through the full oracle stack must stay green
forever.  ``python -m repro.fuzz`` appends new files here whenever a
seeded run finds and minimizes a fresh failure.
"""

import glob
import os

import pytest

from repro.fuzz import History, run_oracle_stack

from tests.datalog.test_executor_selection import count_interpreter_entries

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_not_empty():
    assert CORPUS, f"no corpus files under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_corpus_history_passes_oracles(path):
    history = History.load(path)
    report = run_oracle_stack(history)
    assert report.ok, (
        f"{os.path.basename(path)} regressed "
        f"(originally failed {history.failure}):\n{report.describe()}")


def test_corpus_files_record_their_original_failure():
    for path in CORPUS:
        history = History.load(path)
        assert history.failure, (
            f"{os.path.basename(path)} lacks a failure record; corpus "
            "files must say which oracle they originally tripped")


def test_interpreter_runs_only_in_the_interpreted_variant(monkeypatch):
    """The ``compiled_vs_interpreted`` oracle compares two different
    executors: compiled databases never enter the step interpreter (no
    warm-up tier, no fall-back), the interpreted variant always does."""
    entries = count_interpreter_entries(monkeypatch)
    report = run_oracle_stack(History.load(CORPUS[0]))
    assert report.ok, report.describe()
    assert entries["compiled"] == 0
    assert entries["interpreted"] > 0
