"""The docs quote the program.

``bench/golden/paper_suite.txt`` is the stdout of ``repro run all`` at
the default seed (50 chips x 256 ROs); the ``paper_suite`` benchmark
workload checks it byte for byte.  Every number in EXPERIMENTS.md's
Summary "Measured" column and in REPORT.md's anchor table must appear in
it, so a doc cannot quote a number the program does not print.

``pytest benchmarks/`` (the README's perf-ledger recipe and the CI perf
jobs) must collect only the three performance modules: no paper table
is produced there.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
from typing import List

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden" / "paper_suite.txt"
NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _cells(line: str) -> List[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def measured_column(markdown: str) -> List[str]:
    """The cells of the "Measured" column of the first Markdown table
    that has one."""
    lines = markdown.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("|") and "Measured" in _cells(line):
            column = _cells(line).index("Measured")
            rows = []
            for row in lines[i + 2 :]:  # skip the |---| rule
                if not row.startswith("|"):
                    break
                rows.append(_cells(row)[column])
            return rows
    raise AssertionError("no table with a 'Measured' column")


def check_measured(markdown: str, golden: str, origin: str) -> None:
    """Raise naming every "Measured" number that ``golden`` never prints."""
    quoted = [n for cell in measured_column(markdown) for n in NUMBER.findall(cell)]
    assert quoted, f"{origin}: the Measured column quotes no number"
    printed = set(NUMBER.findall(golden))
    missing = [n for n in quoted if n not in printed]
    if missing:
        raise AssertionError(
            f"{origin}: Measured numbers that `repro run all` does not print: "
            f"{', '.join(missing)}"
        )


@pytest.fixture(scope="module")
def golden() -> str:
    return GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("doc", ["EXPERIMENTS.md", "REPORT.md"])
def test_measured_numbers_are_printed_by_run_all(doc, golden):
    check_measured((ROOT / doc).read_text(encoding="utf-8"), golden, doc)


def test_a_changed_summary_number_is_named(golden):
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    row = "| **32.19 %** |"
    assert row in text
    wrong = text.replace(row, "| **32.91 %** |", 1)
    with pytest.raises(AssertionError, match=r"does not print: 32\.91$"):
        check_measured(wrong, golden, "EXPERIMENTS.md")


def test_benchmarks_collect_only_the_perf_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--collect-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    modules = {line.split("::")[0] for line in run.stdout.splitlines() if "::" in line}
    assert modules == {
        "benchmarks/bench_hooks.py",
        "benchmarks/bench_population.py",
        "benchmarks/bench_service.py",
    }
