"""The docs quote the program.

``bench/golden/paper_suite.txt`` is the stdout of ``repro run all`` at
the default seed (50 chips x 256 ROs); the ``paper_suite`` benchmark
workload checks it byte for byte.  Every number in EXPERIMENTS.md's
Summary "Measured" column and in REPORT.md's anchor table must appear in
it, so a doc cannot quote a number the program does not print.

``pytest benchmarks/`` (the README's perf-ledger recipe and the CI perf
jobs) must collect only the three performance modules: no paper table
is produced there.

The docs name only CLI surfaces that exist: every ``repro <command>
[<subcommand>]`` and ``--flag`` in the tables of
``docs/observability.md``, and every ``python -m repro.cli ...`` line in
the README's code blocks, parses under ``cli.build_parser()``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys
from typing import Dict, Iterator, List, Optional

import pytest

from repro.cli import build_parser

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


FLAG = re.compile(r"--[a-z][a-z0-9-]*")


def _subcommands(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _all_parsers(parser: argparse.ArgumentParser) -> Iterator[argparse.ArgumentParser]:
    yield parser
    for sub in _subcommands(parser).values():
        yield from _all_parsers(sub)


def _command_parser(words: List[str]) -> argparse.ArgumentParser:
    """The parser of ``repro <words...>``; raises naming an unknown one."""
    parser = build_parser()
    for word in words:
        choices = _subcommands(parser)
        if not choices or word.startswith("-"):
            break
        if word not in choices:
            raise AssertionError(f"`repro {' '.join(words)}`: no command {word!r}")
        parser = choices[word]
    return parser


def _accepts(parser: argparse.ArgumentParser, flag: str) -> bool:
    return flag in parser._option_string_actions


def doc_table_rows(markdown: str) -> Iterator[List[str]]:
    """The data rows (cells) of every Markdown table."""
    lines = markdown.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("|") and i + 1 < len(lines) and lines[i + 1].startswith("|---"):
            for row in lines[i + 2 :]:
                if not row.startswith("|"):
                    break
                yield _cells(row)


def check_table_surfaces(markdown: str) -> List[str]:
    """Every CLI surface a table names that the parser does not know."""
    problems = []
    everything = list(_all_parsers(build_parser()))
    for cells in doc_table_rows(markdown):
        spans = [
            span
            for cell in cells
            for span in re.findall(r"`([^`]+)`", cell)
            # a tool's own flags (`tools/validate_metrics.py --explain`)
            if not span.split()[0].endswith(".py")
        ]
        row_parser: Optional[argparse.ArgumentParser] = None
        for span in spans:
            if span.startswith("repro "):
                try:
                    parser = _command_parser(span.split()[1:])
                except AssertionError as exc:
                    problems.append(str(exc))
                    continue
                if row_parser is None and span in cells[0]:
                    row_parser = parser
        candidates = [row_parser] if row_parser is not None else everything
        for flag in FLAG.findall(" ".join(spans)):
            if not any(_accepts(p, flag) for p in candidates):
                problems.append(f"{flag} in row {cells[0]!r}: no such option")
    return problems


def readme_cli_lines(markdown: str) -> Iterator[str]:
    """Each ``python -m repro.cli`` command of the fenced code blocks,
    continuation lines joined, comments and shell operators dropped."""
    for block in re.findall(r"```[a-z]*\n(.*?)```", markdown, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("python -m repro.cli"):
                yield re.split(r"\s[&|>]", line + " ")[0].strip()


def check_readme_lines(markdown: str) -> List[str]:
    problems = []
    for line in readme_cli_lines(markdown):
        argv = shlex.split(line)[3:]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                build_parser().parse_args(argv)
        except SystemExit:
            problems.append(line)
    return problems


def test_observability_tables_name_only_real_cli_surfaces():
    text = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    assert list(doc_table_rows(text))
    assert check_table_surfaces(text) == []


def test_readme_cli_lines_parse():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = list(readme_cli_lines(text))
    assert len(lines) > 20, lines
    assert check_readme_lines(text) == []


def test_a_removed_surface_is_named():
    table = "| Command | Flags |\n|---|---|\n| `repro perf flame` | `--trace PATH` |\n"
    assert check_table_surfaces(table) == ["`repro perf flame`: no command 'flame'"]
    table = "| Flag | Effect |\n|---|---|\n| `--profile` | memory |\n"
    assert check_table_surfaces(table) == ["--profile in row '`--profile`': no such option"]
    readme = "```bash\npython -m repro.cli run e2 --profile   # memory\n```\n"
    assert check_readme_lines(readme) == ["python -m repro.cli run e2 --profile"]
