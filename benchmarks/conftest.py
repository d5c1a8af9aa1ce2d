"""Shared benchmark fixtures and the committed-table golden check.

Every experiment benchmark runs its E-suite once (rounds=1 — these are
simulation experiments, not micro-benchmarks), prints the result table,
renders it into the test's temporary directory and checks it against
the committed copy under ``benchmarks/results/``: every deterministic
cell must be equal, only columns named ``(wall)`` are exempt. A test
run therefore never rewrites the tree. Regenerate a committed table
when its content legitimately changes with
``python -m repro.experiments <suite> --out benchmarks/results``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.figures import FIGURES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def sweep() -> SweepConfig:
    """Full sweep settings for the experiment benchmarks."""
    return SweepConfig(seeds=(1, 2, 3, 4, 5, 6, 7, 8))


@pytest.fixture
def results_dir(tmp_path) -> pathlib.Path:
    """Where a benchmark renders its artifacts (a per-test temp dir)."""
    return tmp_path


def _table_parts(text: str):
    """``(title, header, rows, caption)`` of a rendered table, cells
    stripped of padding; ``None`` for a chart."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 4 or set(lines[3]) - set("-+"):
        return None

    def cells(line):
        return [cell.strip() for cell in line.split(" | ")]

    body = lines[4:]
    end = body.index("") if "" in body else len(body)
    return lines[0], cells(lines[2]), [cells(row) for row in body[:end]], body[end + 1:]


def assert_matches_committed(text: str, name: str) -> None:
    """``text`` (a rendered table or chart) equals the committed
    ``benchmarks/results/<name>.txt`` outside its ``(wall)`` columns."""
    committed = (RESULTS_DIR / f"{name}.txt").read_text()
    new, old = _table_parts(text), _table_parts(committed)
    suite = FIGURES[name][0] if name in FIGURES else name
    hint = (f"{name} differs from benchmarks/results/{name}.txt; if intended, regenerate "
            f"it with `python -m repro.experiments {suite} --out benchmarks/results`")
    if new is None or old is None:
        assert text + "\n" == committed, hint
        return
    title, header, rows, caption = new
    assert (title, header, caption) == (old[0], old[1], old[3]), hint
    keep = [i for i, column in enumerate(header) if "(wall)" not in column]
    assert [[row[i] for i in keep] for row in rows] == [
        [row[i] for i in keep] for row in old[2]
    ], hint


def archive(text: str, results_dir: pathlib.Path, name: str) -> None:
    """Print ``text``, write it to ``results_dir`` and golden-check it."""
    print("\n" + text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
    assert_matches_committed(text, name)


def run_suite(benchmark, suite, sweep, results_dir, name: str):
    """Run one experiment suite under the benchmark harness, archive its
    table and check it against the committed one."""
    table = benchmark.pedantic(suite, args=(sweep,), rounds=1, iterations=1)
    archive(table.render(), results_dir, name)
    return table
