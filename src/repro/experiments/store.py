"""Persistent JSON results store for experiment runs.

Every suite invocation produces a :class:`RunRecord` — the sweep config,
seeds, wall time, and the full result table with per-metric summaries —
which :class:`ResultsStore` persists under a results directory:

* ``<root>/runs/<suite>/<run_id>.json`` — the append-only run archive;
* ``<root>/BENCH_<suite>.json`` — the latest machine-readable bench
  report per suite, the artifact CI uploads and perf tracking diffs.
* ``<root>/<suite>.txt`` (plus any ``F<n>.txt`` figure drawn from the
  suite) — the rendered table; with ``--out benchmarks/results`` the
  CLI regenerates the committed tables the benchmarks check against.

Records round-trip losslessly (``save`` → ``load`` → ``compare`` reports
*identical*), which is how the determinism guarantee of the parallel
runner is checked: run a suite serially and in parallel, then compare
the two records cell by cell.

Under the shared work-queue scheduler
(:mod:`repro.experiments.parallel`), a record's table is assembled from
work-unit results that may have completed out of order on any worker;
the reduce step re-orders them by (sweep point, seed) first, so the
persisted tables — and therefore ``compare`` — never see scheduling
effects. Only ``wall_time_s`` reflects scheduling: it spans the suite's
first unit starting → its last unit completing, and since suites in a
``jobs > 1`` batch share the pool and interleave, those spans overlap
rather than add up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments.config import SweepConfig
from repro.experiments.figures import FIGURES, render_figure
from repro.experiments.reporting import Table
from repro.metrics.stats import Summary

#: Default results root, relative to the *current working directory*
#: (run the CLI from the repo root — or pass ``--out`` — so artifacts
#: land in the checkout's ``benchmarks/results/``).
DEFAULT_ROOT = Path("benchmarks") / "results"

#: Schema version stamped into every persisted record. Version 2 added
#: per-seed ``samples`` and the percentile-bootstrap ``boot_lo`` /
#: ``boot_hi`` fields to every summary cell (see
#: :mod:`repro.metrics.bootstrap`); version-1 records still load, their
#: summaries just carry ``None`` for the new fields.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunRecord:
    """One suite invocation: config, timing, and the result table.

    ``wall_time_s`` spans the suite's first work unit starting → its
    last unit completing. Serially that is exactly the suite's own
    duration; in a shared-pool batch
    (:func:`repro.experiments.parallel.run_batch`) suites execute
    interleaved, so spans overlap across suites. Timing is *excluded*
    from :meth:`ResultsStore.compare`, which only judges results.
    """

    suite: str
    run_id: str
    timestamp: str
    seeds: Tuple[int, ...]
    quick: bool
    jobs: int
    wall_time_s: float
    table: Table

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "seeds": list(self.seeds),
            "quick": self.quick,
            "jobs": self.jobs,
            "wall_time_s": self.wall_time_s,
            "table": self.table.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        return cls(
            suite=data["suite"],
            run_id=data["run_id"],
            timestamp=data["timestamp"],
            seeds=tuple(int(s) for s in data["seeds"]),
            quick=bool(data["quick"]),
            jobs=int(data["jobs"]),
            wall_time_s=float(data["wall_time_s"]),
            table=Table.from_dict(data["table"]),
        )

    def summaries(self) -> Dict[str, Dict[str, Summary]]:
        """Per-row metric summaries, keyed by the first cell of each row.

        The first column of every E-suite table is the sweep point
        (size, speed, policy name, ...), so this is "sweep point →
        metric column → summary".
        """
        out: Dict[str, Dict[str, Summary]] = {}
        for row in self.table.rows:
            point = str(row[0])
            out[point] = {
                column: cell
                for column, cell in zip(self.table.columns[1:], row[1:])
                if isinstance(cell, Summary)
            }
        return out


def new_run_record(
    suite: str,
    table: Table,
    sweep: SweepConfig,
    wall_time_s: float,
) -> RunRecord:
    """Stamp a freshly produced table into a persistable record."""
    now = datetime.now(timezone.utc)
    return RunRecord(
        suite=suite,
        run_id=f"{suite}-{now.strftime('%Y%m%dT%H%M%S%f')}",
        timestamp=now.isoformat(),
        seeds=tuple(sweep.effective_seeds),
        quick=sweep.quick,
        jobs=sweep.jobs,
        wall_time_s=wall_time_s,
        table=table,
    )


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two run records' results."""

    identical: bool
    differences: Tuple[str, ...]


class ResultsStore:
    """Directory-backed store of experiment run records.

    The store is the determinism contract's referee: ``BENCH_<suite>.json``
    written by a ``--jobs N`` run must load back equal (per
    :meth:`compare`) to the one written by a serial run, which CI
    asserts on every push.

    Args:
        root: Results directory (created on first write). Defaults to
            ``benchmarks/results`` relative to the current directory.
    """

    def __init__(self, root: Union[Path, str] = DEFAULT_ROOT) -> None:
        self.root = Path(root)

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    # -- persistence --------------------------------------------------------

    def save(self, record: RunRecord) -> Path:
        """Archive a record under ``runs/<suite>/<run_id>.json``."""
        path = self.runs_dir / record.suite / f"{record.run_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record.to_dict(), indent=2) + "\n")
        return path

    def load(self, path: Union[Path, str]) -> RunRecord:
        """Load a record previously written by :meth:`save`."""
        return RunRecord.from_dict(json.loads(Path(path).read_text()))

    def list_runs(self, suite: Optional[str] = None) -> List[Path]:
        """Archived record paths, oldest first (run ids sort by time)."""
        if not self.runs_dir.is_dir():
            return []
        pattern = f"{suite}/*.json" if suite else "*/*.json"
        return sorted(self.runs_dir.glob(pattern))

    def latest(self, suite: str) -> Optional[RunRecord]:
        """The most recent archived record for a suite, if any."""
        paths = self.list_runs(suite)
        return self.load(paths[-1]) if paths else None

    # -- bench reports ------------------------------------------------------

    def bench_path(self, suite: str) -> Path:
        return self.root / f"BENCH_{suite}.json"

    def write_bench(self, record: RunRecord) -> Path:
        """Write/overwrite the suite's ``BENCH_<suite>.json`` report, its
        rendered ``<suite>.txt`` table and any ``F<n>.txt`` figure drawn
        from it (:data:`~repro.experiments.figures.FIGURES`)."""
        path = self.bench_path(record.suite)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record.to_dict(), indent=2) + "\n")
        (self.root / f"{record.suite}.txt").write_text(record.table.render() + "\n")
        for figure_id, (suite, *_spec) in FIGURES.items():
            if suite == record.suite:
                chart = render_figure(figure_id, record.table)
                (self.root / f"{figure_id}.txt").write_text(chart.render() + "\n")
        return path

    def load_bench(self, suite: str) -> RunRecord:
        """Load the suite's latest bench report."""
        return self.load(self.bench_path(suite))

    # -- comparison ---------------------------------------------------------

    @staticmethod
    def compare(a: RunRecord, b: RunRecord) -> Comparison:
        """Compare two records' *results*, ignoring timing and identity.

        Two runs are identical when they cover the same suite, seeds,
        and sweep points with exactly equal metric summaries — the
        criterion for the parallel-vs-serial determinism guarantee.
        Wall time, run id, timestamp, and job count may differ.
        """
        diffs: List[str] = []
        if a.suite != b.suite:
            diffs.append(f"suite: {a.suite!r} != {b.suite!r}")
        if a.seeds != b.seeds:
            diffs.append(f"seeds: {a.seeds} != {b.seeds}")
        ta, tb = a.table, b.table
        if ta.columns != tb.columns:
            diffs.append(f"columns: {ta.columns} != {tb.columns}")
        if len(ta.rows) != len(tb.rows):
            diffs.append(f"row count: {len(ta.rows)} != {len(tb.rows)}")
        if not diffs:
            for i, (row_a, row_b) in enumerate(zip(ta.rows, tb.rows)):
                for column, cell_a, cell_b in zip(ta.columns, row_a, row_b):
                    if cell_a != cell_b:
                        diffs.append(
                            f"row {i} [{column}]: {cell_a} != {cell_b}"
                        )
        return Comparison(identical=not diffs, differences=tuple(diffs))
