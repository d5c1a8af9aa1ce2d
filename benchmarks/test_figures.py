"""F1–F3 — trend figures rendered from the experiment sweeps.

The paper contains no figures; these charts are the harness's figure-
style artifacts, regenerated from the same sweeps as the tables
(:data:`repro.experiments.figures.FIGURES`):

* **F1** — coalition vs single-node utility over neighborhood size (E1);
* **F2** — protocol messages over node count (E4);
* **F3** — coalition gain over capacity heterogeneity (E7).
"""

from benchmarks.conftest import archive
from repro.experiments.figures import render_figure
from repro.experiments.suites import (
    e1_coalition_vs_single,
    e4_scalability,
    e7_heterogeneity,
)


def _figure(benchmark, suite, sweep, results_dir, name: str) -> str:
    table = benchmark.pedantic(suite, args=(sweep,), rounds=1, iterations=1)
    text = render_figure(name, table).render()
    archive(text, results_dir, name)
    return text


def test_f1_utility_vs_nodes(benchmark, sweep, results_dir):
    text = _figure(benchmark, e1_coalition_vs_single, sweep, results_dir, "F1")
    assert "coalition utility" in text and "single utility" in text


def test_f2_messages_vs_nodes(benchmark, sweep, results_dir):
    assert "messages" in _figure(benchmark, e4_scalability, sweep, results_dir, "F2")


def test_f3_gain_vs_heterogeneity(benchmark, sweep, results_dir):
    assert "gain" in _figure(benchmark, e7_heterogeneity, sweep, results_dir, "F3")
