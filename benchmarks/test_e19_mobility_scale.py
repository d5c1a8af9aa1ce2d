"""E19 — mobility at scale (vectorized network layer).

Perf-trajectory suite: E5's mobility scenario at 32–128 nodes under two
mobility models with relayed two-hop CFPs. Every simulated second the
fleet moves and the topology is rebuilt — the workload the numpy
position arena + epoch-cached routing exist for. The table's metrics are
deterministic; wall time lives in ``BENCH_E19.json``.

The second test is the acceptance gate for the vectorization itself:
topology maintenance (rebuild + the CFP's route-cost queries) at 128
nodes must be at least 5x faster on the arena :class:`Topology` than on
:class:`~benchmarks.reference_topology.ReferenceTopology` — the
pure-Python per-pair rebuild and dictionary Dijkstra the arena replaced,
replayed faithfully (same weight callable, same edge attributes) — with
both producing identical answers.
"""

import time

import numpy as np

from benchmarks.conftest import run_suite
from benchmarks.reference_topology import ReferenceTopology
from repro.experiments.suites import e19_mobility_scale
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.resources.node import Node


def test_e19_mobility_scale(benchmark, sweep, results_dir):
    table = run_suite(benchmark, e19_mobility_scale, sweep, results_dir, "E19")
    labels = table.column("model × nodes")
    success = [s.mean for s in table.column("success rate")]
    partners = [s.mean for s in table.column("distinct partners")]
    # Coalitions must keep forming at every scale under churn ...
    assert all(s > 0.0 for s in success), labels
    # ... and mobility must expose more than a lone partner somewhere.
    assert max(partners) > 1.0


def _maintenance_workload(topo, rounds=3):
    """One mobility tick's worth of topology work: a rebuild plus the
    CFP-style queries the organizer issues against it — the two-hop
    audience, then the route-cost tie-break per candidate per task.

    Several rounds query the *same* pairs, as the per-task scoring
    passes and award routing within one epoch do — the arena answers
    repeats from the per-epoch cache, the reference re-runs its
    Dijkstra every time.
    """
    topo.rebuild()
    audience = topo.khop_neighbors("n0", 2)
    acc = 0.0
    for _ in range(rounds):
        for nid in audience:
            acc += topo.multihop_cost("n0", nid)
    return acc


def _build(topology_cls, n=128, spread=140.0, seed=5):
    """The E19 ``group-128`` regime: the whole fleet within one group
    spread of the leader — the dense pairwise-recompute workload the
    paper's spontaneous-coalition setting implies at scale."""
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(n):
        angle = rng.uniform(0, 2 * np.pi)
        radius = rng.uniform(0, spread)
        nodes.append(Node(
            f"n{i}",
            position=(340.0 + radius * np.cos(angle), 340.0 + radius * np.sin(angle)),
        ))
    return topology_cls(nodes, DiscRadio(range_m=100.0))


def test_topology_maintenance_5x_at_128_nodes():
    """Acceptance gate: rebuild + multihop routing >= 5x at 128 nodes."""
    topo_vec = _build(Topology)
    topo_ref = _build(ReferenceTopology)
    # Same answers first — speed means nothing otherwise.
    assert _maintenance_workload(topo_vec) == _maintenance_workload(topo_ref)

    def best_of(topos, reps=5):
        # Alternate the two sides within each repetition, so a drift in
        # host speed during the measurement hits both equally.
        best = [float("inf")] * len(topos)
        for _ in range(reps):
            for i, topo in enumerate(topos):
                start = time.perf_counter()
                _maintenance_workload(topo)
                best[i] = min(best[i], time.perf_counter() - start)
        return best

    t_vec, t_ref = best_of((topo_vec, topo_ref))
    assert t_ref >= 5.0 * t_vec, (
        f"vectorized topology maintenance only {t_ref / t_vec:.1f}x faster "
        f"(reference {t_ref * 1e3:.1f} ms, vector {t_vec * 1e3:.1f} ms)"
    )
