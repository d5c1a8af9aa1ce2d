"""The three benchmark workloads: their configurations, one unit each.

A *unit* is one fixed piece of work driven through a public entry point
of ``repro``, built from its own integer sub-seed:

* ``agent-negotiation`` — E18's 64-node agent-based movie-playback
  negotiation: a fresh reliable-channel :class:`repro.AgentSystem` per
  unit and one timed :meth:`~repro.AgentSystem.negotiate`.
* ``stream-shard`` — one :func:`repro.run_sharded_contention`
  replication of E22's 2048-node point (9 shards, K = 16, 240 s).
* ``stream-faults`` — one :func:`repro.run_contention` replication of
  E23's ``bursty-part25-crash`` regime (512 unsharded nodes, 120 s).

Every configuration is built here from public types only; the test
``test_harness.py`` checks that each equals the suite's own, so drift
in the suites is caught. ``repro`` is imported lazily (inside the
functions), so this module can be imported to derive sub-seeds without
paying for the simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple

WORKLOADS = ("agent-negotiation", "stream-shard", "stream-faults")

#: Sub-seeds a workload draws its units from. Every one has a digest
#: recorded in ``expected.json``, so every unit a run can make is
#: checked; 1-8 are also the committed BENCH_E18/E22/E23 seeds.
SEED_POOL = {
    "agent-negotiation": tuple(range(1, 257)),
    "stream-shard": tuple(range(1, 33)),
    "stream-faults": tuple(range(1, 33)),
}

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected(workload: str) -> Dict[str, Any]:
    """The oracle recorded for a workload: ``digests`` (sub-seed →
    output digest) and ``ranked`` (the pool ordered by the negotiations
    each unit runs, ties by sub-seed)."""
    with open(EXPECTED) as fh:
        return json.load(fh)[workload]


def sub_seed(ranked: Sequence[int], workload: str, seed: int, index: int) -> int:
    """The sub-seed of unit ``index`` of a run with ``--seed seed``.

    A run walks ``ranked`` in antithetic pairs, each light unit followed
    by its mirror-rank heavy one, from an offset hashed from ``seed``
    (sha256, not :func:`hash`, whose string hashing is randomised per
    process). A stream unit's sessions and negotiations vary ~20%
    between sub-seeds while its host time barely does, so pairing keeps
    every run's load near the pool mean; over ``2 * len(ranked)`` units
    each sub-seed runs exactly twice."""
    n = len(ranked)
    offset = int.from_bytes(hashlib.sha256(f"{workload}:{seed}".encode()).digest()[:8], "big")
    rank = (offset + index // 2) % n
    return ranked[rank] if index % 2 == 0 else ranked[n - 1 - rank]


# ---------------------------------------------------------------------------
# Configurations (public types only)
# ---------------------------------------------------------------------------

E18_NODES = 64
E22_NODES = 2048
E22_HORIZON = 240.0
E23_NODES = 512
E23_REQUESTERS = 4
E23_HORIZON = 120.0


def e22_config(n_nodes: int = E22_NODES, horizon: float = E22_HORIZON):
    """E22's streaming-mix point: constant density, K = n/128
    requesters, crash hazard 1/200 s, 30 J/s drain, 4 m/s waypoint."""
    from repro import ContentionConfig, SessionPolicy

    return ContentionConfig(
        n_requesters=max(2, n_nodes // 128),
        families=("movie", "speech", "sensor-fusion", "navigation"),
        horizon=horizon,
        n_nodes=n_nodes,
        area=60.0 * math.sqrt(n_nodes),
        radio_range=100.0,
        sessions=SessionPolicy(
            operate=True,
            failure_rate=1.0 / 200.0,
            drain=30.0,
            mobility="waypoint",
            mobility_speed=4.0,
        ),
    )


def e23_plan(horizon: float = E23_HORIZON, n_nodes: int = E23_NODES):
    """E23's ``bursty-part25-crash`` fault plan: bursty Gilbert-Elliott
    loss, a 25 s partition from horizon/3 between the requesters plus
    even helpers and the odd helpers, crashes at 1/s with 25 s reboots,
    and mild agent misbehaviour."""
    from repro.faults import (
        AgentFaults,
        CrashHazard,
        FaultPlan,
        GilbertElliott,
        Partition,
    )
    from repro.workloads import ConstantRate
    from repro.workloads.contention import requester_id

    helpers = n_nodes - E23_REQUESTERS
    group_a = tuple(requester_id(k) for k in range(E23_REQUESTERS)) + tuple(
        f"n{i}" for i in range(0, helpers, 2)
    )
    group_b = tuple(f"n{i}" for i in range(1, helpers, 2))
    return FaultPlan(
        link=GilbertElliott(p_gb=0.02, p_bg=0.1, loss_good=0.01, loss_bad=0.8),
        partitions=(
            Partition(
                start=horizon / 3.0, duration=25.0,
                group_a=group_a, group_b=group_b,
            ),
        ),
        crashes=CrashHazard(shape=ConstantRate(1.0), recover_after=25.0),
        agents=AgentFaults(drop_propose=0.02, stale_propose=0.02, refuse_award=0.01),
    )


def e23_config(horizon: float = E23_HORIZON, n_nodes: int = E23_NODES):
    """E23's 512-node unsharded streaming cluster under :func:`e23_plan`,
    Poisson arrivals at 1/12 s and a 2.5 s keepalive with 15 s grace."""
    from repro import ContentionConfig, SessionPolicy
    from repro.workloads import PoissonProcess

    return ContentionConfig(
        n_requesters=E23_REQUESTERS,
        families=("movie", "speech", "sensor-fusion", "navigation"),
        arrival=PoissonProcess(rate=1.0 / 12.0),
        horizon=horizon,
        n_nodes=n_nodes,
        area=60.0 * math.sqrt(n_nodes),
        radio_range=100.0,
        sessions=SessionPolicy(operate=True, keepalive=2.5, partition_grace=15.0),
        faults=e23_plan(horizon, n_nodes),
    )


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


@dataclass
class UnitResult:
    """What one unit produced: host times, simulated work counts, and
    the canonical record of its deterministic outputs that the oracle
    hashes."""

    wall_s: float
    """Host time of the unit's entry calls (world build included)."""
    negotiate_s: float
    """Host time of the negotiation alone (agent-negotiation), else
    equal to ``wall_s``."""
    sessions: int
    """Simulated sessions offered (one per agent negotiation)."""
    negotiations: int
    """Admissions plus renegotiation attempts, read from the outputs."""
    record: Dict[str, Any]
    check: Dict[str, float]
    """The columns compared with the committed BENCH samples."""


def _canon(value: Any) -> Any:
    """A JSON-stable form: floats by ``repr`` (round-trip exact), numpy
    scalars as the Python numbers they equal."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return repr(float(value))
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def digest(record: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of a unit's outputs."""
    text = json.dumps(_canon(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_agent_negotiation(seed: int, n_nodes: int = E18_NODES) -> UnitResult:
    """Build a fresh agent deployment and time one negotiation."""
    from repro.experiments.config import ClusterConfig
    from repro.experiments.scenario import build_agent_system
    from repro.services import workload
    from repro.sim.sequences import reset_all_sequences

    reset_all_sequences()
    build_start = time.perf_counter()
    system = build_agent_system(
        ClusterConfig(n_nodes=n_nodes, area=100.0), seed, reliable_channel=True
    )
    service = workload.movie_playback_service(requester="requester")
    start_sim = system.engine.now
    start = time.perf_counter()
    outcome = system.negotiate(service)
    end = time.perf_counter()
    if outcome is None:
        raise RuntimeError(f"negotiation for seed {seed} did not complete")
    elapsed = system.engine.now - start_sim
    awards = [
        [task_id, a.node_id, dict(a.proposal.values), a.distance, a.comm_cost]
        for task_id, a in sorted(outcome.coalition.awards.items())
    ]
    record = {
        "success": outcome.success,
        "awards": awards,
        "proposals": outcome.proposals_received,
        "unallocated": list(outcome.unallocated),
        "messages": system.network.sent_count,
        "time": elapsed,
    }
    check = {
        "messages": float(system.network.sent_count),
        "time": elapsed,
        "success": float(outcome.success),
        "proposals": float(outcome.proposals_received),
    }
    return UnitResult(end - build_start, end - start, 1, 1, record, check)


def _stream_unit(wall: float, result, check: Dict[str, float]) -> UnitResult:
    renegotiations = sum(s.renegotiations for s in result.sessions)
    record = {
        "metrics": result.metrics(),
        "sessions": [
            [s.requester, s.arrival, s.family, s.success, s.utility,
             s.coalition_size, s.concurrent, s.final_state,
             s.sustained_utility, s.renegotiations]
            for s in result.sessions
        ],
        "resilience": result.resilience.metrics(),
    }
    n = len(result.sessions)
    return UnitResult(wall, wall, n, n + renegotiations, record, check)


def run_stream_shard(seed: int, config=None) -> UnitResult:
    """One sharded E22 replication (fleet re-derived, no ``tables=``)."""
    from repro import run_sharded_contention
    from repro.sim.sequences import reset_all_sequences

    config = config if config is not None else e22_config()
    reset_all_sequences()
    start = time.perf_counter()
    result = run_sharded_contention(seed, config)
    wall = time.perf_counter() - start
    m = result.metrics()
    check = {k: m[k] for k in ("offered", "success_rate", "sustained_utility", "drop_rate")}
    return _stream_unit(wall, result, check)


def run_stream_faults(seed: int, config=None) -> UnitResult:
    """One unsharded E23 ``bursty-part25-crash`` replication."""
    from repro import run_contention
    from repro.sim.sequences import reset_all_sequences

    config = config if config is not None else e23_config()
    reset_all_sequences()
    start = time.perf_counter()
    result = run_contention(seed, config)
    wall = time.perf_counter() - start
    row = result.resilience.metrics()
    check = {k: row[k] for k in (
        "availability", "mean_recovery_s", "degraded_sessions", "award_retries"
    )}
    check["drop_rate"] = result.metrics()["drop_rate"]
    return _stream_unit(wall, result, check)


UNITS: Dict[str, Callable[[int], UnitResult]] = {
    "agent-negotiation": run_agent_negotiation,
    "stream-shard": run_stream_shard,
    "stream-faults": run_stream_faults,
}


def warm_up(workload: str) -> None:
    """One untimed request that pays the first-call costs (lazy imports,
    first-use caches) before timing starts. The stream workloads warm up
    on a scaled-down replica of their regime, so set-up stays short."""
    if workload == "agent-negotiation":
        run_agent_negotiation(0)
    elif workload == "stream-shard":
        run_stream_shard(0, e22_config(n_nodes=256, horizon=20.0))
    else:
        run_stream_faults(0, e23_config(horizon=20.0, n_nodes=64))


#: (BENCH suite, row label, column → unit check key) per workload.
BENCH_ROWS: Dict[str, Tuple[str, Any, Dict[str, str]]] = {
    "agent-negotiation": ("E18", E18_NODES, {
        "messages": "messages", "sim time (s)": "time",
        "success": "success", "proposals": "proposals",
    }),
    "stream-shard": ("E22", "2048n-9sh", {
        "offered sessions": "offered", "success rate": "success_rate",
        "sustained utility": "sustained_utility", "drop rate": "drop_rate",
    }),
    "stream-faults": ("E23", "bursty-part25-crash", {
        "availability": "availability", "mean recovery (s)": "mean_recovery_s",
        "degraded sessions": "degraded_sessions", "drop rate": "drop_rate",
        "award retries": "award_retries",
    }),
}


def bench_samples(root: str, workload: str) -> Dict[int, Dict[str, float]]:
    """The committed per-seed samples of a workload's BENCH row, keyed by
    seed, in the unit check keys."""
    suite, label, columns = BENCH_ROWS[workload]
    path = os.path.join(root, "benchmarks", "results", f"BENCH_{suite}.json")
    with open(path) as fh:
        report = json.load(fh)
    table = report["table"]
    row = next(r for r in table["rows"] if r[0] == label)
    out: Dict[int, Dict[str, float]] = {s: {} for s in report["seeds"]}
    for column, cell in zip(table["columns"][1:], row[1:]):
        if column in columns:
            for s, value in zip(report["seeds"], cell["__summary__"]["samples"]):
                out[s][columns[column]] = value
    return out
