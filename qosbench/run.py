"""The repository benchmark: one workload, one seed, one run.

    python3 qosbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness drives the workload's units
(see ``workloads.py``) one after another in this process, on one thread,
until ``--seconds`` of work has been measured, checks every unit's
simulated outputs against the oracle, and prints one JSON object as its
last line of output: ``correct``, ``attempted`` (units run), ``failed``
(units that raised or whose outputs mismatched) and ``metrics``.

``--trace 0`` is the end-to-end run: nothing in ``repro`` is patched,
and the metrics are the run-level throughputs, latency percentiles,
set-up time and peak memory. ``--trace 1`` is the traced run: each unit
runs once untraced and once under :class:`tracer.Tracer`; it reports the
per-layer metrics, and fails a unit whose traced outputs differ from
its untraced ones. See ``README.md`` beside this file for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60.0
READY = "qosbench-ready"


class Oracle:
    """What ``expected.json`` records about a workload's units (their
    digests, and the ranked pool the runs walk) plus the committed BENCH
    samples for sub-seeds 1-8. :meth:`verify` returns the reason a unit
    fails, or ``None``."""

    def __init__(self, expected: Dict[str, str], ranked: List[int], samples) -> None:
        self.expected = expected
        self.ranked = ranked
        self.samples = samples

    @classmethod
    def load(cls, workload: str, root: str) -> "Oracle":
        import workloads as W

        recorded = W.load_expected(workload)
        return cls(recorded["digests"], recorded["ranked"],
                   W.bench_samples(root, workload))

    def verify(self, seed: int, result) -> str | None:
        import workloads as W

        want = self.expected.get(str(seed))
        got = W.digest(result.record)
        if want is None:
            return f"no recorded digest for sub-seed {seed}"
        if got != want:
            return f"digest {got[:12]} != recorded {want[:12]}"
        for key, value in self.samples.get(seed, {}).items():
            if result.check[key] != value:
                return f"{key} = {result.check[key]!r} != committed {value!r}"
        return None


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def probe(workload: str) -> int:
    """Child side of :func:`measure_setup`: import ``repro``, build the
    inputs, run the warm-up request, then say so."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import repro  # noqa: F401  (the import is part of set-up)
    import workloads as W

    W.warm_up(workload)
    print(READY, flush=True)
    return 0


def measure_setup(workload: str, samples: int = SETUP_SAMPLES) -> List[float]:
    """Set-up times of ``samples`` fresh interpreters: from process
    spawn until the child has imported ``repro``, built its inputs and
    finished the warm-up request."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        ready = None
        output = []
        # stderr shares the pipe, so a chatty child cannot block on a
        # full stderr buffer before it reports ready.
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--probe",
             "--workload", workload],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        ) as child:
            for line in child.stdout:
                if line.strip() == READY:
                    ready = time.perf_counter() - start
                    break
                output.append(line)
            try:
                rest, _ = child.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise RuntimeError("set-up probe did not exit") from None
        if ready is None or child.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + "".join(output) + rest)
        times.append(ready)
    return times


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _keep_going(elapsed: float, done: int, seconds: float) -> bool:
    """Whether to run another unit. Units run in the antithetic pairs of
    :func:`workloads.sub_seed`, so a started pair is always finished (a
    lone light unit would bias the run low); the next pair starts if it
    should end nearer ``seconds`` than stopping now would (units take
    about ``elapsed / done`` each)."""
    return done % 2 == 1 or done == 0 or elapsed + elapsed / done < seconds


def _run_unit(fn, seed: int, oracle: Oracle, log: List[str]):
    """One unit with its oracle check; ``(result, ok)``. Exceptions are
    reported as a failed unit, never as a crashed run."""
    try:
        result = fn(seed)
    except Exception:  # the harness must keep counting units
        log.append(f"unit seed {seed} raised:\n{traceback.format_exc()}")
        return None, False
    reason = oracle.verify(seed, result)
    if reason is not None:
        log.append(f"unit seed {seed}: {reason}")
    return result, reason is None


def timed_run(workload: str, seed: int, seconds: float, oracle: Oracle,
              log: List[str]) -> Tuple[int, int, Dict[str, float]]:
    """The end-to-end run; ``(attempted, failed, values)``."""
    import workloads as W

    fn = W.UNITS[workload]
    results = []
    attempted = failed = 0
    start = time.perf_counter()
    while _keep_going(time.perf_counter() - start, attempted, seconds):
        sub = W.sub_seed(oracle.ranked, workload, seed, attempted)
        result, ok = _run_unit(fn, sub, oracle, log)
        attempted += 1
        failed += not ok
        if result is not None:
            results.append(result)
    if not results:
        return attempted, failed, {}
    sessions = sum(r.sessions for r in results)
    negotiations = sum(r.negotiations for r in results)
    wall = sum(r.wall_s for r in results)
    negotiate = [r.negotiate_s for r in results]
    values = {
        "negotiations_per_s": negotiations / sum(negotiate),
        "sessions_per_s": sessions / wall,
    }
    if workload == "agent-negotiation":
        import numpy as np

        p50, p90 = np.percentile(negotiate, [50, 90])
        values["negotiation_p50_ms"] = 1e3 * float(p50)
        values["negotiation_p90_ms"] = 1e3 * float(p90)
        log.append(f"negotiation percentiles over {len(negotiate)} samples")
    else:
        # Per-negotiation host time inside a replication is not
        # measurable without patching repro, so both percentile fields
        # carry the run's pooled host ms per negotiation.
        per_negotiation = 1e3 * wall / negotiations
        values["negotiation_p50_ms"] = values["negotiation_p90_ms"] = per_negotiation
        log.append(f"{sessions} sessions and {negotiations} negotiations "
                   f"over {len(results)} replications")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return attempted, failed, values


def traced_run(workload: str, seed: int, seconds: float, oracle: Oracle,
               log: List[str], out_dir: str = os.path.join(HERE, "out"),
               ) -> Tuple[int, int, Dict[str, float]]:
    """The traced run: every unit untraced, then traced; ``(attempted,
    failed, values)`` with the per-layer metrics. The spans are written
    to ``out_dir`` at the end."""
    import numpy as np
    import workloads as W
    from tracer import ROOT, Tracer

    fn = W.UNITS[workload]
    tracer = Tracer()
    untraced_wall = traced_wall = 0.0
    proposals = awards = renegotiations = dropped = retries = 0
    units = attempted = failed = 0
    start = time.perf_counter()
    while _keep_going(time.perf_counter() - start, attempted, seconds):
        sub = W.sub_seed(oracle.ranked, workload, seed, attempted)
        attempted += 1
        unit_start = time.perf_counter()
        plain, ok = _run_unit(fn, sub, oracle, log)
        wall = time.perf_counter() - unit_start
        if not ok:
            failed += 1
            continue
        tracer.install()
        try:
            traced, span_wall = tracer.unit(attempted - 1, lambda: fn(sub))
        except Exception:  # reported as a failed unit
            log.append(f"traced unit seed {sub} raised:\n{traceback.format_exc()}")
            failed += 1
            continue
        finally:
            tracer.uninstall()
        if W.digest(traced.record) != W.digest(plain.record):
            log.append(f"unit seed {sub}: traced outputs differ from untraced")
            failed += 1
            continue
        units += 1
        untraced_wall += wall
        traced_wall += span_wall
        record = traced.record
        if workload == "agent-negotiation":
            # The agent organizer negotiates outside core.negotiate, so
            # its proposals and awards come from the unit's outputs.
            proposals += record["proposals"]
            awards += len(record["awards"])
        else:
            renegotiations += traced.negotiations - traced.sessions
            dropped += sum(1 for s in record["sessions"] if s[7] == "dropped")  # final_state
            retries += int(record["resilience"]["award_retries"])
    if workload != "agent-negotiation":
        proposals = sum(p for p, _ in tracer.outcomes)
        awards = sum(a for _, a in tracer.outcomes)
    if units == 0:
        return attempted, failed, {}

    layers, min_self = tracer.summary()
    total_self = sum(v["self_s"] for v in layers.values())
    if abs(total_self - traced_wall) > 1e-6 * max(traced_wall, 1.0):
        log.append(f"self times sum to {total_self} s, traced wall is {traced_wall} s")
        failed += 1
    if min_self < -1e-6:
        log.append(f"a span has negative self time ({min_self} s)")
        failed += 1
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz"))

    def calls(layer):
        return layers[layer]["calls"] / units

    def self_ms(layer):
        return 1e3 * layers[layer]["self_s"] / units

    negotiate = tracer.durations("core.negotiate")
    values = {
        "core.formulate.calls": calls("core.formulate"),
        "core.formulate.self_ms": self_ms("core.formulate"),
        "core.evaluate.self_ms": self_ms("core.evaluate"),
        "core.select.self_ms": self_ms("core.select"),
        "core.negotiate.calls": calls("core.negotiate"),
        "core.negotiate.self_ms": self_ms("core.negotiate"),
        "core.negotiate_p50_ms": 1e3 * float(np.median(negotiate)) if len(negotiate) else 0.0,
        "core.proposals_per_award": proposals / awards if awards else 0.0,
        "resources.admit.calls": calls("resources.admit"),
        "resources.admit.self_ms": self_ms("resources.admit"),
        "resources.reserve.calls": calls("resources.reserve"),
        "network.route.calls": calls("network.route"),
        "network.route.self_ms": self_ms("network.route"),
        "network.rebuild.calls": calls("network.rebuild"),
        "network.rebuild.self_ms": self_ms("network.rebuild"),
        "network.mobility.self_ms": self_ms("network.mobility"),
        "network.messaging.self_ms": self_ms("network.messaging"),
        "shard.mobility.self_ms": self_ms("shard.mobility"),
        "shard.cell_of.calls": calls("shard.cell_of"),
        "shard.rebuild.calls": calls("shard.rebuild"),
        "shard.route.self_ms": self_ms("shard.route"),
        "sessions.self_ms": self_ms("sessions"),
        "sessions.renegotiations": renegotiations / units,
        "sessions.dropped": dropped / units,
        "faults.self_ms": self_ms("faults"),
        "faults.award_retries": retries / units,
        "workloads.build.self_ms": self_ms("workloads.build"),
        "sim.events": calls("sim"),
        "sim.self_ms": self_ms("sim"),
        "trace.overhead": traced_wall / untraced_wall,
        "trace.unattributed_ms": self_ms(ROOT),
    }
    log.append(f"per-layer figures are per unit, over {units} traced units")
    return attempted, failed, values


def load_metric_units() -> Dict[str, str]:
    """Metric name → unit, from ``BENCHMARK.json``."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args.workload)

    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {W.WORKLOADS}")
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("run from the repository root: src/repro is missing", file=sys.stderr)
        return 2
    units_of = load_metric_units()
    setup = measure_setup(args.workload) if not args.trace else []

    sys.path.insert(0, os.path.join(root, "src"))
    W.warm_up(args.workload)
    oracle = Oracle.load(args.workload, root)
    log: List[str] = []
    measure = traced_run if args.trace else timed_run
    attempted, failed, values = measure(
        args.workload, args.seed, args.seconds, oracle, log
    )
    for line in log:
        print(line)
    if not values:
        print("no unit completed", file=sys.stderr)
        return 1
    if setup:
        values["setup_s"] = statistics.median(setup)
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
    metrics = {
        name: {"value": value, "unit": units_of[name]} for name, value in values.items()
    }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
