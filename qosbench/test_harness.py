"""Self-tests of the benchmark harness.

    python3 -m pytest qosbench -q

Run from the repository root (``pyproject.toml`` puts ``src`` on the
path; pytest puts this directory there).
"""

from __future__ import annotations

import dataclasses
import enum
import os
import subprocess
import sys

import pytest

import run
import tracer as T
import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- sub-seeds ---------------------------------------------------------------


def _units(workload, seed, count, ranked=None):
    ranked = ranked or W.load_expected(workload)["ranked"]
    return [W.sub_seed(ranked, workload, seed, i) for i in range(count)]


def test_sub_seed_derivation_is_stable():
    # Pinned: changing the derivation silently changes every run's units.
    ranked = list(range(1, 11))
    assert _units("stream-shard", 0, 4, ranked) == [7, 4, 8, 3]
    assert _units("stream-faults", 7, 4, ranked) == [8, 3, 9, 2]
    assert _units("agent-negotiation", 3, 4, ranked) == [2, 9, 3, 8]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_fixed_seed_runs_the_same_units(workload):
    pool = W.SEED_POOL[workload]
    first = _units(workload, 11, 2 * len(pool))
    assert first == _units(workload, 11, 2 * len(pool))
    assert sorted(first) == sorted(2 * pool)  # each sub-seed exactly twice
    assert len({tuple(_units(workload, s, 4)) for s in range(10)}) > 1


def test_every_pool_seed_has_a_recorded_digest():
    for workload, pool in W.SEED_POOL.items():
        oracle = run.Oracle.load(workload, ROOT)
        assert set(oracle.expected) == {str(s) for s in pool}
        assert sorted(oracle.ranked) == sorted(pool)
        assert set(range(1, 9)) <= set(oracle.samples)


def test_runs_stop_only_between_pairs():
    assert run._keep_going(0.0, 0, 0.0)
    assert run._keep_going(100.0, 1, 1.0)  # a started pair is finished
    assert not run._keep_going(100.0, 2, 1.0)
    assert run._keep_going(2.0, 2, 10.0)


# -- oracle ------------------------------------------------------------------


def _one_unit_oracle(seed: int, corrupt_digest=False, corrupt_sample=False):
    oracle = run.Oracle.load("agent-negotiation", ROOT)
    sub = W.sub_seed(oracle.ranked, "agent-negotiation", seed, 0)
    if corrupt_digest:
        oracle.expected = dict(oracle.expected, **{str(sub): "0" * 64})
    if corrupt_sample:
        oracle.samples = {sub: {"messages": -1.0}}
    return oracle


def test_matching_unit_passes():
    log = []
    attempted, failed, values = run.timed_run(
        "agent-negotiation", 5, 0.0, _one_unit_oracle(5), log
    )
    assert (attempted, failed) == (2, 0), log  # one antithetic pair
    assert values["negotiations_per_s"] > 0


def test_corrupted_digest_is_a_failed_unit():
    log = []
    attempted, failed, _ = run.timed_run(
        "agent-negotiation", 5, 0.0, _one_unit_oracle(5, corrupt_digest=True), log
    )
    assert (attempted, failed) == (2, 1)
    assert "recorded" in log[0]


def test_mismatched_bench_sample_is_a_failed_unit():
    log = []
    _, failed, _ = run.timed_run(
        "agent-negotiation", 5, 0.0, _one_unit_oracle(5, corrupt_sample=True), log
    )
    assert failed == 1
    assert "committed" in log[0]


def test_committed_bench_samples_reproduce():
    samples = W.bench_samples(ROOT, "agent-negotiation")
    for seed in (1, 2):
        result = W.run_agent_negotiation(seed)
        assert {k: result.check[k] for k in samples[seed]} == samples[seed]


# -- configurations ----------------------------------------------------------


def _state(value):
    """Structural form of a configuration, so objects without ``__eq__``
    (rate shapes, arrival processes) compare by their fields."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, {
            f.name: _state(getattr(value, f.name)) for f in dataclasses.fields(value)
        })
    if isinstance(value, (tuple, list)):
        return tuple(_state(v) for v in value)
    if isinstance(value, (int, float, str, bool, enum.Enum)) or value is None:
        return value
    return (type(value).__name__, {k: _state(v) for k, v in vars(value).items()})


def test_configs_equal_the_suites_own():
    from repro.experiments import fault_suites, shard_suites

    assert _state(W.e22_config()) == _state(shard_suites._e22_config(2048, 240.0))
    plan = fault_suites._e23_plan_for(fault_suites._BURSTY, 40.0, 25.0, True)
    assert _state(W.e23_plan()) == _state(plan)
    assert _state(W.e23_config()) == _state(fault_suites._e23_config(plan, 120.0))


# -- tracer ------------------------------------------------------------------


def test_tracer_restores_every_attribute():
    import repro.agents.provider as agent_provider
    import repro.core.negotiation as negotiation
    import repro.sessions.driver as driver
    from repro.sim.engine import Engine

    originals = {
        "formulate_node_proposals": agent_provider.formulate_node_proposals,
        "negotiate": driver.negotiate,
        "step": Engine.__dict__["step"],
    }
    tracer = T.Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        assert agent_provider.formulate_node_proposals is not originals[
            "formulate_node_proposals"]
        assert driver.negotiate is negotiation.negotiate  # patched by identity
        assert driver.negotiate is not originals["negotiate"]
        assert Engine.__dict__["step"] is not originals["step"]
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert agent_provider.formulate_node_proposals is originals["formulate_node_proposals"]
    assert driver.negotiate is originals["negotiate"]
    assert Engine.__dict__["step"] is originals["step"]


def test_traced_unit_reproduces_untraced_outputs_and_self_times_sum(tmp_path):
    plain = W.run_agent_negotiation(3)
    tracer = T.Tracer()
    tracer.install()
    try:
        traced, wall = tracer.unit(0, lambda: W.run_agent_negotiation(3))
    finally:
        tracer.uninstall()
    assert W.digest(traced.record) == W.digest(plain.record)
    layers, min_self = tracer.summary()
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(wall, rel=1e-9)
    assert min_self >= -1e-9
    assert layers["core.formulate"]["calls"] > 0
    tracer.save(str(tmp_path / "spans.npz"))
    assert (tmp_path / "spans.npz").stat().st_size > 0


def test_same_layer_nesting_adds_no_call():
    tracer = T.Tracer()
    inner = tracer._wrap(lambda: 1, 1, False)
    outer = tracer._wrap(lambda: inner() + inner(), 1, False)
    other = tracer._wrap(lambda: inner(), 2, False)
    tracer.unit(0, lambda: (outer(), other()))
    layers, _ = tracer.summary()
    assert layers[T.LAYER_NAMES[1]]["calls"] == 2  # outer + the one under other
    assert layers[T.LAYER_NAMES[2]]["calls"] == 1


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    log = []
    attempted, failed, values = run.traced_run(
        "agent-negotiation", 2, 0.0, run.Oracle.load("agent-negotiation", ROOT),
        log, out_dir=str(tmp_path),
    )
    assert (attempted, failed) == (2, 0), log
    per_layer = {m["name"] for m in _spec()["per_layer"]}
    assert set(values) == per_layer


def _spec():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_end_to_end_run_patches_nothing():
    code = (
        "import sys, run, workloads as W\n"
        "oracle = run.Oracle.load('agent-negotiation', sys.argv[1])\n"
        "run.timed_run('agent-negotiation', 1, 0.0, oracle, [])\n"
        "assert 'tracer' not in sys.modules\n"
        "for name, mod in list(sys.modules.items()):\n"
        "    if name.startswith('repro'):\n"
        "        for value in list(vars(mod).values()):\n"
        "            for v in [value, *getattr(value, '__dict__', {}).values()]:\n"
        "                assert not getattr(v, '__wrapped_by_tracer__', False), v\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "qosbench")]))
    done = subprocess.run([sys.executable, "-c", code, ROOT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_end_to_end_metrics_are_the_declared_ones():
    log = []
    _, _, values = run.timed_run(
        "agent-negotiation", 4, 0.0, run.Oracle.load("agent-negotiation", ROOT), log
    )
    declared = {m["name"] for m in _spec()["end_to_end"]}
    assert set(values) | {"setup_s"} == declared
