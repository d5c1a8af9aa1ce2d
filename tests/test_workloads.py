"""Tests for the scenario-generation subsystem (repro.workloads) and
the E15–E17 suites built on it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.config import SweepConfig
from repro.experiments.parallel import run_batch
from repro.experiments.store import ResultsStore
from repro.experiments.suites import ALL_SUITES, SUITE_PLANS
from repro.resources.kinds import ResourceKind
from repro.resources.node import NODE_CLASS_PROFILES, NodeClass
from repro.sim.rng import RngRegistry
from repro.workloads import (
    BurstyProcess,
    FixedIntervalProcess,
    PoissonProcess,
    ScenarioSpec,
    build_service,
    get_scenario,
    list_scenarios,
    register,
    run_contention,
)
from repro.workloads.contention import ContentionConfig
from repro.workloads.arrivals import make_arrival_process
from repro.workloads.registry import SCENARIOS
from repro.workloads.services import (
    NEW_SERVICE_FAMILIES,
    SERVICE_FAMILIES,
    family_demand_bounds,
)


# -- service families -------------------------------------------------------


def test_registry_spans_paper_and_new_families():
    assert set(NEW_SERVICE_FAMILIES) == {"speech", "sensor-fusion", "navigation"}
    assert {"movie", "surveillance", "conference"} <= set(SERVICE_FAMILIES)
    assert set(NEW_SERVICE_FAMILIES) <= set(SERVICE_FAMILIES)


@pytest.mark.parametrize("family", sorted(NEW_SERVICE_FAMILIES))
def test_new_family_calibration(family):
    """Preferred quality needs cooperation; worst acceptable fits a PDA."""
    pda = NODE_CLASS_PROFILES[NodeClass.PDA]
    bounds = family_demand_bounds(family)
    assert bounds["top"]["cpu"] > 2 * pda.get(ResourceKind.CPU)
    assert bounds["bottom"]["cpu"] <= pda.get(ResourceKind.CPU)


@pytest.mark.parametrize("family", sorted(NEW_SERVICE_FAMILIES))
def test_new_family_bottom_task_fits_a_pda(family):
    """Every task, fully degraded, is servable by a fresh PDA node."""
    pda = NODE_CLASS_PROFILES[NodeClass.PDA]
    service = build_service(family, requester="r")
    for task in service.tasks:
        demand = task.demand_at(task.ladder().bottom().values())
        assert pda.covers(demand), f"{task.task_id}: {demand}"


def test_build_service_names_and_requester():
    service = build_service("speech", requester="req3", name="speech-req3-0")
    assert service.requester == "req3"
    assert service.name == "speech-req3-0"


def test_build_service_unknown_family():
    with pytest.raises(KeyError, match="unknown service family"):
        build_service("quantum-chess", requester="r")


# -- arrival processes ------------------------------------------------------


def test_fixed_interval_is_deterministic_and_ignores_rng():
    process = FixedIntervalProcess(interval=50.0, offset=10.0)
    rng = np.random.default_rng(0)
    assert process.arrivals(rng, 240.0) == (10.0, 60.0, 110.0, 160.0, 210.0)
    # No draws consumed: the generator still matches a fresh one.
    assert np.random.default_rng(0).random() == rng.random()


def test_poisson_is_pure_function_of_stream():
    process = PoissonProcess(rate=0.05)
    a = process.arrivals(RngRegistry(7).stream("arr"), 300.0)
    b = process.arrivals(RngRegistry(7).stream("arr"), 300.0)
    assert a == b
    assert a != process.arrivals(RngRegistry(8).stream("arr"), 300.0)
    assert all(0.0 <= t < 300.0 for t in a)
    assert list(a) == sorted(a)


def test_bursty_is_deterministic_and_bounded():
    process = BurstyProcess(base_rate=0.01, burst_rate=0.2, period=60.0,
                            burst_fraction=0.25)
    a = process.arrivals(RngRegistry(3).stream("arr"), 240.0)
    assert a == process.arrivals(RngRegistry(3).stream("arr"), 240.0)
    assert all(0.0 <= t < 240.0 for t in a)


def test_arrival_validation():
    with pytest.raises(ValueError):
        FixedIntervalProcess(interval=0.0)
    with pytest.raises(ValueError):
        PoissonProcess(rate=-1.0)
    with pytest.raises(ValueError):
        BurstyProcess(base_rate=0.5, burst_rate=0.1)  # burst below base
    with pytest.raises(ValueError):
        PoissonProcess(rate=1.0).arrivals(np.random.default_rng(0), 0.0)


def test_make_arrival_process():
    process = make_arrival_process("poisson", rate=0.1)
    assert isinstance(process, PoissonProcess)
    with pytest.raises(KeyError, match="unknown arrival family"):
        make_arrival_process("fractal")


# -- contention runs --------------------------------------------------------


def test_contention_is_pure_function_of_seed():
    spec = get_scenario("duet-av").replace(horizon=120.0)
    a, b = spec.run(11), spec.run(11)
    assert a.sessions == b.sessions
    assert a.metrics() == b.metrics()
    assert a.metrics() != spec.run(12).metrics()


def test_contention_requesters_and_families_cycle():
    result = run_contention(5, ContentionConfig(
        n_requesters=3, families=("movie", "speech"),
        arrival=FixedIntervalProcess(interval=40.0), horizon=120.0,
    ))
    assert result.n_requesters == 3
    assert {s.requester for s in result.sessions} == {0, 1, 2}
    by_requester = {s.requester: s.family for s in result.sessions}
    assert by_requester == {0: "movie", 1: "speech", 2: "movie"}


def test_contention_releases_all_reservations(monkeypatch):
    """After a run every provider is back to full headroom."""
    from repro.workloads import contention as C

    captured = {}
    original = C.build_contention_cluster

    def capture(*args, **kwargs):
        out = original(*args, **kwargs)
        captured["providers"] = out[1]
        return out

    monkeypatch.setattr(C, "build_contention_cluster", capture)
    run_contention(2, ContentionConfig(n_requesters=2, horizon=120.0))
    for provider in captured["providers"].values():
        assert provider.headroom() == provider.node.capacity


def test_contention_metrics_keys_are_stable():
    quiet = run_contention(1, ContentionConfig(
        n_requesters=1,
        arrival=FixedIntervalProcess(interval=1000.0, offset=500.0),
        horizon=120.0,
    ))
    busy = run_contention(1, ContentionConfig(n_requesters=2, horizon=120.0))
    assert quiet.offered() == 0
    assert set(quiet.metrics()) == set(busy.metrics())


def test_contention_validation():
    with pytest.raises(ValueError):
        run_contention(1, ContentionConfig(n_requesters=0))
    with pytest.raises(ValueError):
        run_contention(1, ContentionConfig(n_requesters=9, n_nodes=8))
    with pytest.raises(KeyError, match="unknown service family"):
        run_contention(1, ContentionConfig(families=("tetris",)))
    with pytest.raises(KeyError, match="unknown fleet mix"):
        run_contention(1, ContentionConfig(mix="all-mainframes"))


def test_fairness_bounds():
    result = run_contention(4, ContentionConfig(n_requesters=2, horizon=120.0))
    k = result.n_requesters
    assert 1.0 / k <= result.fairness() <= 1.0


# -- scenario registry ------------------------------------------------------


def test_builtin_scenarios_are_registered():
    names = [spec.name for spec in list_scenarios()]
    assert "contention-mix" in names and "saturation-trio" in names
    assert get_scenario("contention-mix").n_requesters == 4


def test_get_scenario_unknown():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("does-not-exist")


def test_register_rejects_duplicates():
    spec = get_scenario("solo-movie")
    with pytest.raises(ValueError, match="already registered"):
        register(spec)


def test_register_and_run_custom_scenario():
    name = "test-custom-duo"
    SCENARIOS.pop(name, None)
    spec = register(ScenarioSpec(
        name=name,
        description="test-only scenario",
        families=("surveillance",),
        n_requesters=2,
        n_nodes=8,
        horizon=90.0,
        arrival="fixed",
        arrival_params=(("interval", 45.0),),
    ))
    try:
        result = spec.run(3)
        assert result.offered() == 2 * 2  # two fixed arrivals per requester
    finally:
        SCENARIOS.pop(name, None)


def test_scenario_spec_validation():
    with pytest.raises(ValueError, match="unknown service family"):
        ScenarioSpec(name="x", description="", families=("warp-drive",))
    with pytest.raises(ValueError, match="unknown arrival family"):
        ScenarioSpec(name="x", description="", families=("movie",),
                     arrival="sporadic")
    with pytest.raises(ValueError, match="do not fit"):
        ScenarioSpec(name="x", description="", families=("movie",),
                     n_requesters=20, n_nodes=10)
    with pytest.raises(ValueError, match="unknown fleet mix"):
        ScenarioSpec(name="x", description="", families=("movie",),
                     mix="contnetion")


def test_scenario_replace_sweeps_fields():
    base = get_scenario("saturation-trio")
    swept = base.replace(arrival_params=(("rate", 0.5),), n_requesters=1)
    assert swept.arrival_process().rate == 0.5
    assert swept.n_requesters == 1
    assert base.arrival_process().rate != 0.5  # original untouched


# -- E15–E17 wiring ---------------------------------------------------------


def test_new_suites_registered_everywhere():
    for suite in ("E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23"):
        assert suite in SUITE_PLANS
        assert suite in ALL_SUITES
    assert list(ALL_SUITES)[-1] == "E23"


def test_e17_new_families_need_coalitions():
    sweep = SweepConfig(seeds=(1, 2), quick=True)
    table = ALL_SUITES["E17"](sweep)
    assert [row[0] for row in table.rows] == list(NEW_SERVICE_FAMILIES)
    for row in table.rows:
        single_success, coal_success = row[1], row[3]
        assert single_success.mean == 0.0  # a phone can never serve solo
        assert coal_success.mean > single_success.mean


def test_e15_parallel_batch_bit_identical_to_serial(tmp_path):
    """The issue's acceptance bar: contention suites through the shared
    scheduler are bit-identical, parallel vs serial."""
    serial = run_batch(
        ["E15"], SweepConfig(seeds=(1, 2), quick=True, jobs=1),
        store=ResultsStore(tmp_path / "serial"),
    )[0]
    parallel = run_batch(
        ["E15"], SweepConfig(seeds=(1, 2), quick=True, jobs=2),
        store=ResultsStore(tmp_path / "parallel"),
    )[0]
    cmp = ResultsStore.compare(serial, parallel)
    assert cmp.identical, cmp.differences
    # And the persisted bench reports round-trip to the same verdict.
    cmp = ResultsStore.compare(
        ResultsStore(tmp_path / "serial").load_bench("E15"),
        ResultsStore(tmp_path / "parallel").load_bench("E15"),
    )
    assert cmp.identical, cmp.differences


def test_e16_plan_labels_are_rates():
    plan = SUITE_PLANS["E16"](SweepConfig(quick=True))
    assert all(isinstance(point.label, float) for point in plan.points)
    assert len(plan.points) == 2


# -- CLI --------------------------------------------------------------------


def test_cli_list_includes_new_suites_and_computed_span(capsys):
    assert cli_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert f"{len(ALL_SUITES)} suites (E1–E23):" in out
    for suite in ("E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23"):
        assert suite in out


def test_cli_list_scenarios(capsys):
    assert cli_main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "contention-mix" in out
    assert "saturation-trio" in out
    assert f"{len(SCENARIOS)} scenarios:" in out
