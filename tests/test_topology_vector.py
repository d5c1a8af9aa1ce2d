"""Vectorized topology arena: equivalence, epochs, cache invalidation.

Three families of guarantees are pinned here:

* **radio matrices** — the vectorized ``*_matrix`` methods agree
  *elementwise, bit for bit* with the scalar curves on random placements
  (both the broadcasting `DiscRadio` overrides and the generic
  scalar-fallback base implementations);
* **reference and golden equivalence** — the arena :class:`Topology`
  and the pure-Python :class:`ReferenceTopology`
  (``benchmarks/reference_topology.py``) answer every query identically
  on random placements: neighbor order, link qualities, shortest routes
  (including tie-rich dense clusters), k-hop orders and the analysis
  helpers. ``tests/data/topology_golden.json`` pins both to the answers
  the original graph-library implementation gave on the same placements
  (recorded before that implementation was removed);
* **epochs** — neighbor/route caches refresh after ``add_node``,
  ``remove_node``, node death and ``rebuild()``, and the epoch counter
  observes liveness flips the moment they happen.

The vectorized mobility fast paths are pinned seed-identical against
reference replays of the original scalar walks, and the engine's O(1)
``pending`` counter against its heap.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from benchmarks.reference_topology import ReferenceTopology
from repro.errors import UnknownNodeError
from repro.network.geometry import clamp_to_area, distance, lerp, pairwise_distances
from repro.network.mobility import GroupMobility, RandomWaypoint
from repro.network.radio import DiscRadio, RadioModel
from repro.network.topology import Topology
from repro.resources.node import Node
from repro.sim.engine import Engine

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "topology_golden.json").read_text()
)


def _placements(n, area, seed):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0, area), rng.uniform(0, area)) for _ in range(n)]


def _build_pair(n, area, seed, range_m=100.0):
    """Identical fleets under the arena topology and the reference."""
    placements = _placements(n, area, seed)
    fleets = [[Node(f"n{i}", position=p) for i, p in enumerate(placements)]
              for _ in range(2)]
    radio = DiscRadio(range_m=range_m)
    return (Topology(fleets[0], radio), ReferenceTopology(fleets[1], radio),
            fleets[0], fleets[1])


def _names(indices):
    return tuple(f"n{i}" for i in indices)


def _assert_golden_routes(topo, golden, n):
    """All-pairs routes and accumulated costs equal the recorded ones
    (``None`` records an unreachable pair, i.e. an infinite cost)."""
    for i in range(n):
        for j in range(n):
            a, b = f"n{i}", f"n{j}"
            route = golden["routes"][i][j]
            assert topo.shortest_route(a, b) == (
                None if route is None else _names(route)), (a, b)
            cost = golden["costs"][i][j]
            assert topo.multihop_cost(a, b) == (
                float("inf") if cost is None else cost), (a, b)


def _assert_golden(topo, golden, n):
    """Every recorded answer of one placement: neighbors, k-hop orders,
    link qualities, routes, costs and the analysis helpers."""
    for i in range(n):
        a = f"n{i}"
        assert topo.neighbors(a) == _names(golden["neighbors"][i]), a
        for k, orders in golden["khop"].items():
            assert topo.khop_neighbors(a, int(k)) == _names(orders[i]), (a, k)
    links = 0
    for i, j, bw, loss, _distance in golden["links"]:
        a, b = f"n{i}", f"n{j}"
        assert topo.edge_quality(a, b) == (bw, loss) == topo.edge_quality(b, a)
        links += 1
    assert sum(len(topo.neighbors(f"n{i}")) for i in range(n)) == 2 * links
    _assert_golden_routes(topo, golden, n)
    assert topo.component_count() == golden["components"]
    assert topo.average_degree() == golden["average_degree"]


# -- radio matrices (property: vectorized == scalar, elementwise) -----------


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_disc_radio_matrices_match_scalar_elementwise(seed):
    rng = np.random.default_rng(seed)
    n = 40
    pts = [(rng.uniform(0, 250), rng.uniform(0, 250)) for _ in range(n)]
    radio = DiscRadio(range_m=100.0, nominal_bandwidth=4321.0,
                      min_rate_fraction=0.15, base_loss=0.01, edge_loss=0.2)
    pos = np.asarray(pts)
    dist = pairwise_distances(pos, exact_within=radio.matrix_distance_cutoff)
    in_r = radio.in_range_matrix(dist)
    bw = radio.bandwidth_matrix(dist)
    loss = radio.loss_matrix(dist)
    for i in range(n):
        for j in range(n):
            assert bool(in_r[i, j]) == radio.in_range(pts[i], pts[j])
            if in_r[i, j]:
                # Exact distances inside the cutoff: values must be
                # bit-identical to the scalar curves.
                assert float(bw[i, j]) == radio.bandwidth(pts[i], pts[j])
                assert float(loss[i, j]) == radio.loss_probability(pts[i], pts[j])
            else:
                assert float(bw[i, j]) == 0.0
                assert float(loss[i, j]) == 1.0


class _StepRadio(RadioModel):
    """A distance-based model relying on the base-class matrix fallbacks."""

    def in_range(self, a, b):
        return distance(a, b) <= 90.0

    def bandwidth(self, a, b):
        d = distance(a, b)
        return 0.0 if d > 90.0 else 1000.0 - 7.0 * d

    def loss_probability(self, a, b):
        d = distance(a, b)
        return 1.0 if d > 90.0 else d / 123.0


def test_base_class_matrix_fallbacks_match_scalar():
    rng = np.random.default_rng(9)
    pts = [(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(12)]
    radio = _StepRadio()
    assert radio.matrix_distance_cutoff is None  # exact everywhere
    dist = pairwise_distances(np.asarray(pts), exact_within=None)
    in_r = radio.in_range_matrix(dist)
    bw = radio.bandwidth_matrix(dist)
    loss = radio.loss_matrix(dist)
    for i in range(12):
        for j in range(12):
            assert bool(in_r[i, j]) == radio.in_range(pts[i], pts[j])
            assert float(bw[i, j]) == radio.bandwidth(pts[i], pts[j])
            assert float(loss[i, j]) == radio.loss_probability(pts[i], pts[j])


def test_pairwise_distances_exact_within_threshold():
    rng = np.random.default_rng(17)
    pts = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(60)]
    dist = pairwise_distances(np.asarray(pts), exact_within=100.0)
    full = pairwise_distances(np.asarray(pts), exact_within=None)
    for i in range(60):
        for j in range(60):
            expected = distance(pts[i], pts[j])
            assert full[i, j] == expected
            if expected <= 100.0:
                assert dist[i, j] == expected


# -- equivalence: arena vs reference vs golden ------------------------------


@pytest.mark.parametrize("area,seed", [
    (100.0, 1),   # dense: one big clique-ish component, many cost ties
    (250.0, 2),   # mixed
    (420.0, 3),   # sparse multi-hop
    (800.0, 4),   # mostly disconnected
])
def test_vector_matches_legacy_on_random_placements(area, seed):
    vec, ref, _, _ = _build_pair(32, area, seed)
    ids = [f"n{i}" for i in range(32)]
    for a in ids:
        assert vec.neighbors(a) == ref.neighbors(a)
        assert vec.reachable_set(a) == ref.reachable_set(a)
        for k in (1, 2, 3, 6):
            assert vec.khop_neighbors(a, k) == ref.khop_neighbors(a, k)
    for a in ids:
        for b in ids:
            assert vec.connected(a, b) == ref.connected(a, b)
            if vec.connected(a, b):
                assert vec.link_bandwidth(a, b) == ref.link_bandwidth(a, b)
                assert vec.link_loss(a, b) == ref.link_loss(a, b)
                assert vec.edge_quality(a, b) == ref.edge_quality(a, b)
                assert vec.communication_cost(a, b) == ref.communication_cost(a, b)
            else:
                assert vec.edge_quality(a, b) is None
            assert vec.shortest_route(a, b) == ref.shortest_route(a, b)
            assert vec.multihop_cost(a, b) == ref.multihop_cost(a, b)
    assert vec.component_count() == ref.component_count()
    assert vec.average_degree() == ref.average_degree()
    golden = GOLDEN["placements"][f"32@{area:g}/{seed}"]
    _assert_golden(vec, golden, 32)
    _assert_golden(ref, golden, 32)


def test_edge_list_matches_legacy():
    """Links come out in the recorded order with the recorded bandwidth,
    loss and (reference only) distance attributes."""
    vec, ref, _, _ = _build_pair(24, 260.0, 11)
    golden = GOLDEN["placements"]["24@260/11"]
    recorded = [(f"n{i}", f"n{j}", bw, loss, d) for i, j, bw, loss, d in golden["links"]]
    assert [
        (u, v, e["bandwidth"], e["loss"], e["distance"]) for u, v, e in ref.edges()
    ] == recorded
    seen = set()
    arena_edges = []
    for i in range(24):
        u = f"n{i}"
        seen.add(u)
        arena_edges.extend(
            (u, v, *vec.edge_quality(u, v)) for v in vec.neighbors(u) if v not in seen
        )
    assert arena_edges == [edge[:4] for edge in recorded]
    _assert_golden(vec, golden, 24)


def test_vector_matches_legacy_after_mobility_rebuilds():
    vec, ref, fleet_v, fleet_r = _build_pair(20, 300.0, 7)
    move_rng = np.random.default_rng(21)
    for golden in GOLDEN["mobility"]:
        for nv, nr in zip(fleet_v, fleet_r):
            x, y = move_rng.uniform(0, 300), move_rng.uniform(0, 300)
            nv.move_to(x, y)
            nr.move_to(x, y)
        vec.rebuild()
        ref.rebuild()
        for i in range(20):
            a = f"n{i}"
            assert vec.neighbors(a) == ref.neighbors(a) == _names(golden["neighbors"][i])
            for j in range(20):
                b = f"n{j}"
                assert vec.shortest_route(a, b) == ref.shortest_route(a, b)
        _assert_golden_routes(vec, golden, 20)
        _assert_golden_routes(ref, golden, 20)


def test_vector_matches_legacy_with_dead_nodes():
    vec, ref, fleet_v, fleet_r = _build_pair(16, 220.0, 13)
    for idx in (2, 9):
        fleet_v[idx].fail()
        fleet_r[idx].fail()
    vec.rebuild()
    ref.rebuild()
    for i in range(16):
        a = f"n{i}"
        assert vec.neighbors(a) == ref.neighbors(a)
        for j in range(16):
            assert vec.shortest_route(a, f"n{j}") == ref.shortest_route(a, f"n{j}")
    assert vec.component_count() == ref.component_count()
    _assert_golden(vec, GOLDEN["dead"], 16)
    _assert_golden(ref, GOLDEN["dead"], 16)


# -- epochs and cache invalidation -------------------------------------------


def _line_topology():
    nodes = [
        Node("a", position=(0, 0)),
        Node("b", position=(50, 0)),
        Node("c", position=(120, 0)),
    ]
    return Topology(nodes, DiscRadio(range_m=80.0)), nodes


def test_epoch_advances_on_rebuild_membership_and_liveness():
    topo, nodes = _line_topology()
    e0 = topo.epoch
    topo.rebuild()
    assert topo.epoch > e0
    e1 = topo.epoch
    topo.add_node(Node("d", position=(10, 0)))
    assert topo.epoch > e1
    e2 = topo.epoch
    topo.remove_node("d")
    assert topo.epoch > e2
    e3 = topo.epoch
    nodes[1].fail()           # liveness flip observed without a rebuild
    assert topo.epoch > e3
    e4 = topo.epoch
    nodes[1].fail()           # no flip -> no bump
    assert topo.epoch == e4
    nodes[1].recover()
    assert topo.epoch > e4


def test_route_cache_refreshes_after_rebuild():
    topo, nodes = _line_topology()
    assert topo.shortest_route("a", "c") == ("a", "b", "c")
    cost_before = topo.multihop_cost("a", "c")
    assert cost_before < float("inf")
    # Prime the caches, then move the relay out of range.
    nodes[1].move_to(500, 0)
    topo.rebuild()
    assert topo.shortest_route("a", "c") is None
    assert topo.multihop_cost("a", "c") == float("inf")
    assert topo.neighbors("a") == ()


def test_neighbor_and_route_caches_refresh_after_add_node():
    topo, _ = _line_topology()
    assert topo.neighbors("a") == ("b",)
    topo.add_node(Node("relay", position=(60, 40)))
    assert topo.neighbors("relay") == ()   # no edges until rebuild
    topo.rebuild()
    assert "relay" in topo.neighbors("a")
    assert topo.shortest_route("relay", "c") is not None


def test_caches_refresh_after_remove_node_without_rebuild():
    topo, _ = _line_topology()
    assert topo.shortest_route("a", "c") == ("a", "b", "c")
    assert topo.khop_neighbors("a", 2) == ("b", "c")
    topo.remove_node("b")          # edges vanish now, before any rebuild
    assert topo.neighbors("a") == ()
    assert topo.shortest_route("a", "c") is None
    assert topo.khop_neighbors("a", 2) == ()
    assert topo.average_degree() == 0.0
    with pytest.raises(UnknownNodeError):
        topo.connected("a", "b")


def test_caches_refresh_after_node_death():
    topo, nodes = _line_topology()
    assert topo.khop_neighbors("a", 2) == ("b", "c")  # prime BFS cache
    assert topo.shortest_route("a", "c") == ("a", "b", "c")
    nodes[1].fail()
    # Pre-rebuild the radio links persist (crashing software does not
    # remove a link budget).
    assert topo.connected("a", "b")
    topo.rebuild()
    assert topo.neighbors("a") == ()
    assert topo.khop_neighbors("a", 2) == ()
    assert topo.shortest_route("a", "c") is None


def test_death_and_recovery_roundtrip_routes():
    topo, nodes = _line_topology()
    route = topo.shortest_route("a", "c")
    nodes[1].fail()
    topo.rebuild()
    assert topo.shortest_route("a", "c") is None
    nodes[1].recover()
    topo.rebuild()
    assert topo.shortest_route("a", "c") == route


def test_liveness_watcher_detached_on_remove():
    topo, nodes = _line_topology()
    topo.remove_node("b")
    epoch = topo.epoch
    nodes[1].fail()            # no longer registered: no bump
    assert topo.epoch == epoch


# -- mobility: vectorized fast paths are seed-identical ----------------------


def _reference_waypoint_advance(model, nodes, dt):
    """The original (pre-vectorization) scalar walk, verbatim."""
    if model.speed_max <= 0.0:
        return
    for node in nodes:
        state = model._state.get(node.node_id)
        if state is None:
            state = model._new_leg(node)
        remaining = dt
        dest, speed, pausing = state
        pos = node.position
        while remaining > 1e-12:
            if pausing > 0.0:
                wait = min(pausing, remaining)
                pausing -= wait
                remaining -= wait
                if pausing == 0.0:
                    dest, speed, _ = model._new_leg(node)
                continue
            gap = distance(pos, dest)
            travel_time = gap / speed if speed > 0 else float("inf")
            if travel_time <= remaining:
                pos = dest
                remaining -= travel_time
                pausing = model.pause
                if pausing == 0.0:
                    dest, speed, _ = model._new_leg(node)
            else:
                pos = lerp(pos, dest, (speed * remaining) / gap)
                remaining = 0.0
        node.move_to(*clamp_to_area(pos, model.width, model.height))
        model._state[node.node_id] = (dest, speed, pausing)


@pytest.mark.parametrize("pause,dt", [(0.0, 1.0), (0.5, 1.0), (2.0, 0.25), (0.0, 7.5)])
def test_random_waypoint_vectorized_trace_identical(pause, dt):
    fleets = []
    models = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        nodes = [Node(f"n{i}") for i in range(25)]
        model = RandomWaypoint(300, 300, speed_min=0.5, speed_max=6.0,
                               pause=pause, rng=rng)
        model.place(nodes)
        fleets.append(nodes)
        models.append(model)
    for step in range(60):
        models[0].advance(fleets[0], dt)                      # vectorized
        _reference_waypoint_advance(models[1], fleets[1], dt)  # scalar replay
        for a, b in zip(fleets[0], fleets[1]):
            assert a.position == b.position, (step, a.node_id)
        assert models[0]._state == models[1]._state, step


def test_group_mobility_vectorized_trace_identical():
    fleets = []
    models = []
    for _ in range(2):
        leader = RandomWaypoint(200, 200, 1.0, 3.0, 0.0, np.random.default_rng(5))
        model = GroupMobility(leader, spread=15.0, rng=np.random.default_rng(6))
        nodes = [Node(f"n{i}") for i in range(17)]
        model.place(nodes)
        fleets.append(nodes)
        models.append(model)

    def reference_scatter(model, nodes):
        cx, cy = model._leader.position
        for node in nodes:
            angle = float(model.rng.uniform(0, 2 * np.pi))
            radius = float(model.rng.uniform(0, model.spread))
            node.move_to(
                *clamp_to_area(
                    (cx + radius * np.cos(angle), cy + radius * np.sin(angle)),
                    model.leader_model.width,
                    model.leader_model.height,
                )
            )

    for step in range(40):
        models[0].leader_model.advance([models[0]._leader], 1.0)
        models[0]._scatter(fleets[0])                          # vectorized
        models[1].leader_model.advance([models[1]._leader], 1.0)
        reference_scatter(models[1], fleets[1])                # scalar replay
        for a, b in zip(fleets[0], fleets[1]):
            assert a.position == b.position, (step, a.node_id)


# -- engine: O(1) pending counter --------------------------------------------


def test_pending_counter_tracks_push_cancel_pop():
    eng = Engine()
    handles = [eng.schedule(float(i + 1), lambda now: None) for i in range(5)]
    assert eng.pending == 5
    assert handles[2].cancel() is True
    assert eng.pending == 4
    assert handles[2].cancel() is False     # double-cancel: no double count
    assert eng.pending == 4
    eng.step()
    assert eng.pending == 3
    eng.run()
    assert eng.pending == 0


def test_cancel_after_fire_is_noop():
    eng = Engine()
    handle = eng.schedule(1.0, lambda now: None)
    eng.run()
    assert eng.pending == 0
    assert handle.cancel() is False          # already fired
    assert eng.pending == 0                  # and the counter is untouched


def test_pending_counter_with_nested_scheduling_and_stop():
    eng = Engine()

    def first(now):
        eng.schedule(1.0, lambda t: None)
        eng.schedule(2.0, lambda t: None)
        eng.stop()

    eng.schedule(1.0, first)
    eng.schedule(5.0, lambda now: None)
    eng.run()
    assert eng.pending == 3                  # two nested + the 5.0 event
    eng.run()
    assert eng.pending == 0


def test_pending_matches_heap_scan_under_random_workload():
    rng = np.random.default_rng(3)
    eng = Engine()
    handles = []
    for _ in range(300):
        op = rng.integers(0, 3)
        if op == 0 or not handles:
            handles.append(eng.schedule(float(rng.uniform(0, 10)), lambda now: None))
        elif op == 1:
            handles[int(rng.integers(0, len(handles)))].cancel()
        else:
            for _ in range(int(rng.integers(1, 4))):
                eng.step()
        scan = sum(1 for e in eng._heap if not e.cancelled)
        assert eng.pending == scan
