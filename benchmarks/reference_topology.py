"""A small pure-Python reference for :class:`repro.network.topology.Topology`.

Test-only. It answers the network layer's queries the way the original
graph-library-backed topology did, with plain dictionaries and no caches:

* :meth:`ReferenceTopology.rebuild` visits every live pair once and
  stores the link's bandwidth, loss and distance as an attribute dict
  (adjacency order is therefore the live-node registration order);
* :meth:`khop_neighbors` is a level-by-level BFS in adjacency order;
* :meth:`shortest_route` replays that library's bidirectional Dijkstra
  over the dict-of-dicts adjacency (alternating directions, heap ties
  broken by insertion counter), calling a per-edge weight function that
  hides zero-bandwidth links;
* :meth:`multihop_cost` sums the per-hop costs left to right.

The arena-vs-reference tests (``tests/test_topology_vector.py``) and the
E19 maintenance gate (``benchmarks/test_e19_mobility_scale.py``) compare
against it; the golden fixture ``tests/data/topology_golden.json`` pins
both to the answers the graph library gave before it was removed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.radio import RadioModel
from repro.resources.node import Node

Edge = Dict[str, float]


def _hop_weight(u: str, v: str, data: Edge) -> Optional[float]:
    """Per-hop communication cost; ``None`` hides a zero-bandwidth link."""
    bw = data["bandwidth"]
    return 1000.0 / bw if bw > 0 else None


class ReferenceTopology:
    """Connectivity over ``nodes`` under ``radio``, rebuilt pair by pair."""

    def __init__(self, nodes: Sequence[Node], radio: RadioModel) -> None:
        self.radio = radio
        self._nodes: Dict[str, Node] = {n.node_id: n for n in nodes}
        self._adj: Dict[str, Dict[str, Edge]] = {}
        self.rebuild()

    def rebuild(self) -> None:
        self._adj = {nid: {} for nid in self._nodes}
        alive = [n for n in self._nodes.values() if n.alive]
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                if self.radio.in_range(a.position, b.position):
                    edge = {
                        "bandwidth": self.radio.bandwidth(a.position, b.position),
                        "loss": self.radio.loss_probability(a.position, b.position),
                        "distance": a.distance_to(b),
                    }
                    self._adj[a.node_id][b.node_id] = edge
                    self._adj[b.node_id][a.node_id] = edge

    # -- direct links ------------------------------------------------------

    def edges(self) -> List[Tuple[str, str, Edge]]:
        """Every link once, ``(u, v, attributes)`` in insertion order."""
        seen = set()
        out = []
        for u, nbrs in self._adj.items():
            seen.add(u)
            for v, data in nbrs.items():
                if v not in seen:
                    out.append((u, v, data))
        return out

    def neighbors(self, node_id: str) -> Tuple[str, ...]:
        return tuple(self._adj[node_id])

    def connected(self, a: str, b: str) -> bool:
        return b in self._adj[a]

    def link_bandwidth(self, a: str, b: str) -> float:
        return self._adj[a][b]["bandwidth"]

    def link_loss(self, a: str, b: str) -> float:
        return self._adj[a][b]["loss"]

    def edge_quality(self, a: str, b: str) -> Optional[Tuple[float, float]]:
        data = self._adj[a].get(b)
        return None if data is None else (data["bandwidth"], data["loss"])

    def communication_cost(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        bw = self.link_bandwidth(a, b)
        return 1000.0 / bw if bw > 0 else float("inf")

    # -- multi-hop ---------------------------------------------------------

    def _bfs(self, source: str, cutoff: float) -> Dict[str, int]:
        levels = {source: 0}
        nextlevel = [source]
        level = 0
        while nextlevel and cutoff > level:
            level += 1
            thislevel = nextlevel
            nextlevel = []
            for v in thislevel:
                for w in self._adj[v]:
                    if w not in levels:
                        levels[w] = level
                        nextlevel.append(w)
        return levels

    def khop_neighbors(self, node_id: str, k: int) -> Tuple[str, ...]:
        if k < 1:
            return ()
        return tuple(n for n in self._bfs(node_id, k) if n != node_id)

    def reachable_set(self, node_id: str) -> frozenset:
        return frozenset(self._bfs(node_id, float("inf")))

    def shortest_route(self, a: str, b: str) -> Optional[Tuple[str, ...]]:
        """The library's bidirectional Dijkstra, step for step; ``None``
        when ``b`` is unreachable."""
        if a == b:
            return (a,)
        adj = self._adj
        dists: List[Dict[str, float]] = [{}, {}]
        preds: List[Dict[str, Optional[str]]] = [{a: None}, {b: None}]
        seen: List[Dict[str, float]] = [{a: 0}, {b: 0}]
        fringe: List[list] = [[], []]
        c = count()
        heappush(fringe[0], (0, next(c), a))
        heappush(fringe[1], (0, next(c), b))
        finaldist: Optional[float] = None
        meetnode: Optional[str] = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            if v in dists[direction]:
                continue
            dists[direction][v] = dist
            if v in dists[1 - direction]:
                assert meetnode is not None
                forward: List[str] = []
                node: Optional[str] = meetnode
                while node is not None:
                    forward.append(node)
                    node = preds[0][node]
                forward.reverse()
                node = preds[1][meetnode]
                while node is not None:
                    forward.append(node)
                    node = preds[1][node]
                return tuple(forward)
            for w, d in adj[v].items():
                cost = _hop_weight(v, w, d) if direction == 0 else _hop_weight(w, v, d)
                if cost is None:
                    continue
                vw_length = dist + cost
                if w in dists[direction]:
                    if vw_length < dists[direction][w]:
                        raise ValueError("Contradictory paths found: negative weights?")
                elif w not in seen[direction] or vw_length < seen[direction][w]:
                    seen[direction][w] = vw_length
                    heappush(fringe[direction], (vw_length, next(c), w))
                    preds[direction][w] = v
                    if w in seen[1 - direction]:
                        total = vw_length + seen[1 - direction][w]
                        if finaldist is None or finaldist > total:
                            finaldist, meetnode = total, w
        return None

    def multihop_cost(self, a: str, b: str) -> float:
        route = self.shortest_route(a, b)
        if route is None:
            return float("inf")
        total = 0.0
        for u, v in zip(route, route[1:]):
            bw = self._adj[u][v]["bandwidth"]
            total += 1000.0 / bw if bw > 0 else float("inf")
        return total

    # -- analysis helpers --------------------------------------------------

    def component_count(self) -> int:
        alive = [nid for nid, n in self._nodes.items() if n.alive]
        live = set(alive)
        seen: set = set()
        components = 0
        for nid in alive:
            if nid in seen:
                continue
            components += 1
            seen.add(nid)
            stack = [nid]
            while stack:
                for w in self._adj[stack.pop()]:
                    if w in live and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return components

    def average_degree(self) -> float:
        if not self._nodes:
            return 0.0
        return 2.0 * len(self.edges()) / len(self._nodes)
