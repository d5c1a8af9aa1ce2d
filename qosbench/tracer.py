"""Outside-in tracer for the traced benchmark run.

:class:`Tracer` wraps the public functions of each ``repro`` layer from
outside the package and records one span per call: layer, start, end,
parent span and unit id. Spans live in flat arrays while the run goes
on and are written out once, at the end (:meth:`Tracer.save`).

Rules:

* a call made while the innermost open span already belongs to the same
  layer opens no span: its time is that span's self time and it is not
  counted as a call;
* a layer's self time is its spans' durations minus the part their
  child spans cover; the harness opens one root span per unit, whose
  self time is the wall under no layer (``trace.unattributed``), so the
  layer self times plus the unattributed time sum to the traced wall;
* :meth:`Tracer.uninstall` puts every patched attribute back, and
  names imported elsewhere are patched by identity (every ``repro``
  module attribute that *is* the original function gets the wrapper).

The end-to-end run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

ROOT = "trace.unattributed"

#: layer → ``(module, qualified name)`` of every function wrapped for it.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core.formulate": (
        ("repro.core.formulation", "formulate"),
        ("repro.core.negotiation", "formulate_node_proposals"),
    ),
    "core.evaluate": (
        ("repro.core.evaluation", "BatchProposalEvaluator.distances"),
        ("repro.core.negotiation", "score_admissible"),
    ),
    "core.select": (
        ("repro.core.selection", "SelectionPolicy.score"),
        ("repro.core.selection", "SelectionPolicy.rank"),
        ("repro.core.selection", "SelectionPolicy.select"),
    ),
    "core.negotiate": (("repro.core.negotiation", "negotiate"),),
    "resources.admit": (
        ("repro.resources.provider", "QoSProvider.can_serve"),
        ("repro.resources.manager", "ResourceManager.can_admit"),
    ),
    "resources.reserve": (
        ("repro.resources.provider", "QoSProvider.reserve_for"),
        ("repro.resources.provider", "QoSProvider.release"),
    ),
    "network.route": (
        ("repro.network.topology", "Topology.shortest_route"),
        ("repro.network.topology", "Topology.multihop_cost"),
        ("repro.network.topology", "Topology.communication_cost"),
    ),
    "network.rebuild": (
        ("repro.network.topology", "Topology.rebuild"),
        ("repro.network.topology", "Topology.update_positions"),
        ("repro.network.topology", "Topology.block_links"),
        ("repro.network.topology", "Topology.unblock_links"),
    ),
    "network.mobility": (("repro.network.mobility", "RandomWaypoint.advance"),),
    "network.messaging": (
        ("repro.network.messaging", "NetworkService.send"),
        ("repro.network.messaging", "NetworkService.send_routed"),
        ("repro.network.messaging", "NetworkService.broadcast"),
    ),
    "shard.mobility": (("repro.shard.cluster", "ShardedCluster.advance_mobility"),),
    "shard.rebuild": (
        ("repro.shard.cluster", "ShardedCluster.rebuild"),
        ("repro.shard.cluster", "ShardedCluster.rebuild_all"),
    ),
    "shard.route": (
        ("repro.shard.cluster", "ShardedCluster.communication_cost"),
        ("repro.shard.cluster", "ShardedCluster.multihop_cost"),
        ("repro.shard.cluster", "ShardedCluster.shortest_route"),
    ),
    "shard.cell_of": (
        ("repro.shard.partition", "ShardGrid.cell_of"),
        ("repro.shard.partition", "ShardGrid.shard_of"),
    ),
    "sessions": (("repro.sessions.driver", "SessionDriver.run"),),
    "faults": tuple(
        ("repro.faults.injector", f"FaultInjector.{name}")
        for name in (
            "link_survives", "spike_delay", "wrap_channel", "filter_proposals",
            "award_handshake", "crash_schedule", "install",
        )
    ) + (("repro.faults.injector", "FaultyChannel.transmit"),),
    "workloads.build": (
        ("repro.workloads.contention", "build_contention_cluster"),
        ("repro.workloads.contention", "merge_arrival_events"),
    ),
    "sim": (("repro.sim.engine", "Engine.step"),),
}

LAYER_NAMES: Tuple[str, ...] = (ROOT,) + tuple(LAYERS)


class Tracer:
    """Span recorder over the functions listed in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.layers = array("b")
        self.units = array("l")
        self.outcomes: List[Tuple[int, int]] = []
        """``(proposals received, awards)`` of every wrapped
        ``negotiate`` call."""
        self._stack: List[int] = [-1]
        self._layer_stack: List[int] = [-1]
        self._unit = -1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, layer: int) -> int:
        idx = len(self.starts)
        self.parents.append(self._stack[-1])
        self.layers.append(layer)
        self.units.append(self._unit)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._layer_stack.append(layer)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._layer_stack.pop()

    def unit(self, unit_id: int, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn`` under the root span of unit ``unit_id``; returns its
        result and the traced wall (the root span's duration)."""
        self._unit = unit_id
        idx = self._open(0)
        try:
            result = fn()
        finally:
            self._close(idx)
        return result, self.ends[idx] - self.starts[idx]

    def _wrap(self, fn: Callable, layer: int, keep_outcome: bool) -> Callable:
        layer_stack = self._layer_stack
        open_, close = self._open, self._close
        outcomes = self.outcomes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer_stack[-1] == layer:
                return fn(*args, **kwargs)
            idx = open_(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if keep_outcome:
                outcomes.append(
                    (result.proposals_received, len(result.coalition.awards))
                )
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` (idempotent per tracer)."""
        if self._patches:
            return
        for layer_id, (layer, targets) in enumerate(LAYERS.items(), start=1):
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    wrapper = self._wrap(original, layer_id, False)
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(original, layer_id, qualname == "negotiate")
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, name, original))
                            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        return list(self._patches)

    # -- analysis -------------------------------------------------------

    def summary(self) -> Tuple[Dict[str, Dict[str, float]], float]:
        """Per layer: span count and total self seconds; plus the least
        self time of any span (negative only if spans nest wrongly)."""
        import numpy as np

        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        parent = np.frombuffer(self.parents, dtype=np.int_)
        layer = np.frombuffer(self.layers, dtype=np.int8).astype(np.int64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(start)
        )
        self_time = duration - covered
        n_layers = len(LAYER_NAMES)
        calls = np.bincount(layer, minlength=n_layers)
        self_sum = np.bincount(layer, weights=self_time, minlength=n_layers)
        layers = {
            name: {"calls": int(calls[i]), "self_s": float(self_sum[i])}
            for i, name in enumerate(LAYER_NAMES)
        }
        return layers, float(self_time.min(initial=0.0))

    def durations(self, layer: str):
        """Inclusive durations (s) of one layer's spans."""
        import numpy as np

        idx = LAYER_NAMES.index(layer)
        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        layers = np.frombuffer(self.layers, dtype=np.int8)
        mask = layers == idx
        return end[mask] - start[mask]

    def save(self, path: str) -> None:
        """Write every span (and the layer names) to one ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int_),
            layer=np.frombuffer(self.layers, dtype=np.int8),
            unit=np.frombuffer(self.units, dtype=np.int_),
            layer_names=np.array(LAYER_NAMES),
        )
