"""One registry for the library's feature switches.

Two subsystems ship with a module-level boolean that turns them off
for a whole run:

* ``shard`` — :data:`repro.shard.cluster.USE_SHARDING`, the spatially-
  partitioned cluster shards with gateway routing (clusters collapse to
  one shard when off);
* ``faults`` — :data:`repro.faults.injector.USE_FAULTS`, the
  seed-deterministic fault-injection subsystem (configs with a
  non-empty :class:`~repro.faults.plan.FaultPlan` run fault-free when
  off).

Both are A/B switches with a meaning of their own: an enabled subsystem
that a run does not use (one shard, an empty plan) must be bit-identical
to a disabled one (``--disable-feature`` runs that A/B from the CLI).

This module is the one place that knows where those booleans live.
Switches keep living in their owning modules (tests monkeypatch them
directly, and the modules stay importable alone);
:func:`set_enabled`/:func:`override` here delegate to the same
attributes, so both styles compose.

Snapshot semantics — every switch is read **once per constructed
object or run**, never mid-flight:

* ``shard`` at :class:`~repro.shard.ShardedCluster` construction;
* ``faults`` at :func:`~repro.faults.injector.make_injector` — called
  once per streaming run, so a run is all-faulted or all-clean.

Flipping a switch therefore affects the *next* object/run, which is
what makes :func:`override` safe to wrap around a whole experiment.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass
from typing import Dict, Iterator


@dataclass(frozen=True)
class FeatureSwitch:
    """Where one feature switch lives and what it does.

    The module is imported lazily on first access, so this registry
    never forces the whole library in at import time.
    """

    name: str
    module: str
    attribute: str
    description: str

    @property
    def enabled(self) -> bool:
        return bool(getattr(importlib.import_module(self.module), self.attribute))

    def set(self, enabled: bool) -> None:
        setattr(importlib.import_module(self.module), self.attribute, bool(enabled))


#: The registry, keyed by kebab-case switch name.
FEATURES: Dict[str, FeatureSwitch] = {
    switch.name: switch
    for switch in (
        FeatureSwitch(
            name="shard",
            module="repro.shard.cluster",
            attribute="USE_SHARDING",
            description="spatially-partitioned cluster shards with "
                        "gateway routing (snapshot per ShardedCluster "
                        "construction; off = one shard)",
        ),
        FeatureSwitch(
            name="faults",
            module="repro.faults.injector",
            attribute="USE_FAULTS",
            description="seed-deterministic fault injection "
                        "(snapshot per run via make_injector; off = "
                        "plans are ignored, runs are fault-free)",
        ),
    )
}


def _get(name: str) -> FeatureSwitch:
    try:
        return FEATURES[name]
    except KeyError:
        raise KeyError(
            f"unknown feature {name!r}; available: {', '.join(FEATURES)}"
        ) from None


def is_enabled(name: str) -> bool:
    """Current value of a switch (reads the owning module's global)."""
    return _get(name).enabled


def set_enabled(name: str, enabled: bool) -> None:
    """Flip a switch (writes the owning module's global). Existing
    objects keep their construction-time snapshot; new ones see it."""
    _get(name).set(enabled)


def snapshot() -> Dict[str, bool]:
    """All switches' current values, in registry order."""
    return {name: switch.enabled for name, switch in FEATURES.items()}


@contextlib.contextmanager
def override(name: str, enabled: bool) -> Iterator[None]:
    """Temporarily pin one switch, restoring the previous value on exit
    (the A/B-test idiom, exception-safe)."""
    switch = _get(name)
    previous = switch.enabled
    switch.set(enabled)
    try:
        yield
    finally:
        switch.set(previous)


def describe() -> str:
    """A printable table of every switch (the CLI's --list-features)."""
    width = max(len(name) for name in FEATURES)
    lines: list[str] = []
    for name, switch in FEATURES.items():
        state = "on " if switch.enabled else "off"
        lines.append(f"{name:<{width}}  {state}  {switch.description}")
    return "\n".join(lines)
