"""The repro.features switch registry: delegation, override, snapshots."""

import pytest

import repro.faults.injector as injector
import repro.features as features
import repro.shard.cluster as cluster


def test_registry_names_and_defaults():
    assert list(features.FEATURES) == ["shard", "faults"]
    # Every subsystem ships enabled.
    assert features.snapshot() == {"shard": True, "faults": True}


def test_unknown_feature_raises():
    with pytest.raises(KeyError, match="unknown feature"):
        features.is_enabled("warp-drive")
    with pytest.raises(KeyError, match="unknown feature"):
        features.set_enabled("warp-drive", True)


@pytest.mark.parametrize(
    "name, module, attribute",
    [
        ("shard", cluster, "USE_SHARDING"),
        ("faults", injector, "USE_FAULTS"),
    ],
)
def test_set_enabled_delegates_to_module_global(name, module, attribute):
    original = getattr(module, attribute)
    try:
        features.set_enabled(name, False)
        assert getattr(module, attribute) is False
        assert features.is_enabled(name) is False
        features.set_enabled(name, True)
        assert getattr(module, attribute) is True
    finally:
        setattr(module, attribute, original)


def test_monkeypatched_global_is_visible_to_registry(monkeypatch):
    # The two styles compose: tests that patch the module global
    # directly are seen by the registry, and vice versa.
    monkeypatch.setattr(cluster, "USE_SHARDING", False)
    assert features.is_enabled("shard") is False


def test_override_restores_on_exit_and_on_error():
    assert features.is_enabled("faults") is True
    with features.override("faults", False):
        assert injector.USE_FAULTS is False
    assert injector.USE_FAULTS is True
    with pytest.raises(RuntimeError):
        with features.override("faults", False):
            raise RuntimeError("boom")
    assert injector.USE_FAULTS is True


def test_describe_lists_every_switch():
    text = features.describe()
    for name in features.FEATURES:
        assert name in text

