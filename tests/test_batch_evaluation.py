"""The batched-evaluation bit-exactness contract (docs/performance.md).

Three layers of guarantees:

1. ``BatchProposalEvaluator`` equals ``ProposalEvaluator.distance``
   **exactly** (``==``, not approx) on randomized proposals, for the
   requests of every service family and both ``normalize_by`` modes;
2. whole synchronous negotiations produce the outcomes the scalar
   per-proposal path produced (``tests/data/negotiation_golden.json``,
   recorded with that path before it was removed);
3. suite tables (E4's agent path, E15/E16's contention path) are
   bit-identical to the tables recorded from the scalar path, extending
   the parallel==serial pattern of ``tests/test_scheduler.py``.

Plus the message-count pin: the synchronous driver's ``message_count``
must equal what the agent-based organizer actually sends.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.agents.system import AgentSystem
from repro.core.evaluation import (
    BatchProposalEvaluator,
    ProposalEvaluator,
    WeightScheme,
)
from repro.core.negotiation import negotiate
from repro.core.proposal import Proposal
from repro.errors import DomainError, NegotiationError, UnknownNodeError
from repro.experiments.config import ClusterConfig, SweepConfig
from repro.experiments.reporting import Table
from repro.experiments.scenario import build_cluster
from repro.experiments.suites import ALL_SUITES
from repro.network.radio import DiscRadio
from repro.network.topology import Topology
from repro.qos import catalog
from repro.qos.levels import DegradationLadder
from repro.resources.node import Node, NodeClass
from repro.resources.provider import QoSProvider
from repro.services import workload
from repro.sim.rng import RngRegistry
from repro.sim.sequences import reset_all_sequences
from repro.workloads.services import SERVICE_FAMILIES, build_service

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "negotiation_golden.json").read_text()
)


def _family_requests():
    """One (label, request) pair per service family task, plus catalog
    requests — every request shape the suites evaluate proposals for."""
    pairs = []
    for family in SERVICE_FAMILIES:
        service = build_service(family, requester="r")
        for task in service.tasks:
            pairs.append((f"{family}:{task.task_id}", task.request))
    pairs.append(("catalog:surveillance", catalog.surveillance_request()))
    pairs.append(("catalog:hq-streaming", catalog.high_quality_streaming_request()))
    return pairs


def _random_proposals(request, rng, count=40):
    ladder = DegradationLadder.from_request(request)
    proposals = []
    for i in range(count):
        values = {
            attr: ladder.ladder(attr)[int(rng.integers(ladder.depth(attr)))]
            for attr in request.attribute_names
        }
        proposals.append(Proposal(task_id="t", node_id=f"n{i}", values=values))
    return proposals


@pytest.mark.parametrize("normalize_by", ["domain", "request"])
@pytest.mark.parametrize("label,request_", _family_requests(),
                         ids=lambda p: p if isinstance(p, str) else "")
def test_batch_equals_scalar_exactly(label, request_, normalize_by):
    """Every distance equal with ``==`` — same floats, not close floats."""
    rng = RngRegistry(20260727).stream(f"batch:{label}:{normalize_by}")
    proposals = _random_proposals(request_, rng)
    for weights in WeightScheme:
        scalar = ProposalEvaluator(
            request_, weights=weights, normalize_by=normalize_by
        )
        batch = BatchProposalEvaluator(
            request_, weights=weights, normalize_by=normalize_by
        )
        batched = batch.distances(proposals)
        for i, proposal in enumerate(proposals):
            assert batched[i] == scalar.distance(proposal)
        # The singleton wrapper goes through the same compiled path.
        assert batch.distance(proposals[0]) == scalar.distance(proposals[0])


def test_compiled_arrays_mirror_scalar_weights():
    """The introspection arrays expose exactly the weights/denominators
    the scalar evaluator derives per call."""
    request = catalog.surveillance_request()
    scalar = ProposalEvaluator(request)
    batch = BatchProposalEvaluator(request)
    assert list(batch.dim_weights) == [
        scalar.dimension_weight(dp.dimension) for dp in request.dimensions
    ]
    assert list(batch.attr_weights) == [
        scalar.attribute_weight(dp.dimension, ap.attribute)
        for dp in request.dimensions for ap in dp.attributes
    ]
    assert len(batch.denominators) == len(batch.attr_weights)
    assert all(d > 0 for d in batch.denominators)


def test_batch_signed_mode_equals_scalar():
    request = catalog.surveillance_request()
    rng = RngRegistry(99).stream("signed")
    proposals = _random_proposals(request, rng, count=25)
    scalar = ProposalEvaluator(request, signed=True)
    batch = BatchProposalEvaluator(request, signed=True)
    batched = batch.distances(proposals)
    for i, proposal in enumerate(proposals):
        assert batched[i] == scalar.distance(proposal)


def test_batch_empty_and_error_parity():
    request = catalog.surveillance_request()
    batch = BatchProposalEvaluator(request)
    assert list(batch.distances([])) == []
    with pytest.raises(NegotiationError):
        BatchProposalEvaluator(request, normalize_by="bogus")
    # Missing attribute -> the scalar path's KeyError.
    with pytest.raises(KeyError):
        batch.distances([Proposal(task_id="t", node_id="n", values={})])
    # Out-of-domain value -> the scalar path's DomainError.
    good = _random_proposals(request, RngRegistry(1).stream("e"), count=1)[0]
    bad_values = dict(good.values)
    bad_values[request.attribute_names[0]] = object()
    with pytest.raises(DomainError):
        batch.distances([Proposal(task_id="t", node_id="n", values=bad_values)])


# -- whole negotiations: batched step 3 vs the recorded scalar outcomes -----


def _run_sync(seed: int) -> dict:
    # Rewind the process-wide id sequences (as the experiment runner
    # does): the selection tie-break hashes (task id, node id), so the
    # comparison needs identical task ids in both runs.
    reset_all_sequences()
    topology, providers, _nodes, _registry = build_cluster(
        ClusterConfig(n_nodes=12), seed
    )
    service = workload.movie_playback_service(requester="requester")
    outcome = negotiate(service, topology, providers, commit=False)
    def stable(task_id: str) -> str:
        # Strip the process-global task counter ("movie-video-11" vs
        # "movie-video-17"): only the task identity matters here.
        return task_id.rsplit("-", 1)[0]

    return {
        "members": sorted(outcome.coalition.members),
        "awards": {
            stable(tid): [a.node_id, a.distance, a.comm_cost]
            for tid, a in outcome.coalition.awards.items()
        },
        "unallocated": [stable(tid) for tid in outcome.unallocated],
        "messages": outcome.message_count,
    }


def test_negotiate_identical_with_and_without_batching():
    assert {str(seed): _run_sync(seed) for seed in (1, 2, 3)} == GOLDEN["sync"]


@pytest.mark.parametrize("suite", ["E4", "E15", "E16"])
def test_suite_tables_bit_identical_with_and_without_batching(suite):
    """The rewire acceptance bar: whole quick suite tables, agent path
    (E4) and contention path (E15/E16), equal the scalar-path tables
    cell for cell."""
    sweep = SweepConfig(seeds=(1, 2), quick=True, jobs=1)
    assert ALL_SUITES[suite](sweep) == Table.from_dict(GOLDEN["tables"][suite])


# -- message-count pin: synchronous driver vs agent-based protocol ----------


def _fixed_positions(nodes):
    spots = [(50.0, 50.0), (60.0, 50.0), (40.0, 50.0), (50.0, 65.0)]
    for node, (x, y) in zip(nodes, spots):
        node.move_to(x, y)


def test_sync_and_agent_message_counts_match():
    """Multi-task service, reliable channel, static in-range cluster:
    both paths must count the same radio messages — CFP copies, one
    bundled PROPOSE per responding remote node, one message per remote
    award."""

    def fleet():
        return [
            Node("requester", NodeClass.PHONE),
            Node("pda", NodeClass.PDA),
            Node("lap1", NodeClass.LAPTOP),
            Node("lap2", NodeClass.LAPTOP),
        ]

    # Agent path. (Sequences rewound per path so both services carry
    # identical task ids — the selection tie-break hashes them.)
    reset_all_sequences()
    agent_nodes = fleet()
    system = AgentSystem(agent_nodes, seed=5, reliable_channel=True)
    _fixed_positions(agent_nodes)
    system.topology.rebuild()
    agent_outcome = system.negotiate(
        workload.movie_playback_service(requester="requester", name="m1")
    )
    assert agent_outcome is not None and agent_outcome.success

    # Synchronous path on an identical, fresh cluster.
    reset_all_sequences()
    sync_nodes = fleet()
    _fixed_positions(sync_nodes)
    topology = Topology(sync_nodes, DiscRadio())
    providers = {n.node_id: QoSProvider(n) for n in sync_nodes}
    sync_outcome = negotiate(
        workload.movie_playback_service(requester="requester", name="m1"),
        topology, providers, commit=True,
    )
    assert sync_outcome.success

    assert agent_outcome.proposals_received == sync_outcome.proposals_received
    assert agent_outcome.message_count == sync_outcome.message_count
    assert sorted(agent_outcome.coalition.members) == sorted(
        sync_outcome.coalition.members
    )


# -- narrowed error masking -------------------------------------------------


def test_comm_cost_propagates_unknown_node_bug():
    """A proposal from a node id the topology never heard of is a bug
    and must raise, not score as 'unreachable'."""
    nodes = [
        Node("requester", NodeClass.PHONE, position=(0.0, 0.0)),
        Node("helper", NodeClass.LAPTOP, position=(10.0, 0.0)),
    ]
    topology = Topology(nodes, DiscRadio(range_m=100.0))
    providers = {n.node_id: QoSProvider(n) for n in nodes}
    # Register a provider under a typo'd id that is absent from the
    # topology: its proposals reach step 3, where comm_cost must raise.
    ghost = Node("heIper", NodeClass.LAPTOP, position=(10.0, 0.0))
    providers["heIper"] = QoSProvider(ghost)
    service = workload.movie_playback_service(requester="requester")
    with pytest.raises(UnknownNodeError):
        negotiate(
            service, topology, providers, commit=False,
            candidates=["requester", "helper", "heIper"],
        )
