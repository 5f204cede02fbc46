"""Discrete-event simulation substrate.

The paper evaluates VoroNet by simulation; this package provides the
simulator: an event engine with virtual time, a message-passing network
layer in which every counted message takes one time unit (``LATENCY``:
one hop costs one unit) with per-message accounting (sends by kind on
``Network.sent_by_kind``, crashes, timeouts and retries on the simulator's
``MetricsRegistry``), churn/failure injection, and — most importantly — the
*message-level* implementation of the VoroNet protocol
(:mod:`repro.simulation.protocol`) in which every object acts only on its
local view and every exchanged message is explicit.  The oracle-mode
overlay in :mod:`repro.core` is the fast path used for large parameter
sweeps; this package is what validates its decentralisation and
maintenance-cost claims.

Scaling protocol-mode experiments
---------------------------------
Two mechanisms let the message-level simulator reach the overlay sizes the
oracle handles:

* **Batched construction** — ``ProtocolSimulator.bulk_join(positions)``
  builds an overlay through the pipelined message phases (Morton-sorted
  ``ADD_OBJECT`` carving from locate-grid hinted introducers, a
  back-registration hand-over pass, grid-exact close discovery, and
  grid-seeded long-link searches) instead of running every join to
  quiescence.  It returns a ``BulkJoinReport`` with per-phase message
  counts; the resulting per-node views are identical to
  ``VoroNet.bulk_load`` on the same positions and seed.  Use it to build
  the population, then drive sequential ``join``/``leave``/``query``
  probes for paper-faithful per-operation costs.
* **Per-node routing cache** — each ``ProtocolNode`` serves greedy
  forwarding from a flat candidate block cached against its local view
  epoch, the protocol-mode analogue of the oracle's routing-table cache;
  the block always equals the node's freshly assembled
  ``routing_candidates()``.

Fault injection and self-healing
--------------------------------
:mod:`repro.simulation.faults` adds the crash story the paper leaves
open: a ``FaultPlane`` woven into the network layer (crashed nodes,
probabilistic loss, partitions on the virtual clock), heartbeat
failure detection with per-node suspect lists, and a phased repair
protocol that heals surviving views — Voronoi scrubs, long-link
re-resolution through the routed search machinery, close re-discovery —
entirely through counted messages.  :mod:`repro.simulation.scenario`'s
``Scenario`` wires it all into one reproducible, staged experiment
(build → churn → crash → detect → heal); the oracle-mode
injectors in :mod:`repro.simulation.failures` remain the fast path for
damage accounting without message simulation.

Crash-at-any-message hardening and fuzzing
------------------------------------------
Multi-message operations (join carving, close discovery, long-link
search, leave hand-over) are guarded by a ``Watchdog`` — one plain
engine entry at its deadline, voided by its sequence number when the
operation completes — with idempotent, version-stamped retries (the
protocol module's ``OPERATION_TIMEOUT`` quiet window,
``OPERATION_RETRIES`` re-issues and ``OPERATION_BACKOFF``); a node dying mid-conversation surfaces as a
``timed_out`` outcome instead of wedging the protocol.
:mod:`repro.simulation.fuzz` turns the simulator's determinism into a
Jepsen-style harness: ``run_trace`` arms a ``Scenario`` to crash victims
at exact global message indices — multi-crash sequences and partition windows
armed the same way — and asserts convergence back to clean views, with
every failure replayable from its serialized ``FuzzTrace`` (see
``TESTING.md``).  Its names are imported from the module, not from this
package: re-exporting them would execute the module once more under
``python -m repro.simulation.fuzz``.

Partitions and merge
--------------------
:mod:`repro.simulation.merge` completes the WAN story: a ``FaultPlane``
``split`` cuts the message plane k ways while ``PartitionRuntime`` forks
the substrate per side, so **every** side keeps serving queries and
accepting inserts against its own tessellation; on heal, the union
kernel is rebuilt deterministically (lowest-id wins coordinate and
published-id collisions) and the standing ``RepairProtocol`` settles
every view against it until views verify clean — no merge-specific
message exists.  ``run_merge_scenario`` scripts the scenario matrix
(k-way, asymmetric, flapping) on a ``Scenario`` with per-side
availability accounting.
"""

from repro.simulation.engine import LATENCY, SimulationEngine, Watchdog
from repro.simulation.network import Message, Network
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.failures import (
    CrashDamageReport,
    CrashInjector,
    PartitionDamageReport,
    assess_partition_damage,
)
from repro.simulation.faults import (
    FaultDecision,
    FaultPlane,
    HeartbeatConfig,
    HeartbeatDetector,
    PartitionSpec,
    ProtocolCrashInjector,
    RepairProtocol,
    RepairReport,
    SplitSpec,
)
from repro.simulation.merge import (
    HealSummary,
    MergeReport,
    PartitionRuntime,
)
from repro.simulation.protocol import (
    BulkJoinReport,
    JoinReport,
    LeaveReport,
    ProtocolSimulator,
    QueryReport,
)
from repro.simulation.scenario import (
    AvailabilityTracker,
    HealOutcome,
    MergeScenarioReport,
    Scenario,
    measure_steady_state_liveness,
    run_merge_scenario,
)

__all__ = [
    "LATENCY",
    "SimulationEngine",
    "Watchdog",
    "Network",
    "Message",
    "MetricsRegistry",
    "CrashDamageReport",
    "CrashInjector",
    "PartitionDamageReport",
    "assess_partition_damage",
    "FaultDecision",
    "FaultPlane",
    "HeartbeatConfig",
    "HeartbeatDetector",
    "PartitionSpec",
    "SplitSpec",
    "ProtocolCrashInjector",
    "RepairProtocol",
    "RepairReport",
    "HealSummary",
    "MergeReport",
    "PartitionRuntime",
    "ProtocolSimulator",
    "BulkJoinReport",
    "JoinReport",
    "LeaveReport",
    "QueryReport",
    "Scenario",
    "HealOutcome",
    "measure_steady_state_liveness",
    "AvailabilityTracker",
    "MergeScenarioReport",
    "run_merge_scenario",
]
