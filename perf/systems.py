"""The two systems under test behind one interface.

``OracleSystem`` drives the single-process overlay (``VoroNet`` behind the
serving adapter), ``ProtocolSystem`` its message-level twin
(``ProtocolSimulator``).  The runner in ``perf/workloads.py`` calls the same
methods on either, so every workload reports every end-to-end metric and the
two modes can be read side by side.

Objects are addressed by population index (see ``perf/inputs.py``);
``self.ids`` maps an index to the id the program assigned.

``repro.simulation`` is imported before ``repro.serving`` on purpose:
importing ``repro.serving`` first dies on an import cycle between
``serving.observability`` and ``simulation.merge`` (reported in the README,
not fixed here).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.config import VoroNetConfig
from repro.simulation.failures import CrashInjector
from repro.simulation.faults import (
    FaultPlane,
    HeartbeatConfig,
    HeartbeatDetector,
    ProtocolCrashInjector,
    RepairProtocol,
)
from repro.simulation.protocol import ProtocolSimulator
from repro.serving import traffic
from repro.serving.adapters import VoroNetServing
from repro.utils.rng import RandomSource

from perf.inputs import Pair, Point

#: Queries kept in flight by the closed-loop serving drivers.
SERVE_CONCURRENCY = 8
#: Heartbeat rounds run between a crash batch and its repair.
DETECTION_ROUNDS = 4
#: The sampled, piggy-backed detector.  Always passed explicitly: the
#: full-probe default is slated for deletion.
HEARTBEAT = HeartbeatConfig(interval=8.0, miss_threshold=2, piggyback=True, sample_fraction=0.25)
REPAIR_MAX_ROUNDS = 24
#: Message kinds whose sent counts the trace reports (the busiest five over
#: the two protocol workloads at the first baseline).
REPORTED_KINDS = ("QUERY", "QUERY_ANSWER", "PING", "PONG", "REGION_UPDATE")


class OracleSystem:
    mode = "oracle"

    def __init__(self, objects: int, seed: int, loss: float) -> None:
        # The oracle has no message plane, so nothing to lose messages on.
        self.seed = seed
        self.ids: List[int] = []

    def build(self, positions: Sequence[Point]) -> int:
        """Bulk-load ``positions``; returns how many failed to join."""
        # The adapter fixes n_max at 1.25 N; joins and leaves alternate, so
        # the churn phases never come near it.
        self.adapter = VoroNetServing(positions, seed=self.seed, num_long_links=1, track_paths=True)
        self.overlay = self.adapter.overlay
        self.ids = self.adapter.ids
        self.injector = CrashInjector(self.overlay, RandomSource(self.seed))
        self._churn_base = self._churn_messages()
        return len(positions) - len(self.overlay)

    def prepare_routes(self, pairs: Sequence[Pair]) -> list:
        ids = self.ids
        return [(ids[source], ids[target]) for source, target in pairs]

    def route(self, batch: list) -> list:
        return self.overlay.route_many(batch)

    def outcomes(self, batch: list, results: list) -> Tuple[List[Tuple[int, int]], int]:
        """(owner, hops) per route, and how many missed their target."""
        failed = sum(
            1
            for (_, target), result in zip(batch, results)
            if not result.success or result.owner != target
        )
        return [(result.owner, result.hops) for result in results], failed

    def join(self, position: Point) -> bool:
        self.ids.append(self.overlay.insert(position))
        return True

    def leave(self, index: int) -> bool:
        self.overlay.remove(self.ids[index])
        return True

    def serve(self, sources: Sequence[int], targets: Sequence[int]) -> Tuple[int, int]:
        """Closed-loop serving; returns (queries answered correctly, their hops)."""
        routes = self.overlay.stats.routes
        hops_before = routes.total_hops
        report = traffic.serve_closed_loop(
            self.adapter, traffic.Schedule(sources, targets), "zipf", concurrency=SERVE_CONCURRENCY
        )
        return report["served"], routes.total_hops - hops_before

    def heal_cycle(self, victims: Sequence[int]) -> Tuple[bool, int]:
        """Crash, scrub, re-assess; returns (healed, repair rounds)."""
        for index in victims:
            self.injector.crash(self.ids[index])
        self.injector.repair()
        return self.injector.assess_damage().total_stale_entries == 0, 1

    def verify(self) -> List[str]:
        return self.overlay.check_consistency()

    def view_size_mean(self) -> float:
        sizes = self.overlay.view_sizes()
        return sum(sizes.values()) / len(sizes)

    def _churn_messages(self) -> int:
        stats = self.overlay.stats
        return stats.joins.total_messages + stats.leaves.total_messages

    def churn_messages(self) -> int:
        """Messages the joins and leaves since the build are accounted for."""
        return self._churn_messages() - self._churn_base

    def messages(self) -> int:
        """Protocol messages accounted so far (``OverlayStats``, Section 4.2)."""
        return self._churn_messages() + self.overlay.stats.routes.total_messages

    def table_rebuilds(self) -> int:
        return self.overlay.stats.routing_table_rebuilds

    def counters(self) -> Dict[str, float]:
        stats = self.overlay.stats
        return {
            "messages": self.messages(),
            "messages_lost": 0,
            "messages_dropped": 0,
            "engine_events": 0,
            "fault_decisions": 0,
            "operation_retries": stats.operation_retries,
            "operation_timeouts": stats.operation_timeouts,
            "table_rebuilds": stats.routing_table_rebuilds,
            **{f"sent.{kind}": 0 for kind in REPORTED_KINDS},
        }


class ProtocolSystem:
    mode = "protocol"

    def __init__(self, objects: int, seed: int, loss: float) -> None:
        self.seed = seed
        self.loss = loss
        self.ids: List[int] = []
        self.positions: List[Point] = []
        self.simulator = ProtocolSimulator(
            VoroNetConfig(n_max=4 * objects, num_long_links=1, seed=seed),
            seed=seed,
            faults=FaultPlane(seed=seed) if loss else None,
        )
        self._churn_messages = 0
        self.injector = None

    def build(self, positions: Sequence[Point]) -> int:
        report = self.simulator.bulk_join(positions)
        self.ids = list(report.object_ids)
        self.positions = list(positions)
        return len(report.timed_out)

    def prepare_routes(self, pairs: Sequence[Pair]) -> list:
        ids, positions = self.ids, self.positions
        return [(ids[source], positions[target], ids[target]) for source, target in pairs]

    def route(self, batch: list) -> list:
        query = self.simulator.query
        return [query(position, start=source) for source, position, _ in batch]

    def outcomes(self, batch: list, results: list) -> Tuple[List[Tuple[int, int]], int]:
        failed = sum(1 for (_, _, target), report in zip(batch, results) if report.owner != target)
        return [(report.owner, report.routing_hops) for report in results], failed

    def join(self, position: Point) -> bool:
        report = self.simulator.join(position)
        self.ids.append(report.object_id)
        self.positions.append(position)
        self._churn_messages += report.messages
        return report.outcome == "completed"

    def leave(self, index: int) -> bool:
        report = self.simulator.leave(self.ids[index])
        self._churn_messages += report.messages
        return report.outcome == "completed"

    def serve(self, sources: Sequence[int], targets: Sequence[int]) -> Tuple[int, int]:
        traffic.serve_protocol_closed_loop(
            self.simulator,
            self.ids,
            traffic.Schedule(sources, targets),
            "zipf",
            concurrency=SERVE_CONCURRENCY,
            record_paths=True,
        )
        answers = self.simulator.query_answers
        served = hops = 0
        for query_id, target in enumerate(targets):
            answer = answers.get(query_id)
            if answer is not None and answer["owner"] == self.ids[target]:
                served += 1
                hops += answer["hops"]
        return served, hops

    def heal_cycle(self, victims: Sequence[int]) -> Tuple[bool, int]:
        """Crash, detect, repair, verify; returns (healed, repair rounds)."""
        simulator = self.simulator
        if self.injector is None:
            # The injector attaches a fault plane if the workload ran without
            # one so far; the loss setting applies from here on.
            self.injector = ProtocolCrashInjector(simulator, RandomSource(self.seed))
            self.detector = HeartbeatDetector(simulator, config=HEARTBEAT)
            self.repair = RepairProtocol(
                simulator, detector=self.detector, max_rounds=REPAIR_MAX_ROUNDS
            )
            simulator.network.faults.set_loss(self.loss)
        for index in victims:
            self.injector.crash(self.ids[index])
        self.detector.run_rounds(DETECTION_ROUNDS)
        report = self.repair.repair()
        healed = (
            report.converged
            and not simulator.verify_views()
            and self.injector.assess_damage().total_stale_entries == 0
        )
        return healed, report.rounds

    def verify(self) -> List[str]:
        return self.simulator.verify_views()

    def view_size_mean(self) -> float:
        return self.simulator.mean_view_size()

    def churn_messages(self) -> int:
        return self._churn_messages

    def messages(self) -> int:
        return self.simulator.network.messages_sent

    def table_rebuilds(self) -> int:
        return 0

    def counters(self) -> Dict[str, float]:
        simulator = self.simulator
        network = simulator.network
        faults = network.faults
        return {
            "messages": network.messages_sent,
            "messages_lost": network.messages_lost,
            "messages_dropped": network.messages_dropped,
            "engine_events": simulator.engine.processed_events,
            "fault_decisions": faults.decisions if faults is not None else 0,
            "operation_retries": simulator.metrics.counter("operation_retries"),
            "operation_timeouts": simulator.metrics.counter("operation_timeouts"),
            "table_rebuilds": 0,
            **{f"sent.{kind}": network.sent_by_kind[kind] for kind in REPORTED_KINDS},
        }


SYSTEMS = {"oracle": OracleSystem, "protocol": ProtocolSystem}
