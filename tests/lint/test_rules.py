"""Fixture-snippet tests: positive, negative and suppressed per rule."""

import textwrap
from pathlib import Path
from typing import List

from repro.lint import run_lint


def lint_snippet(tmp_path: Path, source: str, *,
                 name: str = "repro/simulation/snippet.py",
                 select=None) -> List[str]:
    """Lint one dedented snippet; returns ``rule:line`` strings."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    findings = run_lint([tmp_path], select=select)
    return [f"{f.rule}:{f.line}" for f in findings]


# ----------------------------------------------------------------------
# SIM001 — epoch contract
# ----------------------------------------------------------------------
SIM001 = ["SIM001"]


def test_sim001_positive_mutation_without_bump(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_region_update(self, message):
                self.voronoi[1] = message
    """, select=SIM001)
    assert found == ["SIM001:3"]


def test_sim001_positive_branch_missing_bump(tmp_path):
    # The bump in the if-branch does not cover the else-branch mutation.
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_close_declare(self, message):
                if message:
                    self.close[1] = message
                    self.touch_view()
                else:
                    self.close.pop(2, None)
    """, select=SIM001)
    assert found == ["SIM001:7"]


def test_sim001_positive_mutating_method_call(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def handle_join(self, message):
                self.long_links.append(message)
    """, select=SIM001)
    assert found == ["SIM001:3"]


def test_sim001_negative_bump_after_mutation(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_region_update(self, message):
                self.voronoi[1] = message
                self.touch_view()
    """, select=SIM001)
    assert found == []


def test_sim001_negative_changed_flag_idiom(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_view_scrub(self, message):
                changed = False
                if message:
                    self.voronoi.pop(1, None)
                    changed = True
                if changed:
                    self.touch_view()
    """, select=SIM001)
    assert found == []


def test_sim001_negative_direct_epoch_increment(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_backlink_remove(self, message):
                self.back_links.pop(message, None)
                self.view_epoch += 1
    """, select=SIM001)
    assert found == []


def test_sim001_negative_alias_mutation_then_bump(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_long_link_retarget(self, message):
                link = self.long_links[0]
                link.neighbor = message
                self.touch_view()
    """, select=SIM001)
    assert found == []


def test_sim001_positive_alias_mutation_without_bump(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_long_link_retarget(self, message):
                link = self.long_links[0]
                link.neighbor = message
    """, select=SIM001)
    assert found == ["SIM001:4"]


def test_sim001_negative_non_handler_method(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def rebuild(self):
                self.voronoi = {}
    """, select=SIM001)
    assert found == []


def test_sim001_positive_helper_of_a_handler_class(tmp_path):
    # The seeded deletion of ``_start_long_link_phase``'s bump: handlers
    # delegate view mutations to helpers, which are held to the contract;
    # ``__init__`` builds the view before any epoch can have been read.
    found = lint_snippet(tmp_path, """\
        class Node:
            def __init__(self):
                self.long_links = []

            def _on_create_object(self, message):
                self._start_long_link_phase()

            def _start_long_link_phase(self):
                for target in range(2):
                    self.long_links.append(target)
    """, select=SIM001)
    assert found == ["SIM001:10"]


def test_sim001_positive_close_written_from_the_repair_round(tmp_path):
    # Second half: the parent's ``repair_round`` close re-discovery.  The
    # bump that follows does not discharge it — nothing outside the node's
    # class can be held to the every-path contract.
    found = lint_snippet(tmp_path, """\
        class RepairProtocol:
            def repair_round(self):
                for node in self.simulator.nodes.values():
                    node.close[7] = node.position
                    node.touch_view()
    """, select=SIM001)
    assert found == ["SIM001:4"]


def test_sim001_positive_back_links_popped_from_bulk_join(tmp_path):
    # Second half: the parent's ``bulk_join`` hand-over phase; ``del``,
    # assignment and augmented assignment are writes like the mutator call.
    found = lint_snippet(tmp_path, """\
        def bulk_join(simulator, holder, key):
            holder.back_links.pop(key)
            holder.touch_view()
            del simulator.nodes[3].long_links[0]
            holder.voronoi = {}
            holder.close |= {}
    """, select=SIM001)
    assert found == ["SIM001:2", "SIM001:4", "SIM001:5", "SIM001:6"]


def test_sim001_positive_liveness_written_from_the_detector_sweep(tmp_path):
    # Second half, liveness containers: the detector sweep and repair close
    # phase as written before ``miss_heartbeat`` / ``rediscover_close``.  An
    # empty one is a shared sentinel, so only the node may swap it; a call
    # to the node's method is no write, and reads stay free.
    found = lint_snippet(tmp_path, """\
        def sweep(node, peer, threshold):
            misses = node.missed_heartbeats.get(peer, 0) + 1
            node.missed_heartbeats[peer] = misses
            if misses >= threshold and peer not in node.suspects:
                node.suspects.add(peer)
                node.apply_suspicion({peer})
            if node.suspects or node.rehabilitated:
                node.rehabilitated.clear()
            node.miss_heartbeat(peer, threshold)
    """, select=SIM001)
    assert found == ["SIM001:3", "SIM001:5", "SIM001:8"]


def test_sim001_negative_outside_writes_elsewhere_and_reads(tmp_path):
    # The second half binds the simulation plane only (the oracle's nodes
    # have SIM006), and reading another node's view is no write.
    source = """\
        def scrub(node, key):
            node.back_links.pop(key)
    """
    assert lint_snippet(tmp_path, source, name="repro/core/snippet.py",
                        select=SIM001) == []
    assert lint_snippet(tmp_path, """\
        def census(node):
            return sorted(node.close), len(node.long_links)
    """, select=SIM001) == []


def test_sim001_suppressed(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_region_update(self, message):
                self.voronoi[1] = message  # simlint: ignore[SIM001]
    """, select=SIM001)
    assert found == []


# ----------------------------------------------------------------------
# SIM002 — determinism
# ----------------------------------------------------------------------
SIM002 = ["SIM002"]


def test_sim002_positive_global_random(tmp_path):
    found = lint_snippet(tmp_path, """\
        import random

        def pick():
            return random.random()
    """, select=SIM002)
    assert found == ["SIM002:4"]


def test_sim002_positive_unseeded_generators(tmp_path):
    found = lint_snippet(tmp_path, """\
        import random
        import numpy as np
        from repro.utils.rng import RandomSource

        A = random.Random()
        B = np.random.default_rng()
        C = RandomSource()
    """, select=SIM002)
    assert found == ["SIM002:5", "SIM002:6", "SIM002:7"]


def test_sim002_negative_seeded_generators(tmp_path):
    found = lint_snippet(tmp_path, """\
        import random
        import numpy as np
        from repro.utils.rng import RandomSource

        A = random.Random(7)
        B = np.random.default_rng(7)
        C = RandomSource(7)
    """, select=SIM002)
    assert found == []


def test_sim002_positive_wall_clock(tmp_path):
    found = lint_snippet(tmp_path, """\
        import time
        import datetime

        def stamp():
            return time.time(), datetime.datetime.now()
    """, select=SIM002)
    assert found == ["SIM002:5", "SIM002:5"]


def test_sim002_positive_set_iteration(tmp_path):
    found = lint_snippet(tmp_path, """\
        def spread(node):
            peers = set(node.neighbors)
            for peer in peers:
                node.send(peer)
    """, select=SIM002)
    assert found == ["SIM002:3"]


def test_sim002_positive_set_annotated_param(tmp_path):
    found = lint_snippet(tmp_path, """\
        from typing import Set

        def spread(peers: Set[int]):
            for peer in peers:
                pass
    """, select=SIM002)
    assert found == ["SIM002:4"]


def test_sim002_negative_sorted_iteration(tmp_path):
    found = lint_snippet(tmp_path, """\
        def spread(node):
            peers = set(node.neighbors)
            for peer in sorted(peers):
                node.send(peer)
    """, select=SIM002)
    assert found == []


def test_sim002_negative_set_comprehension_derivation(tmp_path):
    # Set-to-set derivations are order-independent and exempt.
    found = lint_snippet(tmp_path, """\
        def scrub(node, crashed):
            stale = {c for c in node.close if c in crashed}
            node.close -= stale
    """, select=SIM002)
    assert found == []


def test_sim002_negative_rebound_variable(tmp_path):
    # After rebinding to a list the name is no longer set-typed.
    found = lint_snippet(tmp_path, """\
        def spread(node):
            peers = set(node.neighbors)
            peers = sorted(peers)
            for peer in peers:
                node.send(peer)
    """, select=SIM002)
    assert found == []


def test_sim002_out_of_scope_path_not_linted(tmp_path):
    found = lint_snippet(tmp_path, """\
        import random

        def pick():
            return random.random()
    """, name="repro/experiments/runner.py", select=SIM002)
    assert found == []


def test_sim002_suppressed(tmp_path):
    found = lint_snippet(tmp_path, """\
        from repro.utils.rng import RandomSource

        RNG = RandomSource()  # simlint: ignore[SIM002]
    """, select=SIM002)
    assert found == []


# ----------------------------------------------------------------------
# SIM003 — slots
# ----------------------------------------------------------------------
SIM003 = ["SIM003"]


def test_sim003_positive_unslotted_class(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Hot:
            def __init__(self):
                self.value = 1
    """, select=SIM003)
    assert found == ["SIM003:1"]


def test_sim003_negative_slotted_class(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Hot:
            __slots__ = ("value",)

            def __init__(self):
                self.value = 1
    """, select=SIM003)
    assert found == []


def test_sim003_negative_dataclass(tmp_path):
    found = lint_snippet(tmp_path, """\
        from dataclasses import dataclass

        @dataclass
        class Report:
            value: int = 0
    """, select=SIM003)
    assert found == []


def test_sim003_negative_no_init_attrs(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Stateless:
            def compute(self):
                return 1
    """, select=SIM003)
    assert found == []


def test_sim003_out_of_scope_path_not_linted(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Cold:
            def __init__(self):
                self.value = 1
    """, name="repro/analysis/report.py", select=SIM003)
    assert found == []


def test_sim003_suppressed(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Coordinator:  # simlint: ignore[SIM003] — one per experiment
            def __init__(self):
                self.value = 1
    """, select=SIM003)
    assert found == []


# ----------------------------------------------------------------------
# SIM004 — dispatch consistency
# ----------------------------------------------------------------------
SIM004 = ["SIM004"]


def test_sim004_positive_sent_but_unhandled(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_ping(self, message):
                self.send(self, message.sender, "PONG")

            def _on_pong(self, message):
                pass

        def probe(node, peer):
            node.send(node, peer, "PING")
            node.send(node, peer, "HEARTBEAT")
    """, select=SIM004)
    assert found == ["SIM004:10"]


def test_sim004_positive_handled_but_never_sent(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_ping(self, message):
                pass

            def _on_pong(self, message):
                pass

        def probe(node, peer):
            node.send(node, peer, "PING")
    """, select=SIM004)
    assert found == ["SIM004:5"]


def test_sim004_negative_balanced_kinds(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_ping(self, message):
                self.send(self, message.sender, "PONG")

            def _on_pong(self, message):
                pass

        def probe(node, peer):
            node.send(node, peer, kind="PING")
    """, select=SIM004)
    assert found == []


def test_sim004_only_send_calls_name_a_kind(tmp_path):
    # A message is a plain tuple: building one names no kind, while a
    # send_snapshot call does (the kind sits where send has it).
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_query(self, message):
                pass

            def _on_view_scrub(self, message):
                pass

        def ask(simulator, network, a, b):
            network.deliver(Message(a, b, "QUERY"))
            simulator.send_snapshot(a, b, "VIEW_SCRUB", 0, ())
    """, select=SIM004)
    assert found == ["SIM004:2"]


def test_sim004_skips_programs_without_handlers(tmp_path):
    # Linting a subset with no _on_* handlers must not flag sent kinds.
    found = lint_snippet(tmp_path, """\
        def probe(node, peer):
            node.send(node, peer, "PING")
    """, select=SIM004)
    assert found == []


def test_sim004_suppressed(tmp_path):
    found = lint_snippet(tmp_path, """\
        class Node:
            def _on_ping(self, message):
                pass

            def _on_pong(self, message):  # simlint: ignore[SIM004]
                pass

        def probe(node, peer):
            node.send(node, peer, "PING")
    """, select=SIM004)
    assert found == []


# ----------------------------------------------------------------------
# SIM006 — routing cache contract
# ----------------------------------------------------------------------
SIM006 = ["SIM006"]
CORE = "repro/core/snippet.py"


def test_sim006_positive_mutator_call_without_bump(tmp_path):
    found = lint_snippet(tmp_path, """\
        def integrate(overlay, object_id):
            node = overlay.node(object_id)
            node.add_close_neighbor(7)
    """, name=CORE, select=SIM006)
    assert found == ["SIM006:3"]


def test_sim006_positive_container_mutation_without_bump(tmp_path):
    found = lint_snippet(tmp_path, """\
        def reset(overlay, object_id):
            overlay.node(object_id).long_links.clear()
    """, name=CORE, select=SIM006)
    assert found == ["SIM006:2"]


def test_sim006_positive_branch_missing_bump(tmp_path):
    # The bump in the if-branch does not cover the else-branch mutation.
    found = lint_snippet(tmp_path, """\
        def churn(overlay, node, fast):
            if fast:
                node.set_long_link(0, (0.5, 0.5), 3)
                overlay.invalidate_routing_tables([3])
            else:
                node.retarget_long_link(0, 4)
    """, name=CORE, select=SIM006)
    assert found == ["SIM006:6"]


def test_sim006_negative_bump_after_mutation(tmp_path):
    found = lint_snippet(tmp_path, """\
        def integrate(overlay, object_id):
            node = overlay.node(object_id)
            node.add_close_neighbor(7)
            overlay.invalidate_routing_tables([object_id, 7])
    """, name=CORE, select=SIM006)
    assert found == []


def test_sim006_negative_loop_mutation_bump_after_loop(tmp_path):
    found = lint_snippet(tmp_path, """\
        def register(overlay, node, declared):
            for neighbor_id in declared:
                node.add_close_neighbor(neighbor_id)
            overlay.invalidate_routing_tables(declared)
    """, name=CORE, select=SIM006)
    assert found == []


def test_sim006_negative_store_bump_discharges(tmp_path):
    # The cache's own targeted drop and its drop-all both discharge.
    for drop in ("bump_object_ids([9])", "drop_all()"):
        found = lint_snippet(tmp_path, f"""\
            def surgery(cache, node):
                node.close_neighbors.add(9)
                cache.{drop}
        """, name=CORE, select=SIM006)
        assert found == []


def test_sim006_negative_back_links_exempt(tmp_path):
    # BLRn is not routed on: back-link churn needs no invalidation.
    found = lint_snippet(tmp_path, """\
        def hand_over(node, source, index, target):
            node.add_back_link(source, index, target)
            node.back_links.clear()
    """, name=CORE, select=SIM006)
    assert found == []


def test_sim006_negative_self_receiver_is_primitive_mutator(tmp_path):
    # ObjectNode's own mutator bodies cannot reach the overlay; the
    # contract binds their call sites instead.
    found = lint_snippet(tmp_path, """\
        class ObjectNode:
            def add_close_neighbor(self, object_id):
                self.close_neighbors.add(object_id)
    """, name=CORE, select=SIM006)
    assert found == []


def test_sim006_positive_crash_injector_scrub_is_in_scope(tmp_path):
    # The seeded deletion of ``CrashInjector.repair``'s invalidation: the
    # one mutator of oracle nodes outside ``repro/core``.
    found = lint_snippet(tmp_path, """\
        class CrashInjector:
            def repair(self):
                for node in self._overlay.nodes():
                    node.retarget_long_link(0, 4)
                    node.discard_close_neighbor(9)
    """, name="repro/simulation/failures.py", select=SIM006)
    assert found == ["SIM006:4", "SIM006:5"]


def test_sim006_positive_withdrawal_without_invalidation(tmp_path):
    # A crash that forgets its invalidation: the withdrawal changed the
    # victim's ex-neighbours' adjacency and left every view naming it stale.
    found = lint_snippet(tmp_path, """\
        class CrashInjector:
            def crash(self, object_id):
                self._overlay.withdraw_substrate(object_id)
                self._crashed.append(object_id)
    """, name="repro/simulation/failures.py", select=SIM006)
    assert found == ["SIM006:3"]


def test_sim006_negative_withdrawal_then_invalidation(tmp_path):
    # Either the overlay entry point (any receiver, targeted or bare) or
    # the cache's own drop discharges a withdrawal.
    for drop in ("self._overlay.invalidate_routing_tables(holders)",
                 "self._overlay.invalidate_routing_tables()",
                 "self._overlay.routing_cache.drop_all()"):
        found = lint_snippet(tmp_path, f"""\
            class CrashInjector:
                def crash(self, object_id, holders):
                    self._overlay.withdraw_substrate(object_id)
                    {drop}
        """, name="repro/simulation/failures.py", select=SIM006)
        assert found == []
    found = lint_snippet(tmp_path, """\
        class VoroNet:
            def remove(self, object_id):
                ex_neighbors = self._triangulation.neighbors(object_id)
                self.withdraw_substrate(object_id)
                self.invalidate_routing_tables(ex_neighbors)
    """, name=CORE, select=SIM006)
    assert found == []


def test_sim006_out_of_scope_paths_ignored(tmp_path):
    found = lint_snippet(tmp_path, """\
        def integrate(overlay, node):
            node.add_close_neighbor(7)
    """, name="repro/analysis/snippet.py", select=SIM006)
    assert found == []


def test_sim006_nested_def_checked_separately(tmp_path):
    # A bump in the enclosing function does not run after the nested
    # def's mutation; the nested function is held to the contract alone.
    found = lint_snippet(tmp_path, """\
        def outer(overlay, node):
            def worker():
                node.retarget_long_link(0, 4)
            overlay.invalidate_routing_tables()
            return worker
    """, name=CORE, select=SIM006)
    assert found == ["SIM006:3"]


def test_sim006_suppressed(tmp_path):
    found = lint_snippet(tmp_path, """\
        def integrate(overlay, node):
            node.add_close_neighbor(7)  # simlint: ignore[SIM006]
    """, name=CORE, select=SIM006)
    assert found == []
