"""Regression pin: the protocol's sent and handled message-kind sets match.

Uses the simlint SIM004 collectors over the shipped sources, so a new
``send(..., "KIND")`` without an ``_on_kind`` handler (or a dead handler)
fails here with a named diff even before the CI lint gate runs.

The crash-at-any-message hardening (operation watchdogs, idempotent
retries, the fuzz harness) deliberately added **no** new kinds: a retry
re-sends one of the existing eighteen, and timeouts are engine-scheduled
events, not messages.  Neither does a partition heal.  It once had two
kinds of its own, an anti-entropy flood across the healed cut and its
ack, on the grounds that the repair kinds presume a shared live kernel
rather than two diverged forks.  That no longer holds:
``PartitionRuntime.heal()`` restores one union kernel, whose version
dominates every fork, before any message is sent, so the repair kinds
settle a heal exactly as they settle a crash.  The pin is eighteen;
growth needs a design reason, not just a new code path.
"""

import ast
import functools
from pathlib import Path

import pytest

from repro.lint import iter_source_files, parse_modules
from repro.lint.rules import collect_handled_kinds, collect_sent_kinds

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Every message kind of the protocol plane, each both sent and handled.
EXPECTED_KINDS = frozenset({
    "ADD_OBJECT", "CREATE_OBJECT",
    "CLOSE_REQUEST", "CLOSE_REPLY", "CLOSE_DECLARE", "CLOSE_LEAVE",
    "SEARCH_LONG_LINK", "LONG_LINK_ESTABLISHED", "LONG_LINK_RETARGET",
    "REGION_UPDATE", "BACKLINK_TRANSFER", "BACKLINK_REMOVE",
    "VIEW_SCRUB", "SUSPECT_NOTIFY",
    "PING", "PONG",
    "QUERY", "QUERY_ANSWER",
})


@functools.cache
def parsed():
    modules, errors = parse_modules(iter_source_files([SRC]))
    assert errors == []
    return modules


def collect():
    return collect_sent_kinds(parsed()), collect_handled_kinds(parsed())


def test_sent_kinds_equal_handled_kinds():
    sent, handled = collect()
    assert set(sent) == set(handled), (
        f"unhandled kinds: {sorted(set(sent) - set(handled))}; "
        f"dead handlers: {sorted(set(handled) - set(sent))}")


def test_kind_set_is_pinned():
    sent, handled = collect()
    assert set(sent) == EXPECTED_KINDS
    assert set(handled) == EXPECTED_KINDS


def test_every_kind_dispatches_to_a_real_handler():
    """The AST-level pin above matches the runtime dispatch convention.

    ``ProtocolNode.handle`` resolves ``kind`` → ``_on_<kind.lower()>``
    lazily, so check the handler attributes directly.
    """
    from repro.simulation.protocol import ProtocolNode

    for kind in EXPECTED_KINDS:
        assert callable(getattr(ProtocolNode, f"_on_{kind.lower()}", None)), \
            f"no handler for {kind}"


def test_no_protocol_node_method_reads_the_kernel():
    """Handlers know only what they were told.

    The shared kernel is consulted on the simulator side only
    (``kernel_view``, ``send_snapshot`` and the drivers that call them);
    a node adopts the views it is sent.
    """
    tree = next(module.tree for module in parsed()
                if module.display.endswith("simulation/protocol.py"))
    node_class = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "ProtocolNode")
    reads = [(function.name, node.lineno)
             for function in node_class.body
             if isinstance(function, ast.FunctionDef)
             for node in ast.walk(function)
             if isinstance(node, ast.Attribute)
             and node.attr in {"kernel", "kernel_view", "send_snapshot"}]
    assert reads == []


#: The routed kinds: each one's handler passes it one greedy hop on.
ROUTED_KINDS = ("ADD_OBJECT", "SEARCH_LONG_LINK", "QUERY")


def send_sites(kind):
    """``(enclosing function, call)`` of every send site of ``kind``."""
    trees = {module.display: module.tree for module in parsed()}
    found = []
    for display, line, col in collect_sent_kinds(parsed())[kind]:
        enclosing = [node for node in ast.walk(trees[display])
                     if isinstance(node, ast.FunctionDef)
                     and node.lineno <= line <= node.end_lineno]
        call = next(node for node in ast.walk(trees[display])
                    if isinstance(node, ast.Call)
                    and (node.lineno, node.col_offset + 1) == (line, col))
        found.append((max(enclosing, key=lambda fn: fn.lineno).name, call))
    return found


def forwards_a_hop(kind, function, call):
    """Whether ``call`` is routed ``kind``'s own handler sending it one hop
    on: a payload tuple whose last field, the hop count, is ``hops + 1``."""
    if kind not in ROUTED_KINDS or function != f"_on_{kind.lower()}":
        return False
    payload = call.args[-1]
    if not (isinstance(payload, ast.Tuple) and payload.elts):
        return False
    count = payload.elts[-1]
    return (isinstance(count, ast.BinOp) and isinstance(count.op, ast.Add)
            and isinstance(count.left, ast.Name) and count.left.id == "hops"
            and isinstance(count.right, ast.Constant) and count.right.value == 1)


def senders(kind):
    """``(enclosing function, method called)`` of every send site of
    ``kind`` but a routed kind's forwarding hop, which starts no new move."""
    return [(function, call.func.attr) for function, call in send_sites(kind)
            if not forwards_a_hop(kind, function, call)]


@pytest.mark.parametrize("kind", ROUTED_KINDS)
def test_a_routed_kind_is_forwarded_once_from_its_handler(kind):
    """Each routed kind has exactly one forwarding hop, a plain ``send``."""
    hops = [(function, call.func.attr) for function, call in send_sites(kind)
            if forwards_a_hop(kind, function, call)]
    assert hops == [(f"_on_{kind.lower()}", "send")]


@pytest.mark.parametrize("kind, functions", [
    ("BACKLINK_TRANSFER", {"hand_over"}),
    ("LONG_LINK_RETARGET", {"hand_over"}),
    ("SEARCH_LONG_LINK", {"_search_long_link"}),
    ("CLOSE_DECLARE", {"_finish_close_phase", "discover_close"}),
])
def test_a_protocol_move_is_sent_from_one_function(kind, functions):
    """The moves table of ``protocol.py``: a hand-over, a link search and
    grid-exact close discovery are each written once, whoever drives them."""
    sites = senders(kind)
    assert {function for function, _method in sites} == functions
    assert len(sites) == len(functions)


@pytest.mark.parametrize("kind", ["CREATE_OBJECT", "REGION_UPDATE", "VIEW_SCRUB"])
def test_views_travel_only_through_send_snapshot(kind):
    """One place builds "the kernel's view of X, stamped ``version``"."""
    assert {method for _function, method in senders(kind)} == {"send_snapshot"}
