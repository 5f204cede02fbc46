"""Message-passing network layer over the event engine.

Every protocol interaction in the message-level simulator is a message
delivered through a :class:`Network`: the sender hands it to the network,
the network schedules its delivery :data:`~repro.simulation.engine.LATENCY`
(one time unit) later, and the recipient's registered handler is invoked
at delivery time.  The network keeps the per-type message counters that
maintenance-cost experiments report.

A message is the 4-tuple ``(sender, recipient, kind, payload)``, read by
position (:data:`SENDER`, :data:`RECIPIENT`, :data:`KIND`,
:data:`PAYLOAD`); each kind's payload is a tuple with a fixed layout of its
own (``repro.simulation.protocol`` tabulates them).

Hot-path design
---------------
``send`` is executed once per protocol message, so the plane allocates
nothing per message but the message and its engine entry, and both drop
out of the collector's view: ``register`` enters each handler in the
engine's port table once, so an entry holds an int port and the message,
no callable.  Every counted delivery is due ``LATENCY`` after its send,
so it goes on the engine's FIFO lane (``repro.simulation.engine``), in the
order the heap would have popped it, as its port beside the message.
``send`` computes the delivery time ``now + LATENCY`` once per virtual
instant and extends the instant's lane run ``[time, first_sequence,
count]`` while nothing else was pushed since, so an instant's sends cost
one run, not a key each; the engine's clock takes the run's float object,
and the contact stamps the deliveries leave
(``ProtocolNode.last_contact``) hold it too, not a float each.  A message
whose payload holds only atomic values (a heartbeat, a query, a routed join
or link search) is untracked by CPython at its first young collection, so
10⁵ of them in flight cost full collections nothing.  The recipient's port
is resolved *at send time* (``unregister`` voids the port's in-flight
entries, so a departed node can never be handed a message).  Per-kind counters are a
:class:`collections.Counter`, and ``messages_delivered`` is derived from
the exact sent/lost/dropped counters instead of being bumped per delivery.

Fault injection
---------------
A :class:`~repro.simulation.faults.FaultPlane` can be attached (via the
``faults`` constructor argument or the :attr:`Network.faults` attribute).
When present, every non-local send is submitted to its
:meth:`~repro.simulation.faults.FaultPlane.decide` hook, which either
drops the message (crashed endpoint, partition cut, probabilistic loss)
or lets it through at the one latency.  Dropped messages still count as
*sent* — the sender paid for them — and are tallied in
:attr:`Network.messages_lost`, separate from :attr:`Network.messages_dropped`
(no handler by delivery time).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, AbstractSet, Callable, Dict, List, Optional, Tuple

from repro.simulation.engine import LATENCY, SimulationEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.simulation.faults import FaultPlane

__all__ = ["Message", "SENDER", "RECIPIENT", "KIND", "PAYLOAD", "Network"]

#: One protocol message: ``(sender, recipient, kind, payload)``.
Message = Tuple[int, int, str, tuple]

#: Field positions of a message.
SENDER, RECIPIENT, KIND, PAYLOAD = 0, 1, 2, 3


class Network:
    """Delivers messages between registered handlers via the event engine."""

    __slots__ = ("_engine", "_fifo", "_fifo_args", "_runs", "_run", "_instant",
                 "_due", "_ports", "_replaced_ports", "_deliver_port", "faults",
                 "messages_sent", "messages_dropped", "messages_lost",
                 "sent_by_kind", "_send_triggers")

    def __init__(self, engine: SimulationEngine,
                 faults: Optional["FaultPlane"] = None) -> None:
        self._engine = engine
        #: The engine's FIFO lane — its ports, its arguments and its runs —
        #: which takes every counted delivery.
        self._fifo = engine._lane
        self._fifo_args = engine._lane_args
        self._runs = engine._runs
        #: The virtual instant of the last counted send, its delivery time
        #: ``_instant + LATENCY`` (computed once per instant, so that the
        #: instant's run holds one float) and the run it extends.
        self._instant: Optional[float] = None
        self._due = LATENCY
        self._run: List = [LATENCY, -1, 0]
        #: Node id → the port of its current handler.
        self._ports: Dict[int, int] = {}
        #: Ports of handlers displaced by a re-registration, kept until the
        #: node unregisters: in-flight deliveries still address them, and
        #: ``unregister`` promises to void *all* of a node's deliveries.
        self._replaced_ports: Dict[int, List[int]] = {}
        #: Port of the delivery-time lookup (:meth:`_deliver`).
        self._deliver_port = engine.open_port(self._deliver)
        #: Optional fault-injection hook (see the module docstring); any
        #: object with a ``decide(sender, recipient, now)`` method returning
        #: a decision with a ``deliver`` attribute works.
        self.faults = faults
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_lost = 0
        self.sent_by_kind: Counter = Counter()
        #: Message-index triggers (see :meth:`at_message`); empty in every
        #: ordinary run, so the hot path pays one falsy check.
        self._send_triggers: Dict[int, list] = {}

    @property
    def messages_delivered(self) -> int:
        """Messages handed to their recipient (or still in flight).

        Derived from the exact counters — every counted send is either
        lost at the fault plane, dropped (no recipient), or delivered —
        so no per-delivery bookkeeping sits on the hot path.  At
        quiescence (where all accounting reads happen: phase barriers,
        snapshots, report records) the value is exactly the number of
        completed deliveries; mid-drain it also counts messages still in
        flight.
        """
        return self.messages_sent - self.messages_lost - self.messages_dropped

    # ------------------------------------------------------------------
    def register(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Register (or replace) the delivery handler of a node.

        The handler gets a port of its own.  Sends resolve the port at send
        time, so replacing a live handler re-routes *future* sends only;
        messages already in flight deliver to the handler they were sent to
        (the displaced handler keeps its port until :meth:`unregister`
        voids its deliveries too).
        """
        engine = self._engine
        previous = self._ports.get(node_id)
        if previous is not None:
            if engine._ports[previous] is handler:
                return
            self._replaced_ports.setdefault(node_id, []).append(previous)
        self._ports[node_id] = engine.open_port(handler)

    def unregister(self, node_id: int) -> None:
        """Remove a node's handler; messages to it are dropped.

        In-flight deliveries are voided too (their entries are removed
        from both engine queues, including any still addressed to a
        handler the node replaced, and every one of the node's ports is
        closed), counted in :attr:`messages_dropped` — the sender paid for
        them but nobody is left to receive them.  Local self hand-offs in
        flight are voided without counting, consistent with :meth:`send`
        treating them as free local functions.
        """
        port = self._ports.pop(node_id, None)
        if port is None:
            return
        engine = self._engine
        for target in [port] + self._replaced_ports.pop(node_id, []):
            for voided in engine.cancel_actions(target):
                if voided[SENDER] != voided[RECIPIENT]:
                    self.messages_dropped += 1
            engine.close_port(target)

    def registered_ids(self) -> AbstractSet[int]:
        """Ids of every node that currently has a handler (a live view)."""
        return self._ports.keys()

    def at_message(self, index: int, action: Callable[[Message], None]) -> None:
        """Run ``action(message)`` when the ``index``-th counted send occurs.

        ``index`` is 1-based and counts exactly what :attr:`messages_sent`
        counts (local self hand-offs are free and never trigger).  The
        action fires *after* the message is counted but *before* the fault
        plane decides its fate — so a trigger that crashes a node makes the
        indexed message itself the first one the crash can drop.  That
        ordering is what gives the fuzzing harness its replay contract: a
        crash schedule is fully described by ``(seed, message_index,
        victim)``.  Triggers are one-shot; several may share an index and
        run in registration order.
        """
        if index < 1:
            raise ValueError(f"message index is 1-based, got {index}")
        self._send_triggers.setdefault(index, []).append(action)

    # ------------------------------------------------------------------
    def send(self, sender: int, recipient: int, kind: str,
             payload: tuple = ()) -> None:
        """Send ``kind`` with ``payload``; it is delivered ``LATENCY`` later.

        Messages a node "sends to itself" (local hand-offs used to keep the
        protocol code uniform) are delivered with zero latency and are not
        counted — neither as sent nor, when the node is gone by delivery
        time, as dropped — matching the paper's definition of a *local*
        function.
        """
        message = (sender, recipient, kind, payload)
        engine = self._engine
        if sender == recipient:
            # Local hand-off: zero latency, no counters.  The raw handler
            # (not the counting dispatcher) rides on the entry.
            engine.push_call(0.0, self._ports.get(recipient, self._deliver_port),
                             message)
            return
        self.messages_sent += 1
        self.sent_by_kind[kind] += 1
        if self._send_triggers:
            actions = self._send_triggers.pop(self.messages_sent, None)
            if actions is not None:
                for trigger in actions:
                    trigger(message)
        faults = self.faults
        if faults is not None and not faults.decide(sender, recipient,
                                                    engine._now).deliver:
            self.messages_lost += 1
            return
        # Port lookup hoisted to send time: the common registered case puts
        # the node's port straight on the entry.  The rare
        # unregistered-at-send case falls back to a delivery-time lookup
        # (the recipient may legitimately register while the message is in
        # flight).  The entry is appended to the lane inline —
        # ``engine.push_call`` minus one call frame, on the one code path
        # hot enough to care.  The instant's run is extended only while its
        # sequence numbers stay consecutive: nothing else was pushed since,
        # so it is still the lane's last run, and no void shortened it.
        now = engine._now
        sequence = engine._sequence
        engine._sequence = sequence + 1
        if now != self._instant:
            self._instant = now
            due = self._due = now + LATENCY
            self._run = run = [due, sequence, 1]
            self._runs.append(run)
        else:
            run = self._run
            if run[1] + run[2] == sequence:
                run[2] += 1
            else:
                self._run = run = [self._due, sequence, 1]
                self._runs.append(run)
        self._fifo.append(self._ports.get(recipient, self._deliver_port))
        self._fifo_args.append(message)

    def _deliver(self, message: Message) -> None:
        """Slow path: resolve the handler at delivery time.

        Used when the recipient had no handler at send time.  Undeliverable
        *self* hand-offs are free — ``send`` defines local hand-offs as
        uncounted, so their drop is uncounted too.
        """
        sender, recipient = message[SENDER], message[RECIPIENT]
        port = self._ports.get(recipient)
        if port is None:
            if sender != recipient:
                self.messages_dropped += 1
            return
        self._engine._ports[port](message)
