"""Message-passing network layer over the event engine.

Every protocol interaction in the message-level simulator is a
:class:`Message` delivered through a :class:`Network`: the sender hands the
message to the network, the network schedules its delivery after a latency
drawn from the configured :class:`LatencyModel`, and the recipient's
registered handler is invoked at delivery time.  The network keeps the
per-type message counters that maintenance-cost experiments report.

Hot-path design
---------------
``send`` is executed once per protocol message, so the plane avoids every
per-message allocation it can: :class:`Message` is a hand-rolled
``__slots__`` class, the recipient's handler is resolved *at send time*
and pushed straight onto the engine heap as a raw ``(handler, message)``
delivery entry — no closure, no event object (``unregister`` voids the
handler's in-flight entries, so a departed node can never be handed a
message), per-kind counters are a :class:`collections.Counter`, a
:class:`ConstantLatency` model is read as a plain float instead of a
virtual ``sample`` dispatch, and ``messages_delivered`` is derived from
the exact sent/lost/dropped counters instead of being bumped per
delivery.

Fault injection
---------------
A :class:`~repro.simulation.faults.FaultPlane` can be attached (via the
``faults`` constructor argument or the :attr:`Network.faults` attribute).
When present, every non-local send is submitted to its
:meth:`~repro.simulation.faults.FaultPlane.decide` hook, which may drop the
message (crashed endpoint, partition cut, probabilistic loss) or stretch
its delivery latency.  Dropped messages still count as *sent* — the sender
paid for them — and are tallied in :attr:`Network.messages_lost`, separate
from :attr:`Network.messages_dropped` (no handler by delivery time).
"""

from __future__ import annotations

import abc
from collections import Counter
from heapq import heappush
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Dict, Optional

from repro.simulation.engine import SimulationEngine
from repro.utils.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.simulation.faults import FaultPlane

__all__ = ["Message", "LatencyModel", "ConstantLatency", "UniformLatency", "Network"]


class Message:
    """One protocol message.

    A hand-rolled ``__slots__`` class (one is allocated per protocol
    message — the dataclass machinery measurably showed in profiles);
    field-wise equality and repr match the former dataclass.

    Attributes
    ----------
    sender / recipient:
        Object ids of the endpoints (the network does not interpret them
        beyond handler lookup).
    kind:
        Message type (e.g. ``"ADD_OBJECT"``); used for accounting.
    payload:
        Arbitrary content (kept as a dict of plain values).
    hop_index:
        Position of this message within a multi-hop operation (filled in by
        the protocol layer; informational).
    """

    __slots__ = ("sender", "recipient", "kind", "payload", "hop_index")

    def __init__(self, sender: int, recipient: int, kind: str,
                 payload: Optional[Dict[str, Any]] = None,
                 hop_index: int = 0) -> None:
        self.sender = sender
        self.recipient = recipient
        self.kind = kind
        self.payload = {} if payload is None else payload
        self.hop_index = hop_index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.sender == other.sender
                and self.recipient == other.recipient
                and self.kind == other.kind
                and self.payload == other.payload
                and self.hop_index == other.hop_index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Message(sender={self.sender!r}, recipient={self.recipient!r}, "
                f"kind={self.kind!r}, payload={self.payload!r}, "
                f"hop_index={self.hop_index!r})")


class LatencyModel(abc.ABC):
    """Delivery-latency model for point-to-point messages."""

    __slots__ = ()

    @abc.abstractmethod
    def sample(self, message: Message) -> float:
        """Latency (virtual time units) for delivering ``message``."""

    def bind_rng(self, rng: RandomSource) -> None:
        """Adopt a seeded random source, unless one was supplied explicitly.

        The protocol simulator threads its own seeded stream through here
        so stochastic latency models are reproducible end-to-end from the
        simulator seed.  Deterministic models ignore the call.
        """


class ConstantLatency(LatencyModel):
    """Every message takes the same time to deliver."""

    __slots__ = ("latency",)

    def __init__(self, latency: float = 1.0) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.latency = latency

    def sample(self, message: Message) -> float:
        return self.latency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantLatency(latency={self.latency!r})"


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` per message.

    Without an explicit ``rng`` the model starts on an unseeded source and
    adopts the first stream offered through :meth:`bind_rng` — which the
    protocol simulator does at construction, so latency draws derive from
    the simulator seed.  A standalone :class:`Network` performs no such
    binding; pass ``rng`` explicitly there for reproducibility.
    """

    __slots__ = ("low", "high", "_rng", "_rng_defaulted")

    def __init__(self, low: float, high: float,
                 rng: Optional[RandomSource] = None) -> None:
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        self.low = low
        self.high = high
        # Placeholder stream, replaced by the simulator's seeded fork via
        # bind_rng (see the class docstring).
        self._rng = rng if rng is not None else RandomSource()  # simlint: ignore[SIM002]
        self._rng_defaulted = rng is None

    def bind_rng(self, rng: RandomSource) -> None:
        if self._rng_defaulted:
            self._rng = rng
            self._rng_defaulted = False

    def sample(self, message: Message) -> float:
        return self._rng.uniform(self.low, self.high)

    @property
    def effective_seed(self) -> Optional[int]:
        """Seed of the stream latencies actually draw from, if known.

        ``None`` either because the model is still on its unseeded
        placeholder stream (``rng_pending`` in the repr) or because the
        bound stream was itself derived (e.g. a spawned child); the repr
        distinguishes the two so SIM002 audits can tell which it is.
        """
        return self._rng.seed

    def __repr__(self) -> str:
        if self._rng_defaulted:
            provenance = "rng_pending"
        else:
            provenance = f"effective_seed={self._rng.provenance!r}"
        return (f"UniformLatency(low={self.low!r}, high={self.high!r}, "
                f"{provenance})")


class Network:
    """Delivers messages between registered handlers via the event engine."""

    __slots__ = ("_engine", "_latency", "_fixed_latency", "_handlers",
                 "_replaced_handlers", "faults", "messages_sent",
                 "messages_dropped", "messages_lost", "sent_by_kind",
                 "_send_triggers")

    def __init__(self, engine: SimulationEngine,
                 latency: Optional[LatencyModel] = None,
                 faults: Optional["FaultPlane"] = None) -> None:
        self._engine = engine
        self._latency = latency if latency is not None else ConstantLatency(1.0)
        # Fast path: a plain ConstantLatency is read as a float at send
        # time instead of a virtual sample() dispatch.  Exact type check —
        # a subclass may well override sample().
        self._fixed_latency: Optional[float] = (
            self._latency.latency if type(self._latency) is ConstantLatency
            else None)
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        #: Handlers displaced by a re-registration, kept until the node
        #: unregisters: in-flight deliveries still point at them, and
        #: ``unregister`` promises to void *all* of a node's deliveries.
        self._replaced_handlers: Dict[int, list] = {}
        #: Optional fault-injection hook (see the module docstring); any
        #: object with a ``decide(message, now)`` method returning a
        #: decision with ``deliver`` / ``extra_delay`` attributes works.
        self.faults = faults
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_lost = 0
        self.sent_by_kind: Counter = Counter()
        #: Message-index triggers (see :meth:`at_message`); empty in every
        #: ordinary run, so the hot path pays one falsy check.
        self._send_triggers: Dict[int, list] = {}

    @property
    def latency(self) -> LatencyModel:
        """The latency model delivery delays are drawn from."""
        return self._latency

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

        Sends resolve the handler at send time, so replacing a live
        handler re-routes *future* sends only; messages already in flight
        deliver to the handler they were sent to (the displaced handler is
        remembered so a later :meth:`unregister` can void those too).
        """
        previous = self._handlers.get(node_id)
        if previous is not None and previous is not handler:
            self._replaced_handlers.setdefault(node_id, []).append(previous)
        self._handlers[node_id] = handler

    def unregister(self, node_id: int) -> None:
        """Remove a node's handler; messages to it are dropped.

        In-flight deliveries are voided too (their entries are removed
        from the engine queue, including any still bound to a handler the
        node replaced), counted in :attr:`messages_dropped` — the sender
        paid for them but nobody is left to receive them.  Local self
        hand-offs in flight are voided without counting, consistent with
        :meth:`send` treating them as free local functions.
        """
        handler = self._handlers.pop(node_id, None)
        if handler is None:
            return
        handlers = [handler] + self._replaced_handlers.pop(node_id, [])
        for target in handlers:
            for voided in self._engine.cancel_actions(target):
                if voided.sender != voided.recipient:
                    self.messages_dropped += 1

    def registered_ids(self) -> AbstractSet[int]:
        """Ids of every node that currently has a handler (a live view)."""
        return self._handlers.keys()

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
    def send(self, message: Message) -> None:
        """Send a message; it is delivered after the model's latency.

        Messages a node "sends to itself" (local hand-offs used to keep the
        protocol code uniform) are delivered with zero latency and are not
        counted — neither as sent nor, when the node is gone by delivery
        time, as dropped — matching the paper's definition of a *local*
        function.
        """
        recipient = message.recipient
        if message.sender == recipient:
            # Local hand-off: zero latency, no counters.  The raw handler
            # (not the counting dispatcher) rides on the entry.
            handler = self._handlers.get(recipient)
            self._engine.push_call(
                0.0, handler if handler is not None else self._deliver,
                message)
            return
        self.messages_sent += 1
        self.sent_by_kind[message.kind] += 1
        if self._send_triggers:
            actions = self._send_triggers.pop(self.messages_sent, None)
            if actions is not None:
                for trigger in actions:
                    trigger(message)
        extra_delay = 0.0
        faults = self.faults
        if faults is not None:
            decision = faults.decide(message, self._engine.now)
            if not decision.deliver:
                self.messages_lost += 1
                return
            extra_delay = decision.extra_delay
        delay = self._fixed_latency
        if delay is None:
            delay = self._latency.sample(message)
        # Handler lookup hoisted to send time: the common registered case
        # puts the node's handler straight on the heap entry — delivery is
        # then one C-level tuple pop and one call into the handler.  The
        # rare unregistered-at-send case falls back to a delivery-time
        # lookup (the recipient may legitimately register while the
        # message is in flight).  The entry is pushed inline — the
        # equivalent of ``engine.push_call`` minus one call frame, on the
        # one code path hot enough to care (latencies are non-negative by
        # model contract, so the delay validation is vacuous here).
        action = self._handlers.get(recipient)
        if action is None:
            action = self._deliver
        engine = self._engine
        sequence = engine._sequence
        engine._sequence = sequence + 1
        heappush(engine._queue,
                 (engine._now + delay + extra_delay, sequence, action,
                  message))

    def _deliver(self, message: Message) -> None:
        """Slow path: resolve the handler at delivery time.

        Used when the recipient had no handler at send time.  Undeliverable
        *self* hand-offs are free — ``send`` defines local hand-offs as
        uncounted, so their drop is uncounted too.
        """
        handler = self._handlers.get(message.recipient)
        if handler is None:
            if message.sender != message.recipient:
                self.messages_dropped += 1
            return
        handler(message)

    # ------------------------------------------------------------------
    def snapshot_counters(self) -> Dict[str, int]:
        """Copy of the global counters (useful for before/after accounting)."""
        counters = {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "dropped": self.messages_dropped,
            "lost": self.messages_lost,
        }
        counters.update({f"kind:{k}": v for k, v in self.sent_by_kind.items()})
        return counters
