"""Outside-in tracer: timing wrappers installed from here, spans kept in memory.

The program carries no instrumentation.  A traced run replaces chosen public
functions with wrappers for its duration and puts them back afterwards; every
call becomes a span ``(id, name, parent, operation, start, end)``.  ``parent``
is the span that was open when this one started, ``operation`` the
workload-level operation (one join, one route batch, one heal cycle ...) the
runner had announced.  A name's *self time* is its spans' duration minus the
part their child spans cover, so the self times of a whole trace add up to
its root span.

Spans go into one flat ``array('d')`` (48 bytes each): a ten-second
protocol-mode run records a few million of them.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: (module, class or None, attribute, span name)
Target = Tuple[str, Optional[str], str, str]


class Spans(NamedTuple):
    """Column view of a finished trace, one row per span, in exit order."""

    ids: np.ndarray
    names: np.ndarray
    parents: np.ndarray
    operations: np.ndarray
    starts: np.ndarray
    ends: np.ndarray


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.names: List[str] = []
        #: Targets that no longer exist in the program (their metrics read 0).
        self.missing: List[str] = []
        self._clock = clock
        self._name_ids: Dict[str, int] = {}
        self._rows = array("d")
        self._stack: List[int] = []
        # One-element lists: the wrappers read and bump them without an
        # attribute lookup on ``self``.
        self._next_id = [0]
        self._operation = [0]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def next_operation(self) -> int:
        """Announce the next workload-level operation; returns its id."""
        self._operation[0] += 1
        return self._operation[0]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function``, recording one span named ``name`` per call."""
        name_id = self._name_id(name)
        clock = self._clock
        stack = self._stack
        next_id = self._next_id
        operation = self._operation
        record = self._rows.extend

        def traced(*args, **kwargs):
            span_id = next_id[0]
            next_id[0] = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((span_id, name_id, parent, operation[0], start, end))

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (the runner's root span)."""
        name_id = self._name_id(name)
        span_id = self._next_id[0]
        self._next_id[0] = span_id + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._stack.pop()
            self._rows.extend((span_id, name_id, parent, self._operation[0], start, end))

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self, targets: Sequence[Target]) -> None:
        """Replace each target with its wrapper until :meth:`uninstall`.

        A target the program no longer defines is skipped and listed in
        :attr:`missing`: the benchmark is frozen, the program is not, and a
        renamed function must cost one metric, not the whole traced run.
        """
        for module_name, class_name, attribute, name in targets:
            self._name_id(name)
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            setattr(owner, attribute, self.wrap(original, name))
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # reading a finished trace
    # ------------------------------------------------------------------
    def spans(self) -> Spans:
        table = np.array(self._rows, dtype=np.float64).reshape(-1, 6)
        as_int = table[:, :4].astype(np.int64)
        return Spans(*as_int.T, table[:, 4], table[:, 5])

    def self_times(self, spans: Optional[Spans] = None) -> np.ndarray:
        """Self time of every span (same order as :meth:`spans`)."""
        spans = self.spans() if spans is None else spans
        durations = spans.ends - spans.starts
        has_parent = spans.parents >= 0
        covered = np.bincount(
            spans.parents[has_parent],
            weights=durations[has_parent],
            minlength=self._next_id[0],
        )
        return durations - covered[spans.ids]

    def totals(self, spans: Optional[Spans] = None) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        spans = self.spans() if spans is None else spans
        count = len(self.names)
        calls = np.bincount(spans.names, minlength=count)
        self_s = np.bincount(spans.names, weights=self.self_times(spans), minlength=count)
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Dump every span as one CSV line (id,name,parent,operation,start,end)."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,name,parent,operation,start_s,end_s\n")
            for row in zip(*(column.tolist() for column in spans)):
                span_id, name_id, parent, operation, start, end = row
                out.write(
                    f"{span_id},{self.names[name_id]},{parent},{operation},{start!r},{end!r}\n"
                )
