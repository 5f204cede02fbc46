"""The shipped simlint rules (SIM001–SIM004, SIM006).

Each rule encodes one convention the simulation plane's correctness rests
on; the module docstrings of :mod:`repro.simulation.protocol` and
:mod:`repro.simulation.faults` state the contracts, ``LINTING.md`` at the
repo root documents the rules, and the fixture suite under ``tests/lint``
pins a true positive, a true negative and a suppressed case for each.

SIM001 epoch-contract
    Every method (``__init__`` excepted) of a class defining message
    handlers (``_on_*`` / ``handle_*``) that mutates a view-state
    attribute must bump ``view_epoch`` — via ``touch_view()`` or a direct
    increment — on every mutating path; the per-node routing cache is
    invalidated by exactly that bump.  Handlers delegate view mutations
    to helper methods of the same class, so the helpers are held to the
    contract too.  Second half, under ``repro/simulation``: a write to a
    protocol node's view attribute (``voronoi`` / ``close`` /
    ``long_links`` / ``back_links``) through a receiver other than
    ``self`` is a finding whatever follows it — no bump from outside the
    node's class can be held to the every-path contract, so the edit
    belongs in a node method.  The node's liveness and pending containers
    (``suspects``, ``missed_heartbeats``, ``rehabilitated``, …) are held to
    the same "written only by the node" half, with no bump asked: an empty
    one is a shared immutable sentinel that only the node's own methods
    swap for a real container.

SIM002 determinism
    Inside the deterministic-replay scope (``repro/simulation`` and
    ``repro/core``): no module-level ``random.*`` / ``numpy.random.*``
    global-state draws, no unseeded ``random.Random()`` /
    ``default_rng()`` / ``RandomSource()``, no wall clocks
    (``time.time()``, ``datetime.now()``), and no iteration over
    set-typed values whose order could leak into message sequencing.
    Set-to-set derivations (``SetComp``) are order-independent and exempt;
    wrapping the iterable in ``sorted(...)`` satisfies the rule.

SIM003 slots
    Classes in ``repro/simulation`` that assign instance attributes in
    ``__init__`` must declare ``__slots__`` — the message plane's hot-path
    discipline (dataclasses excluded).

SIM004 dispatch-consistency
    Whole-program: every message ``kind`` string passed to a
    ``send``/``send_message``/``send_snapshot`` call must have a
    registered ``_on_<kind>`` handler, and every handler's kind must be
    sent somewhere.

SIM006 routing-cache-contract
    The oracle plane's counterpart of SIM001, for the routing-table cache
    of :mod:`repro.core.shards` ("a cached table is a valid table"): any
    function under ``repro/core`` or in ``repro/simulation/failures.py``
    (the crash injector's scrub, the one mutator of oracle nodes outside
    ``core``) that mutates another node's routing-relevant containers
    (``long_links`` / ``close_neighbors`` — directly or via the
    ``ObjectNode`` mutator methods), or withdraws a member
    (``withdraw_substrate(...)``, which changes its ex-neighbours'
    adjacency and leaves every view naming it stale), must be followed,
    on every mutating path, by ``invalidate_routing_tables(...)`` or a
    direct cache drop (``bump_object_ids`` / ``drop_all``).  Back-link
    churn is exempt (``BLRn`` is not routed on), as are the primitive
    mutator bodies on ``ObjectNode`` itself (bare-``self`` receivers) —
    they cannot reach the overlay, so the contract binds their call sites.
    The rule sees that *an* invalidation follows, not that the ids it
    names are complete; that is ``VoroNet.routing_cache_report()``'s job
    at run time.
"""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.lint.framework import (Finding, LintConfig, ModuleInfo, Rule,
                                  path_in_scope, register)

__all__ = [
    "EpochContractRule",
    "DeterminismRule",
    "SlotsRule",
    "DispatchConsistencyRule",
    "RoutingCacheContractRule",
    "collect_sent_kinds",
    "collect_handled_kinds",
]


# ----------------------------------------------------------------------
# what the contract rules look for
# ----------------------------------------------------------------------
#: View-state attributes the epoch contract (SIM001) protects.  Covers the
#: protocol node's local view and the oracle node's field names so the
#: rule survives refactors that move handlers between the two planes.
NODE_VIEW_ATTRS = frozenset({"voronoi", "close", "long_links", "back_links"})
VIEW_ATTRS = NODE_VIEW_ATTRS | {"voronoi_region", "close_neighbors"}
#: Protocol-node containers that are not view state (no epoch bump) but,
#: like the views, are written only by the node's own methods: an empty one
#: is a shared immutable sentinel (``repro.simulation.protocol``, "Memory").
NODE_LIVENESS_ATTRS = frozenset({
    "pending_close_peers", "pending_link_indices", "suspects",
    "rehabilitated", "last_heard", "missed_heartbeats",
})
NODE_OWNED_ATTRS = NODE_VIEW_ATTRS | NODE_LIVENESS_ATTRS
#: Scope of SIM001's second half: no view or liveness write from outside
#: the node.
NODE_VIEW_PATHS = ("repro/simulation",)

#: Scope of the routing-cache rule (SIM006): the oracle plane, and the one
#: module outside it that mutates oracle nodes (``CrashInjector.repair``).
ROUTING_CACHE_PATHS = ("repro/core", "repro/simulation/failures")
#: Node containers whose mutation changes forwarding candidates (SIM006).
#: Back links are deliberately absent: BLRn is not routed on, so
#: back-registration churn needs no invalidation.
TOPOLOGY_ATTRS = frozenset({"long_links", "close_neighbors"})
#: ObjectNode methods that mutate a topology container (SIM006).
TOPOLOGY_MUTATORS = frozenset({
    "set_long_link", "retarget_long_link",
    "add_close_neighbor", "add_close_neighbors", "discard_close_neighbor",
    "clear_close_neighbors",
})
#: Calls that withdraw a member (SIM006): whatever the receiver, the tables
#: of its ex-neighbours and of every view naming it are wrong until dropped.
WITHDRAWAL_CALLS = frozenset({"withdraw_substrate"})
#: Calls that discharge the routing-cache contract (SIM006): the overlay
#: entry point, or the cache's own targeted drop / drop-all.
EPOCH_BUMP_CALLS = frozenset({
    "invalidate_routing_tables", "bump_object_ids", "drop_all",
})


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _self_view_attr(node: ast.AST,
                    aliases: Dict[str, str]) -> Optional[str]:
    """View attribute a target/receiver chain ultimately writes through.

    Walks down attribute/subscript chains so ``self.long_links[i].neighbor``
    and ``link.neighbor`` (with ``link = self.long_links[i]``) both resolve
    to ``long_links``.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name) and node.value.id == "self"
                    and node.attr in VIEW_ATTRS):
                return node.attr
            node = node.value
        else:
            node = node.value
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


#: Methods that mutate the container they are called on.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "clear", "remove", "discard", "setdefault", "sort", "reverse",
})


def _write_targets(nodes: Iterable[ast.AST]
                   ) -> Iterable[Tuple[ast.AST, ast.AST]]:
    """``(site, expression written through)`` for every assignment, ``del``,
    augmented assignment and mutator call among ``nodes``."""
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.Delete)):
            for target in node.targets:
                yield node, target
        elif isinstance(node, ast.AugAssign):
            yield node, node.target
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS):
            yield node, node.func.value


def _external_attr(node: ast.AST, attrs: FrozenSet[str]) -> Optional[str]:
    """Attribute among ``attrs`` a receiver/target chain writes on another
    object.

    Walks down attribute/subscript chains (``node.long_links[i].neighbor``,
    ``overlay.node(nid).close_neighbors``).  A chain rooted directly at
    bare ``self`` (``self.close_neighbors``) is *not* reported: that is
    the owning class editing itself, which the contract rules judge by
    the bump that follows (SIM001) or bind at the call site (SIM006).
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            base = node.value
            if isinstance(base, ast.Name) and base.id == "self":
                return None
            return node.attr
        node = node.value
    return None


def _block_paths(fn: ast.AST) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """Map ``id(stmt)`` → its chain of ``(block id, index)`` positions.

    Two statements share a block prefix exactly as far as they share
    enclosing statement lists; where the prefixes diverge tells whether
    one statement executes after the other on every path (same block,
    later index) or sits in a sibling branch (different blocks).
    """
    paths: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    def visit_block(body: List[ast.stmt],
                    prefix: Tuple[Tuple[int, int], ...]) -> None:
        for index, stmt in enumerate(body):
            path = prefix + ((id(body), index),)
            paths[id(stmt)] = path
            for field_value in stmt.__dict__.values():
                if (isinstance(field_value, list) and field_value
                        and isinstance(field_value[0], ast.stmt)):
                    visit_block(field_value, path)
                elif (isinstance(field_value, list) and field_value
                        and isinstance(field_value[0], ast.excepthandler)):
                    for handler in field_value:
                        visit_block(handler.body, path)

    visit_block(fn.body, ())
    return paths


def _nearest_statements(fn: ast.AST) -> Dict[int, ast.stmt]:
    """Map ``id(node)`` → the innermost statement containing it."""
    owner: Dict[int, ast.stmt] = {}

    def visit(node: ast.AST, current: Optional[ast.stmt]) -> None:
        if isinstance(node, ast.stmt):
            current = node
        if current is not None:
            owner[id(node)] = current
        for child in ast.iter_child_nodes(node):
            visit(child, current)

    for stmt in fn.body:
        visit(stmt, None)
    return owner


def _covers(touch_path: Tuple[Tuple[int, int], ...], touch_line: int,
            mut_path: Tuple[Tuple[int, int], ...], mut_line: int) -> bool:
    """Does a bump at ``touch_path`` dominate the mutation forward?

    True when, at the first point the two block paths diverge, the bump's
    statement comes *later in the same block* — i.e. it runs after the
    mutation on every path that executed the mutation.  A bump in a
    sibling branch (different block at the divergence) covers nothing.
    """
    for (touch_block, touch_index), (mut_block, mut_index) in zip(
            touch_path, mut_path):
        if touch_block != mut_block:
            return False
        if touch_index != mut_index:
            return touch_index > mut_index
    # One path is a prefix of the other: same statement spine.  Fall back
    # to source order inside that statement (rare; e.g. a mutation and a
    # bump chained in one expression statement).
    return touch_line > mut_line


# ----------------------------------------------------------------------
# SIM001 — epoch contract
# ----------------------------------------------------------------------
@register
class EpochContractRule(Rule):
    code = "SIM001"
    name = "epoch-contract"
    summary = ("methods of a message-handling class mutating view state "
               "must bump view_epoch on every mutating path")

    _HANDLER_PREFIXES = ("_on_", "handle_")

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterable[Finding]:
        if path_in_scope(module.display, NODE_VIEW_PATHS):
            for site, target in _write_targets(ast.walk(module.tree)):
                attr = _external_attr(target, NODE_OWNED_ATTRS)
                if attr is not None:
                    why = ("no bump from here can be held to the every-path "
                           "contract" if attr in NODE_VIEW_ATTRS else
                           "an empty one is a shared sentinel only the node "
                           "may swap")
                    yield Finding(
                        path=module.display, line=site.lineno,
                        col=site.col_offset + 1, rule=self.code,
                        message=(f"node attribute {attr!r} is written from "
                                 f"outside its node: {why} (move the edit "
                                 f"into a method of the node)"))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = [item for item in node.body if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            if not any(method.name.startswith(self._HANDLER_PREFIXES)
                       for method in methods):
                continue
            # Handlers delegate view mutations to helpers of their class.
            for method in methods:
                if method.name != "__init__":
                    yield from self._check_method(module, method)

    def _check_method(self, module: ModuleInfo,
                      fn: ast.FunctionDef) -> Iterable[Finding]:
        aliases: Dict[str, str] = {}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                attr = _self_view_attr(node.value, {})
                if attr is not None:
                    aliases[node.targets[0].id] = attr

        mutations: List[Tuple[ast.AST, str]] = []
        touches: List[ast.AST] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    # A bare-name target is the alias *creation*, not a
                    # mutation of the aliased container.
                    if isinstance(target, ast.Name):
                        continue
                    attr = _self_view_attr(target, aliases)
                    if attr is not None:
                        mutations.append((node, attr))
            elif isinstance(node, ast.AugAssign):
                if self._is_epoch_target(node.target):
                    touches.append(node)
                    continue
                attr = _self_view_attr(node.target, aliases)
                if attr is not None:
                    mutations.append((node, attr))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _self_view_attr(target, aliases)
                    if attr is not None:
                        mutations.append((node, attr))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr == "touch_view":
                        touches.append(node)
                    elif func.attr in _MUTATING_METHODS:
                        attr = _self_view_attr(func.value, aliases)
                        if attr is not None:
                            mutations.append((node, attr))
        if not mutations:
            return
        paths = _block_paths(fn)
        owners = _nearest_statements(fn)
        touch_sites = [(paths.get(id(owners.get(id(t)))), t.lineno)
                       for t in touches if id(t) in owners]
        for node, attr in mutations:
            stmt = owners.get(id(node))
            mut_path = paths.get(id(stmt)) if stmt is not None else None
            if mut_path is None:
                continue
            covered = any(
                touch_path is not None
                and _covers(touch_path, touch_line, mut_path, node.lineno)
                for touch_path, touch_line in touch_sites)
            if not covered:
                yield Finding(
                    path=module.display, line=node.lineno,
                    col=node.col_offset + 1, rule=self.code,
                    message=(f"method {fn.name!r} mutates view attribute "
                             f"{attr!r} without bumping view_epoch on this "
                             f"path (call self.touch_view() after the "
                             f"mutation)"))

    @staticmethod
    def _is_epoch_target(target: ast.AST) -> bool:
        return (isinstance(target, ast.Attribute)
                and target.attr == "view_epoch")


# ----------------------------------------------------------------------
# SIM006 — routing cache contract
# ----------------------------------------------------------------------
@register
class RoutingCacheContractRule(Rule):
    code = "SIM006"
    name = "routing-cache-contract"
    summary = ("core code mutating a node's routing-relevant containers "
               "must invalidate routing tables (drop the cached ones it "
               "made wrong) on every mutating path")

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterable[Finding]:
        if not path_in_scope(module.display, ROUTING_CACHE_PATHS):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    @staticmethod
    def _walk_own_body(fn: ast.AST) -> Iterable[ast.AST]:
        """Walk ``fn`` skipping nested defs — their bodies do not run where
        they are written, so neither their mutations nor their bumps
        belong to this function's paths (they get their own visit)."""
        stack: List[ast.AST] = [fn]
        while stack:
            node = stack.pop()
            if node is not fn and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_function(self, module: ModuleInfo,
                        fn: ast.FunctionDef) -> Iterable[Finding]:
        mutations: List[Tuple[ast.AST, str]] = []
        bumps: List[ast.AST] = []
        body = list(self._walk_own_body(fn))
        for node in body:
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                func = node.func
                if func.attr in EPOCH_BUMP_CALLS:
                    bumps.append(node)
                elif func.attr in WITHDRAWAL_CALLS:
                    mutations.append((node, func.attr))
                elif func.attr in TOPOLOGY_MUTATORS:
                    receiver = func.value
                    if not (isinstance(receiver, ast.Name)
                            and receiver.id == "self"):
                        mutations.append((node, func.attr))
        for site, target in _write_targets(body):
            attr = _external_attr(target, TOPOLOGY_ATTRS)
            if attr is not None:
                mutations.append((site, attr))
        if not mutations:
            return
        paths = _block_paths(fn)
        owners = _nearest_statements(fn)
        bump_sites = [(paths.get(id(owners.get(id(b)))), b.lineno)
                      for b in bumps if id(b) in owners]
        for node, attr in mutations:
            stmt = owners.get(id(node))
            mut_path = paths.get(id(stmt)) if stmt is not None else None
            if mut_path is None:
                continue
            covered = any(
                bump_path is not None
                and _covers(bump_path, bump_line, mut_path, node.lineno)
                for bump_path, bump_line in bump_sites)
            if not covered:
                what = (f"calls {attr!r}" if attr in WITHDRAWAL_CALLS
                        else f"mutates routing-relevant {attr!r}")
                yield Finding(
                    path=module.display, line=node.lineno,
                    col=node.col_offset + 1, rule=self.code,
                    message=(f"{fn.name!r} {what} without a following "
                             f"invalidate_routing_tables()/cache drop "
                             f"on this path — a cached routing table is "
                             f"left stale"))


# ----------------------------------------------------------------------
# SIM002 — determinism
# ----------------------------------------------------------------------
_SET_ANNOTATION_NAMES = frozenset({
    "Set", "set", "FrozenSet", "frozenset", "AbstractSet", "MutableSet",
})

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
})


def _is_set_annotation(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node) or ""
    return name.split(".")[-1] in _SET_ANNOTATION_NAMES


def _is_set_expr(node: ast.AST, set_vars: Set[str]) -> bool:
    """Whether an expression statically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func) or ""
        return name.split(".")[-1] in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_vars)
                or _is_set_expr(node.right, set_vars))
    if isinstance(node, ast.Name):
        return node.id in set_vars
    return False


@register
class DeterminismRule(Rule):
    code = "SIM002"
    name = "determinism"
    summary = ("no global-state RNG, unseeded generators, wall clocks or "
               "order-nondeterministic set iteration in the replay scope")

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterable[Finding]:
        if not path_in_scope(module.display, config.determinism_paths):
            return
        yield from self._check_calls(module)
        yield from self._check_set_iteration(module)

    # -- RNG and wall clocks -------------------------------------------
    def _check_calls(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            message = self._classify_call(name, node)
            if message is not None:
                yield Finding(path=module.display, line=node.lineno,
                              col=node.col_offset + 1, rule=self.code,
                              message=message)

    @staticmethod
    def _classify_call(name: str, node: ast.Call) -> Optional[str]:
        unseeded = not node.args and not node.keywords
        if name == "random.Random":
            if unseeded:
                return ("unseeded random.Random(); derive the stream from "
                        "a seeded RandomSource instead")
            return None
        if name.startswith("random."):
            return (f"{name}() draws from the module-level global RNG; use "
                    f"a seeded RandomSource so replays are reproducible")
        if name.endswith(("numpy.random.default_rng",
                          "np.random.default_rng")) \
                or name in ("numpy.random.default_rng",
                            "np.random.default_rng"):
            if unseeded:
                return ("unseeded numpy default_rng(); pass a seed or fork "
                        "a RandomSource")
            return None
        if name.startswith(("numpy.random.", "np.random.")):
            tail = name.split(".")[-1]
            if tail[:1].isupper() or tail == "Generator":
                return None  # type references (np.random.Generator(...))
            return (f"{name}() uses numpy's global RNG state; draw from a "
                    f"seeded RandomSource/Generator instead")
        if name.split(".")[-1] == "RandomSource" and unseeded:
            return ("unseeded RandomSource(); thread a seed (or a forked "
                    "parent stream) through so runs are reproducible")
        if name in _WALL_CLOCK_CALLS:
            return (f"{name}() reads the wall clock; simulation code must "
                    f"use the engine's virtual clock")
        parts = name.split(".")
        if parts[-1] in ("now", "utcnow", "today") and any(
                part in ("datetime", "date") for part in parts[:-1] or [""]):
            return (f"{name}() reads the wall clock; simulation code must "
                    f"use the engine's virtual clock")
        return None

    # -- set iteration --------------------------------------------------
    def _check_set_iteration(self, module: ModuleInfo) -> Iterable[Finding]:
        for scope_node, class_set_attrs in self._scopes(module.tree):
            yield from self._check_scope(module, scope_node, class_set_attrs)

    @staticmethod
    def _scopes(tree: ast.Module):
        """Yield ``(function, set-typed self attrs of its class)`` pairs."""

        def class_set_attrs(classdef: ast.ClassDef) -> FrozenSet[str]:
            attrs = set()
            for item in classdef.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and _is_set_annotation(item.annotation)):
                    attrs.add(item.target.id)
            return frozenset(attrs)

        def walk(node: ast.AST, attrs: FrozenSet[str]):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, class_set_attrs(child))
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    yield child, attrs
                    yield from walk(child, attrs)
                else:
                    yield from walk(child, attrs)

        yield from walk(tree, frozenset())

    def _check_scope(self, module: ModuleInfo, fn: ast.AST,
                     class_set_attrs: FrozenSet[str]) -> Iterable[Finding]:
        set_vars: Set[str] = set()
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                if _is_set_annotation(arg.annotation):
                    set_vars.add(arg.arg)

        # Source-ordered events: assignments update the set-typed name
        # state; iteration sites are judged against the state at their
        # line.  Flow-insensitive within loops — acceptable for a lint.
        events: List[Tuple[int, int, str, ast.AST]] = []
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not fn:
                continue  # nested scopes are visited separately
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                events.append((node.lineno, node.col_offset, "assign", node))
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                events.append((node.lineno, node.col_offset, "assign", node))
            elif isinstance(node, ast.For):
                events.append((node.lineno, node.col_offset, "iter",
                               node.iter))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                # SetComp is exempt: a set built from a set is
                # order-independent by construction.
                for generator in node.generators:
                    events.append((node.lineno, node.col_offset, "iter",
                                   generator.iter))
        events.sort(key=lambda event: (event[0], event[1]))
        findings: List[Finding] = []
        for _line, _col, kind, node in events:
            if kind == "assign":
                if isinstance(node, ast.Assign):
                    target, value = node.targets[0], node.value
                else:
                    target, value = node.target, node.value
                if value is None:
                    continue
                is_set = (_is_set_expr(value, set_vars)
                          or (isinstance(node, ast.AnnAssign)
                              and _is_set_annotation(node.annotation)))
                if is_set:
                    set_vars.add(target.id)
                else:
                    set_vars.discard(target.id)
                continue
            source = self._set_iter_source(node, set_vars, class_set_attrs)
            if source is not None:
                findings.append(Finding(
                    path=module.display, line=node.lineno,
                    col=node.col_offset + 1, rule=self.code,
                    message=(f"iteration over set {source} is "
                             f"order-nondeterministic; iterate "
                             f"sorted(...) or an ordered container")))
        yield from findings

    @staticmethod
    def _set_iter_source(node: ast.AST, set_vars: Set[str],
                         class_set_attrs: FrozenSet[str]) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "literal"
        if isinstance(node, ast.SetComp):
            return "comprehension"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func) or ""
            if name.split(".")[-1] in ("set", "frozenset"):
                return f"{name}(...)"
            return None
        if isinstance(node, ast.Name) and node.id in set_vars:
            return f"{node.id!r}"
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in class_set_attrs):
            return f"'self.{node.attr}'"
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            if _is_set_expr(node, set_vars):
                return "expression"
        return None


# ----------------------------------------------------------------------
# SIM003 — slots
# ----------------------------------------------------------------------
@register
class SlotsRule(Rule):
    code = "SIM003"
    name = "slots"
    summary = ("simulation-plane classes assigning instance attributes in "
               "__init__ must declare __slots__")

    def check_module(self, module: ModuleInfo,
                     config: LintConfig) -> Iterable[Finding]:
        if not path_in_scope(module.display, config.slots_paths):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(self._is_dataclass_decorator(dec)
                   for dec in node.decorator_list):
                continue
            if self._declares_slots(node):
                continue
            attrs = self._init_attrs(node)
            if attrs:
                shown = ", ".join(sorted(attrs)[:4])
                if len(attrs) > 4:
                    shown += ", ..."
                yield Finding(
                    path=module.display, line=node.lineno,
                    col=node.col_offset + 1, rule=self.code,
                    message=(f"class {node.name!r} assigns instance "
                             f"attributes in __init__ ({shown}) but "
                             f"declares no __slots__"))

    @staticmethod
    def _is_dataclass_decorator(dec: ast.AST) -> bool:
        if isinstance(dec, ast.Call):
            dec = dec.func
        name = dotted_name(dec) or ""
        return name.split(".")[-1] == "dataclass"

    @staticmethod
    def _declares_slots(classdef: ast.ClassDef) -> bool:
        for item in classdef.body:
            if isinstance(item, ast.Assign):
                targets = item.targets
            elif isinstance(item, ast.AnnAssign):
                targets = [item.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False

    @staticmethod
    def _init_attrs(classdef: ast.ClassDef) -> Set[str]:
        init = next((item for item in classdef.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name == "__init__"), None)
        if init is None:
            return set()
        attrs: Set[str] = set()
        for node in ast.walk(init):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    attrs.add(target.attr)
        return attrs


# ----------------------------------------------------------------------
# SIM004 — dispatch consistency
# ----------------------------------------------------------------------
#: ``send_snapshot`` is the simulator's view-carrying send; the kind sits
#: where ``send`` has it.
_SEND_METHOD_NAMES = frozenset({"send", "send_message", "send_snapshot"})
_KIND_POSITION = 2  # send(sender, recipient, kind, ...)


def collect_sent_kinds(modules: Sequence[ModuleInfo]
                       ) -> Dict[str, List[Tuple[str, int, int]]]:
    """Every literal message kind sent, with its send sites.

    Collected from ``*.send(sender, recipient, "KIND", ...)`` /
    ``*.send_message(...)`` / ``*.send_snapshot(...)`` calls, a routed
    kind's forwarding hop in its own handler included.  Dynamic kinds are
    invisible to this pass by design.
    """
    sent: Dict[str, List[Tuple[str, int, int]]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = _literal_kind(node)
            if kind is not None:
                sent.setdefault(kind, []).append(
                    (module.display, node.lineno, node.col_offset + 1))
    return sent


def _literal_kind(node: ast.Call) -> Optional[str]:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in _SEND_METHOD_NAMES):
        return None
    for keyword in node.keywords:
        if keyword.arg == "kind":
            if isinstance(keyword.value, ast.Constant) \
                    and isinstance(keyword.value.value, str):
                return keyword.value.value
            return None
    if len(node.args) > _KIND_POSITION:
        arg = node.args[_KIND_POSITION]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def collect_handled_kinds(modules: Sequence[ModuleInfo]
                          ) -> Dict[str, List[Tuple[str, int, int]]]:
    """Every kind with a registered ``_on_<kind>`` handler, with def sites."""
    handled: Dict[str, List[Tuple[str, int, int]]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_on_") and len(node.name) > 4:
                kind = node.name[4:].upper()
                handled.setdefault(kind, []).append(
                    (module.display, node.lineno, node.col_offset + 1))
    return handled


@register
class DispatchConsistencyRule(Rule):
    code = "SIM004"
    name = "dispatch-consistency"
    summary = ("every sent message kind needs an _on_<kind> handler and "
               "every handler's kind must be sent somewhere")

    def check_program(self, modules: Sequence[ModuleInfo],
                      config: LintConfig) -> Iterable[Finding]:
        handled = collect_handled_kinds(modules)
        if not handled:
            # Linting a subset with no protocol handlers: sent kinds
            # cannot be judged (their handlers live elsewhere).
            return
        sent = collect_sent_kinds(modules)
        for kind in sorted(set(sent) - set(handled)):
            path, line, col = sent[kind][0]
            yield Finding(
                path=path, line=line, col=col, rule=self.code,
                message=(f"message kind {kind!r} is sent but no "
                         f"_on_{kind.lower()} handler is registered"))
        for kind in sorted(set(handled) - set(sent)):
            path, line, col = handled[kind][0]
            yield Finding(
                path=path, line=line, col=col, rule=self.code,
                message=(f"handler _on_{kind.lower()} is registered but "
                         f"kind {kind!r} is never sent"))
