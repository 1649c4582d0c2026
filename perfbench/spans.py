"""Outside-in span tracer for the simulator's layers.

The benchmark never edits the simulator.  To split host time by layer it
temporarily replaces the public functions of each ``repro`` module with
thin wrappers that open a span, call the original and close the span.
:func:`instrument` installs the wrappers and returns a callable that puts
every original back.

A span records its name, host start and end time, the span that was open
when it began (its parent) and a request id: the tid of the BAT it works
for, inherited from the parent when the call carries no transaction.
A span's *self time* is its duration minus the time its child spans
cover, so the self times of all spans add up to the duration of the root
span exactly.  Layers are named after modules through the committed
module -> layer map in ``choices.json``.

Every call is aggregated (calls, self and inclusive time per span name);
full span records are kept in memory for the first ``KEPT_SPANS`` spans
opened, a prefix that is closed under "parent of", and written out once
when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Full records are kept for this many spans (the first ones opened).
KEPT_SPANS = 20_000


@functools.lru_cache(maxsize=None)
def module_layers() -> Dict[str, str]:
    """Module prefix -> layer name, from ``choices.json``."""
    path = Path(__file__).resolve().parent / "choices.json"
    layers: Dict[str, str] = json.loads(path.read_text())["module_layers"]
    return layers


#: Layers whose self time is the paper's admission/read path.
CORE_LAYERS = ("schedulers", "locks", "builder")

#: Engine factory methods counted (not timed) as ``engine.events``.
ENGINE_FACTORIES = ("event", "timeout", "timeout_until", "process",
                    "any_of", "all_of")

#: (module, class or None, function, span name) of every timed public
#: function.  Methods are wrapped on every class of the module's
#: hierarchy that defines them (see :func:`_method_owners`).
TIMED: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.engine.core", "Environment", "run", "engine"),
    ("repro.core.schedulers.base", "Scheduler", "admit", "schedulers.admit"),
    ("repro.core.schedulers.base", "Scheduler", "request_lock",
     "schedulers.request_lock"),
    ("repro.core.schedulers.base", "Scheduler", "commit", "schedulers.commit"),
    ("repro.core.schedulers.base", "Scheduler", "abort_transaction",
     "schedulers.abort_transaction"),
    ("repro.core.schedulers.base", "Scheduler", "object_processed_batch",
     "schedulers.object_processed_batch"),
    ("repro.core.locks", "LockTable", "conflicting_transactions",
     "locks.conflicting_transactions"),
    ("repro.core.locks", "LockTable", "register", "locks.register"),
    ("repro.core.locks", "LockTable", "unregister", "locks.unregister"),
    ("repro.core.locks", "LockTable", "grant", "locks.grant"),
    ("repro.core.locks", "LockTable", "k_conflict_violated",
     "locks.k_conflict_violated"),
    ("repro.core.builder", None, "conflict_partners",
     "builder.conflict_partners"),
    ("repro.core.builder", None, "add_transaction", "builder.add_transaction"),
    ("repro.core.builder", None, "remove_transaction",
     "builder.remove_transaction"),
    ("repro.core.wtpg", "WTPG", "resolve", "wtpg.resolve"),
    ("repro.core.wtpg", "WTPG", "critical_path_length",
     "wtpg.critical_path_length"),
    ("repro.core.wtpg", "WTPG", "creates_cycle_from",
     "wtpg.creates_cycle_from"),
    ("repro.core.estimator", "ContentionBatch", "estimate",
     "estimator.estimate"),
    ("repro.core.chain_opt", None, "optimise_chain",
     "chain_opt.optimise_chain"),
    ("repro.machine.shard", "ControlPlane", "recover_shard",
     "shard.recover_shard"),
    ("repro.machine.control_log", "DependencyLog", "replay",
     "control_log.replay"),
    ("repro.machine.data_node", "DataNode", "submit", "data_node.submit"),
    ("repro.machine.data_node", "DataNode", "cancel", "data_node.cancel"),
    ("repro.metrics.collector", "MetricsCollector", "record_commit",
     "metrics.record_commit"),
    ("repro.workloads.patterns", "PatternWorkload", "__call__",
     "workloads.generate"),
    ("repro.faults.injector", "FaultInjector", "distort", "faults.distort"),
    ("repro.faults.injector", "FaultInjector", "plan_abort",
     "faults.plan_abort"),
)

#: Coordinator generators, timed per resumption (one span per
#: ``send``/``throw`` the engine makes into the BAT's process).
RESUMED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.machine.control_node", "ControlNode", "transaction_process",
     "control_node"),
    ("repro.machine.shard", "ControlPlane", "transaction_process", "shard"),
)

#: The root span of one simulated point.
ROOT = ("repro.machine.cluster", "Cluster", "run", "run")


def layer_of(module: str) -> str:
    """The layer a module belongs to, by longest prefix in the map."""
    best = ""
    for prefix in module_layers():
        if (module == prefix or module.startswith(prefix + ".")) and \
                len(prefix) > len(best):
            best = prefix
    if not best:
        raise KeyError(f"module {module!r} is in no layer")
    return module_layers()[best]


def span_layers() -> Dict[str, str]:
    """Span name -> layer, from the module that defines each function."""
    table = {name: layer_of(module) for module, _, _, name in TIMED}
    table.update({name: layer_of(module) for module, _, _, name in RESUMED})
    table[ROOT[3]] = layer_of(ROOT[0])
    return table


class SpanRecorder:
    """Open-span stack plus per-name aggregates and kept span records."""

    def __init__(self) -> None:
        # Open spans: [name, start, child_time, span_id, request_id].
        self.stack: List[List[Any]] = []
        self.next_id = 0
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.outcomes: Dict[str, int] = {}
        self.kept: List[Tuple[int, str, float, float, int, int]] = []

    def open(self, name: str, rid: int) -> List[Any]:
        stack = self.stack
        if rid < 0 and stack:
            rid = stack[-1][4]
        span = [name, time.perf_counter(), 0.0, self.next_id, rid]
        self.next_id += 1
        stack.append(span)
        return span

    def close(self, span: List[Any]) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        name, start, child, sid, rid = span
        duration = end - start
        parent = -1
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.incl_s[name] = self.incl_s.get(name, 0.0) + duration
        if sid < KEPT_SPANS:
            self.kept.append((sid, name, start, end, parent, rid))

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def spans(self) -> Iterator[Dict[str, Any]]:
        """The kept span records, in the order they were opened."""
        for sid, name, start, end, parent, rid in sorted(self.kept):
            yield {"id": sid, "name": name, "start": start, "end": end,
                   "parent": parent, "rid": rid}


def _rid_of(args: Tuple[Any, ...]) -> int:
    """The BAT tid a call works for: first argument carrying a ``tid``."""
    for arg in args[:2]:
        tid = getattr(arg, "tid", None)
        if isinstance(tid, int):
            return tid
    return -1


#: Span name -> what its return value adds to the recorder's outcomes.
OUTCOMES: Dict[str, Callable[[Any], Tuple[str, int]]] = {
    "schedulers.admit": lambda response: (
        "schedulers.admit.accepted", int(response.admitted)),
    "schedulers.request_lock": lambda response: (
        "schedulers.request_lock.granted", int(response.granted)),
    "control_log.replay": lambda replayed: (
        "control_log.replay.records", replayed[1]),
}


def _timed(rec: SpanRecorder, name: str,
           fn: Callable[..., Any]) -> Callable[..., Any]:
    note = OUTCOMES.get(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = rec.stack
        if stack and stack[-1][0] == name:
            # A subclass override calling up through super(): one call.
            return fn(*args, **kwargs)
        span = rec.open(name, _rid_of(args[1:]) if args else -1)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if note is not None:
            key, amount = note(result)
            rec.outcomes[key] = rec.outcomes.get(key, 0) + amount
        return result
    return wrapper


def _counted(rec: SpanRecorder, name: str,
             fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.count(name)
        return fn(*args, **kwargs)
    return wrapper


class _ResumeTimer:
    """Generator proxy: one span per resumption of the wrapped process."""

    __slots__ = ("_gen", "_rec", "_name", "_rid")

    def __init__(self, gen: Any, rec: SpanRecorder, name: str,
                 rid: int) -> None:
        self._gen = gen
        self._rec = rec
        self._name = name
        self._rid = rid

    def __iter__(self) -> "_ResumeTimer":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        span = self._rec.open(self._name, self._rid)
        try:
            return self._gen.send(value)
        finally:
            self._rec.close(span)

    def throw(self, exc: BaseException) -> Any:
        span = self._rec.open(self._name, self._rid)
        try:
            return self._gen.throw(exc)
        finally:
            self._rec.close(span)

    def close(self) -> None:
        self._gen.close()


def _resumed(rec: SpanRecorder, name: str,
             fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(self: Any, txn: Any, *args: Any, **kwargs: Any) -> Any:
        return _ResumeTimer(fn(self, txn, *args, **kwargs), rec, name,
                            txn.tid)
    return wrapper


def _method_owners(module: Any, cls_name: str, attr: str) -> List[type]:
    """``cls_name`` and every loaded subclass that defines ``attr``."""
    owners: List[type] = []
    todo = [getattr(module, cls_name)]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__ and cls not in owners:
            owners.append(cls)
        todo.extend(cls.__subclasses__())
    return owners


def instrument(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced public function; returns the undo callable.

    Module functions are replaced in their defining module *and* in every
    loaded ``repro`` module that imported them by name, so ``from x
    import f`` call sites are traced too.
    """
    import repro.core.schedulers  # noqa: F401 -- load every subclass
    import repro.machine  # noqa: F401
    import repro.workloads  # noqa: F401

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(module_name: str, cls_name: Optional[str], attr: str,
             make: Callable[[Any], Any]) -> None:
        module = sys.modules[module_name]
        if cls_name is not None:
            for owner in _method_owners(module, cls_name, attr):
                patch(owner, attr, make(owner.__dict__[attr]))
            return
        original = getattr(module, attr)
        replacement = make(original)
        for name, mod in sorted(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    mod is not None and mod.__dict__.get(attr) is original:
                patch(mod, attr, replacement)

    for module_name, cls_name, attr, name in TIMED:
        wrap(module_name, cls_name, attr,
             lambda fn, name=name: _timed(rec, name, fn))
    for module_name, cls_name, attr, name in RESUMED:
        wrap(module_name, cls_name, attr,
             lambda fn, name=name: _resumed(rec, name, fn))
    for attr in ENGINE_FACTORIES:
        wrap("repro.engine.core", "Environment", attr,
             lambda fn: _counted(rec, "engine.events", fn))
    wrap(ROOT[0], ROOT[1], ROOT[2], lambda fn: _timed(rec, ROOT[3], fn))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return restore
