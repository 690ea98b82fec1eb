"""Per-layer span tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` (the table in :data:`ENTRY_POINTS`) and every callback handed
to ``EventLoop.call_at``, so that each call into a layer opens a span.
Spans record name, start, end and parent; they stay in memory and are
written out by :meth:`Tracer.write` when the run ends.  A span's *self
time* is its duration minus the time of the child spans it covers, and
is charged to the span's bucket (a layer, or one pipeline phase).  The
root span covers the whole traced process, so the self times of all
buckets, ``other`` included, sum to its wall time by construction.

Nothing here touches a private name of the program: a later change that
rewrites a layer's internals keeps the spans and counters, as long as
the public entry points stay.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> module prefixes whose callbacks the kernel dispatches
#: into that layer.  First match wins, so narrower prefixes come first.
LAYER_MODULES: List[Tuple[str, Tuple[str, ...]]] = [
    ("net.kernel", ("repro.net.kernel",)),
    ("net.simnet", ("repro.net.simnet",)),
    ("agents.serialization", ("repro.agents.serialization",)),
    ("agents.mobility", ("repro.agents.mobility",)),
    ("agents.platform", ("repro.agents.platform", "repro.agents.agent",
                         "repro.agents.acl", "repro.agents.behaviours",
                         "repro.agents.protocols",
                         "repro.agents.directory")),
    ("context.bus", ("repro.context.bus",)),
    ("core.pipeline", ("repro.core.pipeline",)),
    ("core.middleware", ("repro.core.middleware",)),
    ("core.prestage", ("repro.core.prestage",)),
    ("core.autonomous_agent", ("repro.core.autonomous_agent",)),
    ("registry", ("repro.registry",)),
    ("ontology", ("repro.ontology",)),
    ("city", ("repro.city",)),
]
LAYERS = [name for name, _prefixes in LAYER_MODULES] + ["other"]

#: The migration phases with their own buckets; every phase of the
#: prestage stack shares the ``prestage`` bucket.
PIPELINE_PHASES = ("admission", "planning", "negotiation", "suspend",
                   "capture", "transfer", "checkin", "rebind", "powerup")

#: (module, qualified name, layer, counter) for every wrapped entry
#: point.  ``counter`` names the count the wrapper keeps (or ``None``).
ENTRY_POINTS: List[Tuple[str, str, str, Optional[str]]] = [
    ("repro.net.kernel", "EventLoop.run", "net.kernel", None),
    ("repro.net.kernel", "EventLoop.step", "net.kernel", None),
    ("repro.net.kernel", "EventLoop.call_at", "net.kernel", None),
    ("repro.net.kernel", "Timer.cancel", "net.kernel", None),
    ("repro.net.simnet", "Network.send", "net.simnet", None),
    ("repro.net.simnet", "Network.send_window", "net.simnet", None),
    ("repro.net.simnet", "Network.route", "net.simnet", None),
    ("repro.net.simnet", "Link.enqueue_bulk", "net.simnet", None),
    ("repro.agents.serialization", "deep_size_bytes",
     "agents.serialization", "agents.serialization.calls"),
    ("repro.agents.serialization", "AgentSnapshot.__post_init__",
     "agents.serialization", None),
    ("repro.agents.serialization", "AgentSnapshot.instantiate",
     "agents.serialization", None),
    ("repro.agents.agent", "Agent.receive", "agents.platform", None),
    ("repro.agents.platform", "AgentPlatform.send_message",
     "agents.platform", "agents.platform.acl_messages"),
    ("repro.agents.mobility", "MobilityService.move", "agents.mobility",
     "agents.mobility.moves"),
    ("repro.context.bus", "ContextBus.publish", "context.bus", None),
    ("repro.core.middleware", "MigrationScheduler.submit",
     "core.middleware", "core.middleware.submits"),
    ("repro.core.prestage", "PrestagingService.stage", "core.prestage",
     "core.prestage.stage_calls"),
    ("repro.core.autonomous_agent", "DecisionEngine.evaluate",
     "core.autonomous_agent", "core.autonomous_agent.decisions"),
    ("repro.registry.registry", "RegistryClient.call", "registry", None),
    ("repro.registry.registry", "CachingRegistryClient.call", "registry",
     None),
    ("repro.registry.federation", "FederatedRegistryClient.call",
     "registry", None),
    ("repro.ontology.reasoner", "ForwardChainingReasoner.run", "ontology",
     "ontology.reasoner_runs"),
    ("repro.ontology.matching", "ResourceMatcher.match", "ontology", None),
    ("repro.city.topology", "synthesize", "city", "city.builds"),
    ("repro.city.topology", "build_deployment", "city", None),
]

#: Modules loaded before patching, so that every module that imported a
#: wrapped function by name (``from x import f``) is found and patched.
PRELOAD = (
    "repro.city.workload", "repro.bench.scenarios", "repro.core.snapshot",
    "repro.core.pipeline", "repro.core.prestage", "repro.agents.platform",
    "repro.registry.federation", "repro.simcheck.scenario",
    "repro.obs.slo",
)

REGISTRY_PROTOCOL_PREFIX = "registry"


def layer_of_module(module: Optional[str]) -> str:
    if module:
        for layer, prefixes in LAYER_MODULES:
            for prefix in prefixes:
                if module == prefix or module.startswith(prefix + "."):
                    return layer
    return "other"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.clock = time.perf_counter
        self.bucket_names: List[str] = list(LAYERS)
        self.bucket_layer: List[str] = list(LAYERS)
        for phase in PIPELINE_PHASES + ("prestage",):
            self.bucket_names.append(f"core.pipeline.{phase}")
            self.bucket_layer.append("core.pipeline")
        self._bucket_index = {n: i for i, n in enumerate(self.bucket_names)}
        self.self_s = [0.0] * len(self.bucket_names)
        self.span_names: List[str] = []
        self._span_name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Open frames: [span index, bucket, start, child time].
        self.stack: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        self._module_span: Dict[Optional[str], Tuple[int, int]] = {}
        self.wall_s = 0.0

    # -- span bookkeeping ----------------------------------------------------

    def bucket(self, name: str) -> int:
        return self._bucket_index[name]

    def name_id(self, name: str) -> int:
        nid = self._span_name_ids.get(name)
        if nid is None:
            nid = len(self.span_names)
            self._span_name_ids[name] = nid
            self.span_names.append(name)
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def enter(self, nid: int, bucket: int) -> List[Any]:
        stack = self.stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        now = self.clock()
        self.span_start.append(now)
        self.span_end.append(now)
        frame = [index, bucket, now, 0.0]
        stack.append(frame)
        return frame

    def leave(self, frame: List[Any]) -> None:
        now = self.clock()
        stack = self.stack
        stack.pop()
        self.span_end[frame[0]] = now
        duration = now - frame[2]
        self.self_s[frame[1]] += duration - frame[3]
        if stack:
            stack[-1][3] += duration

    def start(self) -> None:
        """Open the root span (bucket ``other``)."""
        self._root = self.enter(self.name_id("process"), self.bucket("other"))

    def stop(self) -> None:
        """Close the root span; every open span must be closed by now."""
        if self.stack != [self._root]:
            raise RuntimeError(f"{len(self.stack) - 1} spans left open")
        self.leave(self._root)
        self.wall_s = self.span_end[0] - self.span_start[0]

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for bucket, seconds in enumerate(self.self_s):
            totals[self.bucket_layer[bucket]] += seconds
        return totals

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        header = {"format": "perfbench.spans/1", "names": self.span_names,
                  "count": len(self.span_start),
                  "arrays": ["name:u16", "parent:i32", "start:f64",
                             "end:f64"]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(out)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Import the program's layers and wrap their entry points."""
        for module in PRELOAD:
            importlib.import_module(module)
        for module, qualname, layer, counter in ENTRY_POINTS:
            self._patch(module, qualname, layer, counter)
        self._patch_phases()
        self._patch_population()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, module_name: str, qualname: str, layer: str,
               counter: Optional[str]) -> None:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, self._wrap(original, qualname, layer,
                                              counter))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(original, qualname, layer, counter)
        # Rebind every module that imported the function by name too.
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(loaded, qualname, None) is original:
                self._set(loaded, qualname, wrapper)

    def _wrap(self, fn: Callable, qualname: str, layer: str,
              counter: Optional[str]) -> Callable:
        """A span around ``fn``, with the counts :data:`ENTRY_POINTS`,
        :data:`_BEFORE` and :data:`_AFTER` name for it."""
        if qualname == "EventLoop.call_at":
            return self._wrap_call_at(fn, qualname, layer)
        nid = self.name_id(qualname)
        bucket = self.bucket(layer)
        enter, leave, counts = self.enter, self.leave, self.counts
        before = _BEFORE.get(qualname)
        after = _AFTER.get(qualname)

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + 1
            if before is not None:
                before(self, args)
            frame = enter(nid, bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(counts, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qualname)
        return wrapper

    def _wrap_call_at(self, fn: Callable, qualname: str,
                      layer: str) -> Callable:
        """``call_at`` hands the kernel a :class:`_Dispatch` instead of
        the callback, so the callback runs in a span of its own layer."""
        nid = self.name_id(qualname)
        bucket = self.bucket(layer)
        enter, leave, counts = self.enter, self.leave, self.counts

        def call_at(loop, when, callback, *args):
            counts["net.kernel.scheduled"] = \
                counts.get("net.kernel.scheduled", 0) + 1
            frame = enter(nid, bucket)
            try:
                if type(callback) is not _Dispatch:  # reschedule re-passes it
                    callback = _Dispatch(self, callback,
                                         *self.dispatch_span(callback))
                return fn(loop, when, callback, *args)
            finally:
                leave(frame)

        call_at.__wrapped__ = fn
        return call_at

    def dispatch_span(self, callback: Any) -> Tuple[int, int]:
        """(span name id, bucket) of the layer defining ``callback``."""
        target = getattr(callback, "func", callback)  # functools.partial
        module = getattr(target, "__module__", None)
        if module is None:
            module = type(target).__module__
        span = self._module_span.get(module)
        if span is None:
            layer = layer_of_module(module)
            span = (self.name_id(f"{layer}.callback"), self.bucket(layer))
            self._module_span[module] = span
        return span

    def _patch_phases(self) -> None:
        """Wrap ``run`` of every concrete :class:`MiddlewarePhase`."""
        from repro.core.pipeline import MiddlewarePhase

        seen = set()
        pending = list(MiddlewarePhase.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls in seen or "run" not in cls.__dict__:
                continue
            seen.add(cls)
            self._set(cls, "run", self._phase_wrapper(cls.__dict__["run"],
                                                      cls.name))

    def _phase_wrapper(self, fn: Callable, phase: str) -> Callable:
        enter, leave, counts = self.enter, self.leave, self.counts
        nid_phase = self.name_id(f"core.pipeline.{phase}")
        nid_pre = self.name_id(f"core.pipeline.prestage.{phase}")
        bucket_phase = self._bucket_index.get(f"core.pipeline.{phase}",
                                              self.bucket("core.pipeline"))
        bucket_pre = self.bucket("core.pipeline.prestage")
        calls = f"core.pipeline.{phase}.calls"

        def run(phase_self, ctx):
            request = ctx.request
            if request is not None and request.prestage:
                frame = enter(nid_pre, bucket_pre)
            else:
                counts[calls] = counts.get(calls, 0) + 1
                frame = enter(nid_phase, bucket_phase)
            try:
                return fn(phase_self, ctx)
            finally:
                leave(frame)

        run.__wrapped__ = fn
        return run

    def _patch_population(self) -> None:
        """Time each step of the lazy per-user trace iterators."""
        from repro.city.population import Population

        original = Population.__dict__["iter_user_events"]
        tracer = self
        nid = self.name_id("Population.iter_user_events")
        bucket = self.bucket("city")

        class TracedEvents:
            __slots__ = ("_inner",)

            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                frame = tracer.enter(nid, bucket)
                try:
                    event = next(self._inner)
                finally:
                    tracer.leave(frame)
                tracer.count("city.trace_events")
                return event

        def iter_user_events(population_self, user):
            frame = tracer.enter(nid, bucket)
            try:
                inner = original(population_self, user)
            finally:
                tracer.leave(frame)
            return TracedEvents(inner)

        iter_user_events.__wrapped__ = original
        self._set(Population, "iter_user_events", iter_user_events)


class _Dispatch:
    """A kernel callback wrapped in a span of the layer defining it."""

    __slots__ = ("tracer", "fn", "nid", "bucket")

    def __init__(self, tracer: Tracer, fn: Callable, nid: int, bucket: int):
        self.tracer = tracer
        self.fn = fn
        self.nid = nid
        self.bucket = bucket

    def __call__(self, *args):
        tracer = self.tracer
        frame = tracer.enter(self.nid, self.bucket)
        try:
            return self.fn(*args)
        finally:
            tracer.leave(frame)


# -- entry points whose counts need the call's arguments or result -----------


def _bump(counts: Dict[str, float], name: str, amount: float = 1) -> None:
    counts[name] = counts.get(name, 0) + amount


def _after_step(counts, result, _args, _kwargs):
    if result:  # False: the queue was empty, nothing dispatched
        _bump(counts, "net.kernel.events")


def _before_cancel(tracer, args):
    if args[0].active:
        _bump(tracer.counts, "net.kernel.cancelled")


def _after_send(counts, _result, args, kwargs):
    _bump(counts, "net.simnet.sends")
    protocol = args[3] if len(args) > 3 else kwargs.get("protocol", "")
    if str(protocol).startswith(REGISTRY_PROTOCOL_PREFIX):
        _bump(counts, "registry.messages")


def _after_send_window(counts, result, _args, _kwargs):
    if result is not None:  # None: the caller falls back to send()
        _bump(counts, "net.simnet.sends")


def _after_receive(counts, result, _args, _kwargs):
    _bump(counts, "agents.platform.receives")
    if result is not None:
        _bump(counts, "agents.platform.receive_hits")


def _after_publish(counts, result, _args, _kwargs):
    _bump(counts, "context.bus.publishes")
    _bump(counts, "context.bus.deliveries", result or 0)


def _before_registry_call(tracer, _args):
    """Counts only calls not made by another client call: a federated
    client's inner ``super().call`` is part of the same request."""
    parent = tracer.span_names[tracer.span_name[tracer.stack[-1][0]]]
    if parent not in _REGISTRY_CALLS:
        _bump(tracer.counts, "registry.requests")


_REGISTRY_CALLS = frozenset({"RegistryClient.call",
                             "CachingRegistryClient.call",
                             "FederatedRegistryClient.call"})
_BEFORE: Dict[str, Callable[[Tracer, tuple], None]] = {
    "Timer.cancel": _before_cancel,
    **{name: _before_registry_call for name in _REGISTRY_CALLS},
}
_AFTER: Dict[str, Callable[..., None]] = {
    "EventLoop.step": _after_step,
    "Network.send": _after_send,
    "Network.send_window": _after_send_window,
    "Agent.receive": _after_receive,
    "ContextBus.publish": _after_publish,
}
