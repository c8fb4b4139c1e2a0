"""In-memory span tracer for the benchmark's traced pass.

The program carries no spans of its own, so the tracer wraps the public
function of each layer from outside: module-level functions are replaced
in every loaded ``repro`` module that bound them, and methods are replaced
on their class.  :meth:`Tracer.uninstall` puts every original back.

A span is ``(name, start, end, parent)``; spans stay in memory until the
pass ends.  A layer's self time is its span's duration minus the time its
child spans cover.  There is no catch-all root span: a transport's ``run``
is spanned step by step (each ``next()`` on the iterator it returns), so
what ``run_sweep`` does between steps, outside the named layers, is
covered by no span and lowers ``trace.coverage``.  Counters (rounds,
activations, points) are taken from the return values at the same
boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", Any, Tuple[Any, ...]], None]

#: The traced layer boundaries: ``(span name, module, attribute, hook)``.
#: ``Class.method`` attributes are patched on the class.
LAYERS: List[Tuple[str, str, str, Optional[str]]] = [
    ("grid.make_shape", "repro.grid.generators", "make_shape", None),
    ("grid.compute_metrics", "repro.grid.metrics", "compute_metrics",
     "metrics"),
    ("amoebot.from_shape", "repro.amoebot.system",
     "ParticleSystem.from_shape", None),
    ("amoebot.scheduler", "repro.amoebot.scheduler",
     "SequentialScheduler.run", "scheduler"),
    ("core.obd", "repro.core.obd", "OuterBoundaryDetection.run",
     "obd_rounds"),
    ("core.collect", "repro.core.collect", "CollectSimulator.run",
     "collect_rounds"),
    ("baselines.erosion", "repro.baselines.erosion", "run_erosion_election",
     None),
    ("baselines.randomized", "repro.baselines.randomized",
     "run_randomized_election", None),
    ("record", "repro.analysis.experiments", "run_experiment", None),
    ("io.records_to_dicts", "repro.io", "records_to_dicts", None),
    ("session", "repro.session", "Session.execute", None),
    ("orchestrator.config_digest", "repro.orchestrator.cache",
     "config_digest", None),
    ("orchestrator.cache_get", "repro.orchestrator.cache", "ResultCache.get",
     "cache_get"),
    ("orchestrator.cache_put", "repro.orchestrator.cache", "ResultCache.put",
     None),
    ("orchestrator.ledger_append", "repro.orchestrator.store",
     "RunLedger.append", None),
]

#: Transports whose ``run`` generator is spanned step by step.
TRANSPORT_SPAN = "orchestrator.transport"
TRANSPORTS = ("InlineTransport", "ProcessTransport")

#: Span of an algorithm pipeline from
#: ``repro.analysis.experiments.ALGORITHMS``; its self time is the work
#: outside the traced stages (verification and connectivity checks).
PIPELINE_SPAN = "core.pipeline"
#: Scheduler runs that drive Algorithm DLE are charged to this span instead
#: of ``amoebot.scheduler``.
DLE_SPAN = "core.dle"


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.child_time: List[float] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child_time.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        end = time.perf_counter()
        self.ends[index] = end
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        parent = self.parents[index]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[index]

    def wrap(self, name: Any, function: Callable[..., Any],
             hook: Optional[Hook] = None) -> Callable[..., Any]:
        """``function`` inside a span; ``name`` may be ``f(args) -> str``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(name(args) if callable(name) else name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None:
                hook(tracer, result, args)
            return result

        return traced

    def wrap_steps(self, name: str,
                   function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` returns an iterator; each of its steps runs inside a
        span, and the caller's work between steps stays outside."""
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            steps = iter(function(*args, **kwargs))
            while True:
                index = tracer.begin(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`LAYERS`, the transports and the
        algorithm pipelines."""
        import importlib

        from repro.analysis import experiments
        from repro.core.dle import DLEAlgorithm
        from repro.orchestrator import transport

        def scheduler_span(args: Tuple[Any, ...]) -> str:
            return DLE_SPAN if isinstance(args[1], DLEAlgorithm) \
                else "amoebot.scheduler"

        def scheduler_hook(tracer: Tracer, result: Any,
                           args: Tuple[Any, ...]) -> None:
            counters = tracer.counters
            counters["amoebot.rounds"] += result.rounds
            counters["amoebot.activations"] += result.activations
            counters["amoebot.particle_rounds"] += len(args[2]) * result.rounds
            if isinstance(args[1], DLEAlgorithm):
                counters["core.dle_rounds"] += result.rounds

        hooks: Dict[str, Hook] = dict(_HOOKS, scheduler=scheduler_hook)
        for span, module_name, attribute, hook_name in LAYERS:
            module = importlib.import_module(module_name)
            hook = hooks[hook_name] if hook_name else None
            name: Any = scheduler_span if span == "amoebot.scheduler" else span
            if "." in attribute:
                class_name, method = attribute.split(".")
                self._patch_method(getattr(module, class_name), method,
                                   name, hook)
            else:
                self._patch_function(getattr(module, attribute), name, hook)
        for class_name in TRANSPORTS:
            owner = getattr(transport, class_name)
            original = owner.__dict__["run"]
            owner.run = self.wrap_steps(TRANSPORT_SPAN, original)
            self._undo.append(functools.partial(setattr, owner, "run",
                                                original))
        pipelines = experiments.ALGORITHMS
        originals = dict(pipelines)
        for key, pipeline in originals.items():
            pipelines[key] = self.wrap(PIPELINE_SPAN, pipeline)
        self._undo.append(lambda: pipelines.update(originals))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_function(self, original: Callable[..., Any], name: Any,
                        hook: Optional[Hook]) -> None:
        traced = self.wrap(name, original, hook)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, traced)
                    self._undo.append(functools.partial(
                        setattr, module, attribute, original))

    def _patch_method(self, owner: type, method: str, name: Any,
                      hook: Optional[Hook]) -> None:
        original = owner.__dict__[method]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self.wrap(name, original.__func__, hook))
        else:
            replacement = self.wrap(name, original, hook)
        setattr(owner, method, replacement)
        self._undo.append(functools.partial(setattr, owner, method, original))

    # -- results -------------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            row = table[name]
            row["total"] += duration
            row["self"] += duration - self.child_time[index]
            row["calls"] += 1
        return dict(table)


def _counter_hook(counter: str, field: str) -> Hook:
    def hook(tracer: Tracer, result: Any, args: Tuple[Any, ...]) -> None:
        tracer.counters[counter] += getattr(result, field)
    return hook


def _cache_get_hook(tracer: Tracer, result: Any,
                    args: Tuple[Any, ...]) -> None:
    tracer.counters["orchestrator.cache_gets"] += 1
    if result is not None:
        tracer.counters["orchestrator.cache_hits"] += 1


_HOOKS: Dict[str, Hook] = {
    "metrics": _counter_hook("grid.compute_metrics_points", "n"),
    "obd_rounds": _counter_hook("core.obd_rounds", "rounds"),
    "collect_rounds": _counter_hook("core.collect_rounds", "rounds"),
    "cache_get": _cache_get_hook,
}
