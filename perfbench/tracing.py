"""In-memory span tracer that instruments the library from outside.

The benchmark measures the library without editing it: :func:`instrument`
wraps each layer's public entry points at every name callers look them
up by (module attributes holding the function, or the method on its
class), records one span per call, and :func:`uninstrument` restores the
originals.  Spans stay in memory and are written once, at the end.

A span is ``[id, parent, name, thread, start, end, rid]``.  Parents
nest per thread.  A worker-thread span opened with an empty stack is
adopted by the span registered with :meth:`Tracer.adopting` — the
client-side ``solve`` call blocked on that work — so closed-loop
request time splits into kernel time and hand-off time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Collects spans; :meth:`span` is a no-op while ``enabled`` is off."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopt: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt
        rid = getattr(self._local, "rid", None)
        if rid is None and parent is not None:
            rid = parent[6]
        record = [next(self._ids), parent[0] if parent else None, name,
                  threading.get_ident(), _clock(), 0.0, rid]
        stack.append(record)
        try:
            yield record
        finally:
            record[5] = _clock()
            stack.pop()
            self.spans.append(record)

    def set_rid(self, rid: object) -> None:
        """Tag this thread's next spans with request id ``rid``."""
        self._local.rid = rid

    @contextmanager
    def adopting(self, record):
        """Make ``record`` the parent of root spans on other threads."""
        previous, self._adopt = self._adopt, record
        try:
            yield
        finally:
            self._adopt = previous


#: (span name, module, attribute) of each traced entry point.  A dotted
#: attribute names a method; a plain one names a module-level function,
#: which is replaced under every ``repro`` module attribute bound to it.
ENTRY_POINTS = (
    ("graph.dag", "repro.graph.dag", "DAG.from_lower_triangular"),
    ("graph.levels", "repro.graph.wavefront", "wavefront_levels"),
    ("graph.transitive", "repro.graph.transitive",
     "approximate_transitive_reduction"),
    ("graph.coarsen", "repro.graph.coarsen.funnel", "in_funnel_partition"),
    ("graph.coarsen", "repro.graph.coarsen.quotient", "coarsen"),
    ("graph.coarsen", "repro.graph.coarsen.pullback", "pull_back_schedule"),
    ("scheduler.growlocal", "repro.scheduler.growlocal",
     "GrowLocalScheduler.schedule"),
    ("scheduler.wavefront", "repro.scheduler.wavefront_sched",
     "WavefrontScheduler.schedule"),
    ("scheduler.hdagg", "repro.scheduler.hdagg", "HDaggScheduler.schedule"),
    ("scheduler.funnel-gl", "repro.scheduler.funnel_gl",
     "FunnelGrowLocalScheduler.schedule"),
    ("scheduler.serial", "repro.scheduler.serial",
     "SerialScheduler.schedule"),
    ("tuner.features", "repro.tuner.features", "extract_features"),
    ("tuner.prior", "repro.tuner.auto", "Autotuner.rank_prior"),
    ("tuner.tune", "repro.tuner.auto", "Autotuner.tune"),
    ("machine.simulate", "repro.machine.bsp_sim", "simulate_bsp"),
    ("machine.simulate", "repro.machine.async_sim", "simulate_async"),
    ("machine.simulate", "repro.machine.serial_sim", "simulate_serial"),
    ("exec.compile", "repro.exec.plan", "compile_plan"),
    ("exec.plan_cache", "repro.exec.plan_cache", "PlanCache.get_or_build"),
    ("exec.solve", "repro.exec.backends", "NumpyBackend.solve"),
    ("exec.solve_block", "repro.exec.backends", "NumpyBackend.solve_block"),
    ("analysis.verify", "repro.analysis.verify", "check_plan"),
    ("store.save", "repro.store.plan_store", "PlanStore.put"),
    ("store.save", "repro.store.plan_store", "PlanStore.save"),
    ("store.load", "repro.store.plan_store", "PlanStore.get"),
    ("store.load", "repro.store.plan_store", "PlanStore.load"),
    ("service.register", "repro.service.service", "SolveService.register"),
    ("service.register", "repro.service.gateway",
     "ServingGateway.register"),
    ("service.submit", "repro.service.service", "SolveService.submit_many"),
    ("service.solve", "repro.service.service", "SolveService.solve"),
    ("service.solve", "repro.service.gateway", "ServingGateway.solve"),
)

#: Blocking client calls whose worker-side spans they adopt.
_ADOPTING = {"service.solve"}


def _wrap(tracer: Tracer, name: str, fn):
    if name in _ADOPTING:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                if record is None:
                    return fn(*args, **kwargs)
                with tracer.adopting(record):
                    return fn(*args, **kwargs)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
    return traced


def instrument(tracer: Tracer, backend_cls=None) -> list:
    """Wrap every entry point; returns the undo list for
    :func:`uninstrument`.  ``backend_cls`` replaces ``NumpyBackend`` as
    the owner of the traced kernels when another backend serves."""
    undo = []
    for name, module_name, attr in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            if cls_name == "NumpyBackend" and backend_cls is not None:
                owner = backend_cls
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                patched = _wrap(tracer, name, raw)
            undo.append((owner, method, raw))
            setattr(owner, method, patched)
            continue
        original = getattr(module, attr)
        patched = _wrap(tracer, name, original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, patched)
    return undo


def uninstrument(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its children."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None and s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def descendants(spans: list[list], roots: set[int]) -> list[list]:
    """Spans under (and including) the span ids in ``roots``."""
    children: dict[int, list[list]] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out, frontier = [], [s for s in spans if s[0] in roots]
    while frontier:
        span = frontier.pop()
        out.append(span)
        frontier.extend(children.get(span[0], ()))
    return out
