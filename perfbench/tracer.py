"""Benchmark-side tracing: timing spans around each layer's public calls.

Nothing under ``src/`` knows about these spans.  :func:`install` rebinds
public functions and methods of the ``repro`` packages to thin wrappers
that open a span, call through, and close it.  Each span records its
name, start, end and parent; a layer's *self* time is its span's
duration minus the time its child spans cover.

Spans stay in memory and :meth:`Tracer.dump` writes them out when the
run ends.  Engine workers are forked from the benchmark process, so
they inherit the wrappers; a worker cannot hand its span list back, so
it folds self times and counts into ``perfbench_*`` counters of the
program's own metrics registry instead, which every worker already ships
to its parent over the result pipe.  :meth:`Tracer.absorb_workers` reads
them back out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

_SELF = "perfbench_self_seconds_total"
_TOTAL = "perfbench_seconds_total"
_CALLS = "perfbench_calls_total"
_COUNT = "perfbench_count_total"


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self):
        self.pid = os.getpid()
        self.enabled = False
        #: (id, parent id, name, thread id, start, end) per finished span
        self.spans: list = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        #: the same tables for spans closed in forked worker processes
        self.worker_self_s = defaultdict(float)
        self.worker_total_s = defaultdict(float)
        self.worker_calls = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        """Open a span; returns the frame :meth:`exit` closes."""
        stack = self._stack()
        parent = stack[-1][4] if stack else None
        frame = [name, time.perf_counter(), 0.0, parent, next(self._ids)]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close ``frame``; charge its duration to the enclosing span."""
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        name, start, child, parent, ident = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self_time = duration - child
        if os.getpid() != self.pid:
            self._worker_record(name, duration, self_time)
            return
        with self._lock:
            self.self_s[name] += self_time
            self.total_s[name] += duration
            self.calls[name] += 1
            self.spans.append(
                (ident, parent, name, threading.get_ident(), start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`enter`/:meth:`exit`."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a named count at the boundary where the work happens."""
        if os.getpid() != self.pid:
            from repro.obs import runtime as obs

            if obs.is_enabled():
                obs.counter_add(_COUNT, amount, key=key)
            return
        with self._lock:
            self.counts[key] += amount

    @staticmethod
    def _worker_record(name: str, duration: float, self_time: float) -> None:
        from repro.obs import runtime as obs

        if not obs.is_enabled():
            return
        obs.counter_add(_SELF, self_time, layer=name)
        obs.counter_add(_TOTAL, duration, layer=name)
        obs.counter_add(_CALLS, 1, layer=name)

    def absorb_workers(self, registry) -> None:
        """Fold the worker-side ``perfbench_*`` counters into this tracer."""
        targets = {
            _SELF: (self.worker_self_s, "layer"),
            _TOTAL: (self.worker_total_s, "layer"),
            _CALLS: (self.worker_calls, "layer"),
            _COUNT: (self.counts, "key"),
        }
        for name, _kind, _help, instruments in registry.families():
            if name not in targets:
                continue
            table, label = targets[name]
            for inst in instruments:
                table[inst.labels[label]] += inst.value

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        with self._lock:
            self.spans.clear()
            for table in (self.self_s, self.total_s, self.calls, self.counts,
                          self.worker_self_s, self.worker_total_s,
                          self.worker_calls):
                table.clear()

    def dump(self, path) -> None:
        """Write every kept span as one JSON line."""
        with open(path, "w") as handle:
            for ident, parent, name, thread, start, end in self.spans:
                handle.write(json.dumps({
                    "id": ident, "parent": parent, "name": name,
                    "thread": thread, "start": start, "end": end,
                }) + "\n")

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name: str, pre=None, post=None):
        """``fn`` timed as span ``name``.

        ``pre(args, kwargs)`` runs before the span opens and ``post(args,
        kwargs, result)`` after it closes, both only while tracing.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args, kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, pre=None, post=None):
        """Rebind ``module.attr`` and every alias of it in ``repro`` modules.

        Callers that did ``from module import attr`` hold their own
        reference, so every loaded ``repro.*`` module attribute, and every
        value of a module-level dict (e.g. the heuristic registry), that
        *is* the original function is rebound too.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, pre, post)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    self._set(space, key, wrapper)
                elif isinstance(value, dict) and key.isupper():
                    for sub, entry in list(value.items()):
                        if entry is original:
                            self._set(value, sub, wrapper)
        return wrapper

    def patch_method(self, cls, attr: str, name: str, pre=None, post=None):
        """Rebind ``cls.attr`` (subclasses inherit the wrapper)."""
        original = cls.__dict__[attr]
        self._undo.append((lambda: setattr(cls, attr, original)))
        setattr(cls, attr, self.wrap(original, name, pre, post))

    def patch_generator_method(self, cls, attr: str, name: str, post=None):
        """Time every ``next()`` of the iterator ``cls.attr`` returns."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            if not tracer.enabled:
                return inner
            return tracer._timed_iter(inner, name, post)

        self._undo.append((lambda: setattr(cls, attr, original)))
        setattr(cls, attr, wrapper)

    def _timed_iter(self, inner, name, post):
        while True:
            frame = self.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                self.exit(frame)
                return
            except BaseException:
                self.exit(frame)
                raise
            self.exit(frame)
            if post is not None:
                post(item)
            yield item

    def _set(self, space: dict, key, value) -> None:
        old = space[key]
        self._undo.append(lambda: space.__setitem__(key, old))
        space[key] = value

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        self.enabled = False
        while self._undo:
            self._undo.pop()()


# -- the layer map -------------------------------------------------------------

#: span name -> layer; spans not listed are their own layer
LAYER_OF = {
    "frontend.parse": "frontend",
    "frontend.lower": "frontend",
    "padding.pad": "padding",
    "padding.padlite": "padding",
    "guard.check": "guard",
    "guard.sanitize": "guard",
    "cache.dm": "cache",
    "cache.sa": "cache",
    "store.put": "store",
    "store.get": "store",
}

#: spans that only give structure (roots and glue), never a layer's work
STRUCTURAL = ("pass", "runner.run", "engine.run_many", "serve.submit",
              "serve.dispatch")


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points; returns ``tracer``."""
    from repro.analysis import predict as predict_mod
    from repro.bench.suites import KernelSpec
    from repro.cache.fastsim import FastDirectMapped, FastSetAssociative
    from repro.engine.core import ExperimentEngine
    from repro.engine.store import CrashSafeStore
    from repro.experiments.runner import Runner
    from repro.frontend import lower as lower_mod
    from repro.frontend import parser as parser_mod
    from repro.guard import core as guard_core
    from repro.guard import sanitizer as sanitizer_mod
    from repro.lint import engine as lint_engine
    from repro.optimize import search as search_mod
    from repro.padding import drivers
    from repro.serve.batching import AnalysisService
    from repro.trace.interpreter import TraceInterpreter

    count = tracer.count

    def chunk_accesses(args, kwargs, result):
        count("cache.accesses", len(result))

    def sa_accesses(args, kwargs, result):
        count("cache.accesses", len(result))
        count("cache.sa_accesses", len(result))

    def predicted(args, kwargs, outcome):
        count("predict.requests")
        if outcome.analyzable:
            pred = outcome.prediction
            count("predict.analyzed")
            count("predict.accesses", pred.stats.accesses)
            count("predict.replayed", pred.replayed_accesses)
        else:
            count("predict.bailouts")

    def memo_looked_up(args, kwargs, stats):
        count("memo.lookups")
        if stats is not None:
            count("memo.hits")
            count(f"memo.hits.{args[0].last_tier}")

    def optimized(args, kwargs, result):
        count("optimize.runs")
        count("optimize.candidates", result.scored)
        count("optimize.scored_predict", result.scored_predict)

    def batch_opened(args, kwargs):
        now = time.monotonic()
        for job in args[1]:
            count("serve.batch_jobs")
            count("serve.batch_wait_s", now - job.enqueued_at)

    def addresses(chunk):
        count("addrgen.accesses", len(chunk[0]))

    tracer.patch_method(FastDirectMapped, "access_chunk", "cache.dm",
                        post=chunk_accesses)
    tracer.patch_method(FastSetAssociative, "access_chunk", "cache.sa",
                        post=sa_accesses)
    tracer.patch_generator_method(TraceInterpreter, "trace", "addrgen",
                                  post=addresses)
    tracer.patch_function(drivers, "pad", "padding.pad")
    tracer.patch_function(drivers, "padlite", "padding.padlite")
    tracer.patch_function(guard_core, "check_transform", "guard.check")
    tracer.patch_function(sanitizer_mod, "sanitize", "guard.sanitize")
    tracer.patch_function(predict_mod, "predict_misses", "predict",
                          post=predicted)
    tracer.patch_function(parser_mod, "parse_source", "frontend.parse")
    tracer.patch_function(lower_mod, "lower_ast", "frontend.lower")
    tracer.patch_function(lint_engine, "lint_program", "lint")
    tracer.patch_function(search_mod, "optimize_layout", "optimize",
                          post=optimized)
    tracer.patch_method(KernelSpec, "build", "kernel.build")
    tracer.patch_method(Runner, "run", "runner.run")
    tracer.patch_method(Runner, "memo_lookup", "memo.lookup",
                        post=memo_looked_up)
    tracer.patch_method(ExperimentEngine, "run_many", "engine.run_many")
    tracer.patch_method(CrashSafeStore, "put", "store.put")
    tracer.patch_method(CrashSafeStore, "get", "store.get")
    tracer.patch_method(AnalysisService, "submit", "serve.submit")
    tracer.patch_method(AnalysisService, "_dispatch_batch", "serve.dispatch",
                        pre=batch_opened)
    return tracer
