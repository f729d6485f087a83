"""Outside-in tracer for the voimc package.

The tracer wraps the public functions and methods of each voimc module from
outside the package: it rebinds every module-level name that refers to a
wrapped function, so the names that ``mlmc``, ``diagnostics`` and ``cli``
bind at import time are traced too, and it swaps the thread-pool class the
block runner uses for one that records a span per worker block and a span
for each wait of the calling thread. Nothing inside ``src/`` changes.

Spans (name, start, end, parent, thread) are kept in memory on per-thread
stacks and written out once by :meth:`Tracer.write`. A span's self time is
its duration minus the durations of its children on the same thread; a
worker block's parent is the span that submitted it, but it runs on another
thread, so it is not subtracted from that parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

LAYERS = ("streams", "models", "estimators", "moments", "mlmc", "diagnostics", "cli")

# Deepest level that gets its own throughput metric; the workloads stop at 12.
MAX_REPORTED_LEVEL = 12


class Span:
    __slots__ = ("sid", "parent", "name", "thread", "start", "end", "count", "level", "extra")

    def __init__(self, sid, parent, name, thread, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.count = 0
        self.level = None
        self.extra = None

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "count": self.count,
            "level": self.level,
        }


def _kernel_work(span, a, result) -> None:
    span.level = int(a["level"])
    span.count = int(a["n"]) << span.level


def _bytes_written(span, a, result) -> None:
    span.count = Path(a["path"]).stat().st_size


# Work counts recorded at the boundary of a call. The hot stream and model
# calls read the result's shape; the rest read their bound arguments.
_RESULT_COUNTS = {
    "streams.uniforms": lambda r: r.size,
    "streams.normals": lambda r: r.size,
    "models.sample_outer": lambda r: r.shape[0],
    "models.sample_inner": lambda r: r.shape[0] * r.shape[1],
    "models.payoffs": lambda r: r.size,
}
_ARGUMENT_HOOKS = {
    "estimators.accumulate_level": _kernel_work,
    "estimators.accumulate_p_level": _kernel_work,
    "estimators.evpi_mc": lambda span, a, r: setattr(span, "count", int(a["n"])),
    "moments.add_block": lambda span, a, r: setattr(span, "count", int(np.size(a["values"]))),
    "cli.write_json": _bytes_written,
    "cli.write_csv": _bytes_written,
    "mlmc.mlmc_run": lambda span, a, r: setattr(span, "extra", (r, a["config"])),
}


class Tracer:
    """Records spans around voimc's public callables while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, name: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), parent, name, threading.get_ident(), time.perf_counter())
        stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        # list.append and next() on itertools.count are atomic under the
        # interpreter lock, so worker threads may record concurrently.
        self.spans.append(span)

    def wrap(self, name: str, fn, parent: int | None = None):
        """``fn`` wrapped so that each call records one span called ``name``."""
        result_count = _RESULT_COUNTS.get(name)
        arg_hook = _ARGUMENT_HOOKS.get(name)
        signature = inspect.signature(fn) if arg_hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if result_count is not None:
                span.count = int(result_count(result))
            elif arg_hook is not None:
                arg_hook(span, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _waits(self, results):
        """Iterate ``results`` recording the caller's time blocked in each next()."""
        iterator = iter(results)
        while True:
            span = self._open("estimators.wait")
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(span)
            yield item

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public callable of the voimc layers, in every namespace
        that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"voimc.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("voimc"), *modules.values()]
        originals: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    originals[id(value)] = self.wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(value, meth, self.wrap(f"{layer}.{meth}", fn))
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    self._patch(namespace, attr, wrapped)
        self._patch(modules["estimators"], "ThreadPoolExecutor", self._executor_class())

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                block = tracer.wrap("estimators.block", fn, parent=tracer.current())
                return tracer._waits(super().map(block, *iterables, **kwargs))

        return TracedExecutor

    # -- output ---------------------------------------------------------

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([s.as_dict() for s in self.spans]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of same-thread children."""
    by_id = {s.sid: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            covered[parent.sid] += s.end - s.start
    return {s.sid: (s.end - s.start) - covered[s.sid] for s in spans}


def layer_metrics(spans: list[Span], wall_s: float, main_thread: int) -> dict[str, float]:
    """Per-layer metrics of one traced command, by the names BENCHMARK.json lists.

    ``wall_s`` is the command's wall time measured around the traced call on
    ``main_thread``; trace.coverage is the main thread's summed self time
    over it.
    """
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    dur_s: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    level_count: dict[int, int] = defaultdict(int)
    level_s: dict[int, float] = defaultdict(float)
    main_self = 0.0
    runs = []
    for s in spans:
        self_s[s.name] += own[s.sid]
        dur_s[s.name] += s.end - s.start
        count[s.name] += s.count
        calls[s.name] += 1
        if s.thread == main_thread:
            main_self += own[s.sid]
        if s.level is not None:
            level_count[s.level] += s.count
            level_s[s.level] += s.end - s.start
        if s.extra is not None:
            runs.append(s.extra)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    estimator_self = sum(
        v for k, v in self_s.items() if k.startswith("estimators.") and k != "estimators.wait"
    )
    metrics = {
        "streams.uniforms_s": self_s["streams.uniforms"],
        "streams.normals_s": self_s["streams.normals"],
        "streams.variates": count["streams.uniforms"],
        "streams.normals_per_s": ratio(count["streams.normals"], dur_s["streams.normals"]),
        "models.sample_outer_s": self_s["models.sample_outer"],
        "models.sample_inner_s": self_s["models.sample_inner"],
        "models.payoffs_s": self_s["models.payoffs"],
        "models.payoff_values": count["models.payoffs"],
        "models.payoff_values_per_s": ratio(count["models.payoffs"], self_s["models.payoffs"]),
        "estimators.block_self_s": estimator_self,
        "estimators.blocks": calls["models.sample_outer"],
        "estimators.outer_per_block": ratio(
            count["models.sample_outer"], calls["models.sample_outer"]
        ),
        "estimators.inner_samples": count["models.sample_inner"],
    }
    for level in range(MAX_REPORTED_LEVEL + 1):
        metrics[f"estimators.level_{level}.inner_samples_per_s"] = ratio(
            level_count[level], level_s[level]
        )
    metrics.update(
        {
            "estimators.caller_wait_s": dur_s["estimators.wait"],
            "estimators.evpi_mc_s": dur_s["estimators.evpi_mc"],
            "moments.add_block_s": dur_s["moments.add_block"],
            "moments.values": count["moments.add_block"],
        }
    )
    metrics.update(_driver_metrics(runs))
    metrics["mlmc.control_self_s"] = sum(
        v for k, v in self_s.items() if k.startswith("mlmc.")
    )
    metrics.update(
        {
            "diagnostics.fit_rates_s": dur_s["diagnostics.fit_rates"],
            "diagnostics.fit_rates_calls": calls["diagnostics.fit_rates"],
            "cli.write_s": dur_s["cli.write_json"] + dur_s["cli.write_csv"],
            "cli.output_bytes": count["cli.write_json"] + count["cli.write_csv"],
            "trace.coverage": ratio(main_self, wall_s),
        }
    )
    return metrics


def _driver_metrics(runs) -> dict[str, float]:
    """Control-loop counts of the adaptive driver runs; zeros when none ran."""
    passes = top_ups = extends = max_level = 0
    floor_cost = total_cost = 0
    for result, config in runs:
        actions = [record["action"] for record in result.history]
        passes += len(actions)
        top_ups += actions.count("top_up")
        extends += actions.count("extend")
        max_level = max(max_level, result.max_level_used)
        total_cost += result.total_cost
        floor_cost += sum(
            s.cost_per_sample * s.n for s in result.level_stats if s.n == config.warmup_samples
        )
    return {
        "mlmc.passes": passes,
        "mlmc.top_up_passes": top_ups,
        "mlmc.extend_passes": extends,
        "mlmc.max_level": max_level,
        "mlmc.floor_cost_share": floor_cost / total_cost if total_cost else 0.0,
    }
