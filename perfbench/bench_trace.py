"""Per-layer spans recorded from the benchmark's side of the API.

The traced run wraps each layer's entry point where the program looks it
up: methods on their class (every instance sees the wrapper), and
functions imported by name on the module that imports them.  A span keeps
its name, start, end, thread and the name of its parent span on the same
thread; a layer's self time is its span minus the child spans nested in it.
Spans stay in memory and are aggregated once the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: A recorded span: (name, start, end, thread id, self seconds, parent name, count).
Span = Tuple[str, float, float, int, float, Optional[str], int]


class SpanRecorder:
    """Installs wrappers around layer entry points and keeps their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name, prepare) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            count = 0
            if prepare is not None:
                args, kwargs, count = prepare(args, kwargs)
            label = name(args) if callable(name) else name
            stack = recorder._stack()
            frame = [label, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                recorder.spans.append(
                    (
                        label,
                        start,
                        end,
                        threading.get_ident(),
                        duration - frame[1],
                        parent[0] if parent is not None else None,
                        count,
                    )
                )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap(self, owner: object, attr: str, name, prepare=None) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) by a span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, prepare))
        else:
            replacement = self._wrap(original, name, prepare)
        setattr(owner, attr, replacement)

    # -- aggregation -----------------------------------------------------------

    def window(self, start: float, end: float) -> List[Span]:
        """Spans that started inside ``[start, end]``."""
        return [span for span in self.spans if start <= span[1] <= end]

    @staticmethod
    def coverage(spans: List[Span], start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by at least one span, any thread."""
        intervals = sorted((max(s[1], start), min(s[2], end)) for s in spans)
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            if hi <= cursor:
                continue
            covered += hi - max(lo, cursor)
            cursor = hi
        return covered / (end - start) if end > start else 0.0

    @staticmethod
    def totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and the sum of the span counts."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "count": 0}
        )
        for name, _start, _end, _thread, self_s, _parent, count in spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["count"] += count
        return out


def _run_batch_prepare(args, kwargs):
    """Count a run_batch call's pairs, materialising a one-shot iterable."""
    if len(args) > 1:
        pairs = args[1]
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
            args = (args[0], pairs) + tuple(args[2:])
        return args, kwargs, len(pairs)
    pairs = kwargs.get("pairs", ())
    if not isinstance(pairs, (list, tuple)):
        kwargs = dict(kwargs, pairs=list(pairs))
        pairs = kwargs["pairs"]
    return args, kwargs, len(pairs)


def _kernel_prepare(args, kwargs):
    sources = args[2] if len(args) > 2 else kwargs["sources"]
    return args, kwargs, len(sources)


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.core.executors as executors
    import repro.core.topk_index as topk_index
    import repro.service.runner as runner
    from repro.core.kernels import resolve_kernel
    from repro.graph.csr import CSRGraph
    from repro.service.epoch import EpochManager
    from repro.service.sharding import ShardedWalkSampler
    from repro.service.tenancy import GraphTenant

    wrap = recorder.wrap
    wrap(CSRGraph, "from_uncertain", "csr.freeze")
    wrap(CSRGraph, "from_uncertain_incremental", "csr.patch")
    wrap(GraphTenant, "apply", "tenancy.apply")
    wrap(EpochManager, "publish", "epoch.publish")
    wrap(EpochManager, "pin", "epoch.pin")
    wrap(type(resolve_kernel(None)), "sample", "kernels.sample", _kernel_prepare)
    wrap(ShardedWalkSampler, "sample_bundles_mixed", "sharding.sample")
    wrap(
        executors.MethodExecutor,
        "run_batch",
        lambda args: f"executors.run_batch.{args[0].method}",
        _run_batch_prepare,
    )
    wrap(executors, "meeting_probabilities_from_matrices", "executors.meeting_tails")
    wrap(executors, "meeting_probabilities_against_many", "executors.meeting_tails")
    wrap(executors, "single_source_transition_probabilities", "transition.prefix")
    wrap(executors.TransitionCache, "get", "transition.cache_get")
    wrap(executors, "propagate_packed_tables", "speedup.propagate")
    wrap(executors, "packed_meeting_probabilities", "speedup.meet")
    wrap(topk_index.TopKIndexStore, "get_or_build", "topk_index.build")
    wrap(topk_index.TopKIndex, "bounds_for_vertex", "topk_index.bound")
    wrap(topk_index.TopKIndex, "bounds_for_pairs", "topk_index.bound")
    wrap(topk_index, "pruned_rank", "topk_index.rank")
    wrap(runner, "_parse_query", "runner.parse")
    wrap(runner, "_render_response", "runner.render")


#: Methods whose executor metrics are reported per method.
METHODS = ("sampling", "two_phase", "speedup")


def span_metrics(recorder: SpanRecorder, start: float, end: float) -> Dict[str, float]:
    """Span-derived per-layer metrics of the window ``[start, end]``.

    Times are the layer's total self time over the window in ms, except
    ``topk_index.rescore_ms``: the inclusive time of the executor batches
    the pruned ranking pushed through exact rescoring.
    """
    spans = recorder.window(start, end)
    totals = recorder.totals(spans)

    def self_ms(name: str) -> float:
        return 1000.0 * totals[name]["self_s"] if name in totals else 0.0

    def calls(name: str) -> int:
        return int(totals[name]["calls"]) if name in totals else 0

    def count(name: str) -> int:
        return int(totals[name]["count"]) if name in totals else 0

    kernel_s = totals["kernels.sample"]["self_s"] if "kernels.sample" in totals else 0.0
    rescore_ms = 1000.0 * sum(
        span[2] - span[1]
        for span in spans
        if span[5] == "topk_index.rank" and span[0].startswith("executors.run_batch.")
    )
    metrics = {
        "csr.freeze_ms": self_ms("csr.freeze"),
        "csr.patch_ms": self_ms("csr.patch"),
        "csr.patch_calls": calls("csr.patch"),
        "tenancy.apply_ms": self_ms("tenancy.apply"),
        "epoch.publish_ms": self_ms("epoch.publish"),
        "epoch.pin_ms": self_ms("epoch.pin"),
        "kernels.sample_ms": self_ms("kernels.sample"),
        "kernels.walks": count("kernels.sample"),
        "kernels.walks_per_s": count("kernels.sample") / kernel_s if kernel_s else 0.0,
        "sharding.sample_ms": self_ms("sharding.sample"),
        "executors.meeting_tails_ms": self_ms("executors.meeting_tails"),
        "transition.prefix_ms": self_ms("transition.prefix"),
        "transition.prefix_calls": calls("transition.prefix"),
        # Every shared-cache miss runs one prefix computation.
        "transition.cache_hit_rate": (
            1.0 - calls("transition.prefix") / calls("transition.cache_get")
            if calls("transition.cache_get")
            else 0.0
        ),
        "speedup.propagate_ms": self_ms("speedup.propagate"),
        "speedup.meet_ms": self_ms("speedup.meet"),
        "topk_index.build_ms": self_ms("topk_index.build"),
        "topk_index.bound_ms": self_ms("topk_index.bound"),
        "topk_index.rescore_ms": rescore_ms,
        "runner.parse_ms": self_ms("runner.parse"),
        "runner.render_ms": self_ms("runner.render"),
        "trace.coverage": recorder.coverage(spans, start, end),
    }
    for method in METHODS:
        name = f"executors.run_batch.{method}"
        metrics[f"executors.run_batch_ms.{method}"] = self_ms(name)
        metrics[f"executors.pairs.{method}"] = count(name)
    return metrics
