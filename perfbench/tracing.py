"""Span tracing from outside the program, for the traced perfbench run.

:class:`Tracer` wraps the public entry points of each layer (and the
PDT/scoring functions under the names ``repro.core.engine`` and
``repro.core.sharding`` look them up by) with recorders.  Each span is
``(span_id, parent_id, request_id, name, start, end)``; spans stay in
memory until :meth:`Tracer.dump`.  Nothing under ``src/`` changes: the
wrappers are installed by assignment and removed by :meth:`uninstall`.

Parent links follow a ``contextvars`` variable.  Two hand-offs lose it
and are bridged here: thread-pool submissions (the coordinator's
scatter) get the submitting context copied, and the server's request
queue — the engine call runs on a worker that did not admit the
request — is matched back to the admitting ``SearchServer.search``
span by ``(view, keywords)``.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor

#: (owner import path, attribute, span name).  An owner ending in a
#: class name wraps that class's method.  A target that does not
#: resolve fails :meth:`Tracer.install`: when the program renames or
#: stops importing one of these, this table must follow, or the layer's
#: spans (and metrics) would silently vanish.
LAYER_TARGETS = (
    ("repro.serving.http:SearchAPI", "__call__", "http.api"),
    ("repro.serving.server:SearchServer", "search", "server.search"),
    ("repro.core.sharding:CorpusCoordinator", "search_detailed", "coordinator.search"),
    ("repro.core.sharding:ShardExecutor", "collect", "shard.collect"),
    ("repro.core.sharding:ShardExecutor", "rank", "shard.rank"),
    ("repro.core.engine:KeywordSearchEngine", "search_detailed", "engine.search"),
    ("repro.core.engine:KeywordSearchEngine", "collect_view_statistics", "engine.collect"),
    ("repro.core.engine:KeywordSearchEngine", "warm_view", "engine.warm_view"),
    ("repro.core.snapshot:SkeletonStore", "load", "snapshot.load"),
    ("repro.storage.database:XMLDatabase", "insert_subtree", "db.insert_subtree"),
    ("repro.storage.database:XMLDatabase", "delete_subtree", "db.delete_subtree"),
    ("repro.xquery.evaluator:Evaluator", "evaluate", "xquery.evaluate"),
    ("repro.core.engine", "prepare_path_lists", "pdt.prepare_path_lists"),
    ("repro.core.engine", "prepare_inv_lists", "pdt.prepare_inv_lists"),
    ("repro.core.engine", "build_skeleton", "pdt.build_skeleton"),
    ("repro.core.engine", "compress_skeleton", "pdt.compress_skeleton"),
    ("repro.core.engine", "annotate_skeleton", "pdt.annotate_skeleton"),
    ("repro.core.engine", "patch_skeleton_byte_lengths", "pdt.patch_byte_lengths"),
    ("repro.core.engine", "collect_statistics", "scoring.collect_statistics"),
    ("repro.core.engine", "containing_counts", "scoring.containing_counts"),
    ("repro.core.engine", "apply_scores", "scoring.apply_scores"),
    ("repro.core.engine", "filter_matching", "scoring.filter_matching"),
    ("repro.core.sharding", "apply_scores", "scoring.apply_scores"),
    ("repro.core.sharding", "filter_matching", "scoring.filter_matching"),
)

#: Engine entry points a server worker thread reaches without the
#: admitting request's context (see the module docstring).
_HANDOFF_SPANS = {"engine.search", "coordinator.search"}


def resolve(owner_path: str):
    """The module or class an ``LAYER_TARGETS`` owner names."""
    module_name, _, class_name = owner_path.partition(":")
    module = __import__(module_name, fromlist=["_"])
    return getattr(module, class_name) if class_name else module


class UnresolvedTarget(RuntimeError):
    """A ``LAYER_TARGETS`` entry names nothing in the program."""


class Tracer:
    """In-memory span recorder over monkey-patched layer entry points."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._suppressed: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_suppressed", default=False
        )
        self._pending: dict[tuple, deque] = defaultdict(deque)
        self._pending_lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, parent):
        span_id = next(self._ids)
        request_id = parent[1] if parent is not None else span_id
        return span_id, request_id, self._current.set((span_id, request_id, name))

    def _close(self, name, parent, span_id, request_id, token, start):
        end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(
            (span_id, parent[0] if parent else 0, request_id, name, start, end)
        )

    def _parent(self, name: str, args, kwargs):
        parent = self._current.get()
        if parent is None and name in _HANDOFF_SPANS:
            parent = self._claim(_request_key(args, kwargs))
        return parent

    def span(self, name: str):
        """Context manager for a span the benchmark itself opens (the
        edit-mix operation roots)."""
        return _Span(self, name)

    def suppressed(self):
        """Context manager: calls inside record no spans (the reference
        engine's checks in edit-mix)."""
        return _Suppress(self)

    # -- server queue hand-off -----------------------------------------------

    def _offer(self, key, context) -> None:
        with self._pending_lock:
            self._pending[key].append(context)

    def _withdraw(self, key, context) -> None:
        with self._pending_lock:
            queue = self._pending.get(key)
            if queue and context in queue:
                queue.remove(context)

    def _claim(self, key):
        with self._pending_lock:
            queue = self._pending.get(key)
            return queue.popleft() if queue else None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, is_method: bool):
        tracer = self
        skip_nested = name == "xquery.evaluate"
        offers = name == "server.search"

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if tracer._suppressed.get():
                    return await fn(*args, **kwargs)
                parent = tracer._current.get()
                span_id, request_id, token = tracer._open(name, parent)
                start = time.perf_counter()
                key = _request_key(args[1:], kwargs) if offers else None
                if offers:
                    tracer._offer(key, (span_id, request_id, name))
                try:
                    return await fn(*args, **kwargs)
                finally:
                    if offers:
                        tracer._withdraw(key, (span_id, request_id, name))
                    tracer._close(name, parent, span_id, request_id, token, start)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._suppressed.get():
                return fn(*args, **kwargs)
            parent = tracer._parent(name, args[1:] if is_method else args, kwargs)
            if skip_nested and parent is not None and parent[2] == name:
                return fn(*args, **kwargs)
            span_id, request_id, token = tracer._open(name, parent)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, parent, span_id, request_id, token, start)

        return wrapper

    def install(self, targets=LAYER_TARGETS) -> None:
        """Wrap every target and propagate contexts into thread pools;
        :class:`UnresolvedTarget` (and nothing wrapped) when a target
        does not resolve."""
        resolved = []
        for owner_path, attribute, name in targets:
            try:
                owner = resolve(owner_path)
            except (ImportError, AttributeError) as error:
                raise UnresolvedTarget(f"{owner_path}: {error}") from error
            original = owner.__dict__.get(attribute)
            if original is None or not callable(original):
                raise UnresolvedTarget(f"{owner_path} has no callable {attribute!r}")
            resolved.append((owner, attribute, original, name))
        for owner, attribute, original, name in resolved:
            wrapped = self._wrap(original, name, isinstance(owner, type))
            setattr(owner, attribute, wrapped)
            self._patches.append((owner, attribute, original))
        original_submit = ThreadPoolExecutor.__dict__["submit"]

        def submit(pool, fn, /, *args, **kwargs):
            return original_submit(
                pool, contextvars.copy_context().run, fn, *args, **kwargs
            )

        ThreadPoolExecutor.submit = submit
        self._patches.append((ThreadPoolExecutor, "submit", original_submit))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def dump(self, path) -> int:
        """Write the spans as JSON lines; returns how many."""
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        return len(spans)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer._current.get()
        self.span_id, self.request_id, self.token = tracer._open(self.name, self.parent)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.tracer._close(
            self.name, self.parent, self.span_id, self.request_id,
            self.token, self.start,
        )


class _Suppress:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        self.token = self.tracer._suppressed.set(True)

    def __exit__(self, *exc_info):
        self.tracer._suppressed.reset(self.token)


def _request_key(args, kwargs) -> tuple:
    """``(view name, keywords)`` of a search call's arguments."""
    view = args[0] if args else kwargs.get("view")
    keywords = args[1] if len(args) > 1 else kwargs.get("keywords", ())
    name = view if isinstance(view, str) else getattr(view, "name", None)
    return name, tuple(keywords)


# -- reading spans back ------------------------------------------------------


def load_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span; concurrent children count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, parent_id, _, _, start, end in spans:
        if parent_id:
            children[parent_id].append((start, end))
    out: dict[int, float] = {}
    for span_id, _, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out[span_id] = (end - start) - covered
    return out
