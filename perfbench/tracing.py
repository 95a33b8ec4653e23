"""In-memory spans recorded around the program's layer boundaries.

The program under test carries no instrumentation of its own, so the
traced run wraps the public functions of each layer from the outside:
:class:`Patches` replaces a function at every attribute its callers look
up at call time (a module that did ``from x import f`` holds its own
reference, so wrapping only the defining module would time nothing) and
puts every original back on :meth:`Patches.restore`.  An untraced run
never constructs either class, so it runs the program's own functions.

Each span records its name, start, end, parent span and op id; spans are
kept in a list and written out once the run ends.  A span's self time is
its duration minus the union of its direct children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Marks a wrapper so a scan can prove none is left installed.
WRAPPER_MARK = "__perfbench_span__"

#: Only modules of the program under test are patched.
PACKAGE = "repro"

Counter = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    thread: int = 0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; nesting is tracked per thread.

    ``root=True`` opens an op: the span gets a fresh op id that every span
    nested under it inherits.  ``detached=True`` records a span that is
    neither nested nor a parent, for coroutines that interleave on one
    thread (their start/end order is not a stack).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_op = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, root: bool = False, detached: bool = False) -> int:
        stack = self._stack()
        parent = None if detached or not stack else stack[-1]
        with self._lock:
            if root:
                op = self._next_op
                self._next_op += 1
            else:
                op = self.spans[parent].op if parent is not None else None
            index = len(self.spans)
            self.spans.append(
                Span(name, self.clock(), parent=parent, op=op,
                     thread=threading.get_ident())
            )
        if not detached:
            stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span

    def wrap(
        self,
        name: str,
        function: Callable,
        count: Optional[Counter] = None,
        root: bool = False,
    ) -> Callable:
        """A span-recording stand-in for ``function`` (sync or async).

        ``count(args, kwargs, result)`` runs after the span closes, so the
        work of counting is not charged to the layer.
        """
        tracer = self
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                index = tracer.begin(name, detached=True)
                try:
                    result = await function(*args, **kwargs)
                finally:
                    tracer.end(index)
                if count is not None:
                    tracer.spans[index].counts.update(count(args, kwargs, result))
                return result

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                index = tracer.begin(name, root=root)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.end(index)
                if count is not None:
                    tracer.spans[index].counts.update(count(args, kwargs, result))
                return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                    "thread": span.thread,
                    "counts": span.counts,
                }) + "\n")


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the union of its children's intervals
    (each clipped to the parent's own interval)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append(span.duration - union_length(clipped))
    return result


def _program_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            yield module


class Patches:
    """Installs wrappers over program attributes and restores them."""

    def __init__(self) -> None:
        self._applied: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._applied.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def function(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap a function at every program module attribute bound to it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(original)
        for owner in _program_modules():
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, key, original, wrapper)

    def attribute(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap one module's binding only (a function as that module calls it)."""
        owner = importlib.import_module(module)
        original = getattr(owner, attr)
        self._set(owner, attr, original, make(original))

    def method(self, module: str, cls: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[attr]
        self._set(owner, attr, original, make(original))

    def restore(self) -> None:
        while self._applied:
            owner, attr, original = self._applied.pop()
            setattr(owner, attr, original)


def _is_wrapper(value) -> bool:
    return isinstance(value, types.FunctionType) and hasattr(value, WRAPPER_MARK)


def installed_wrappers() -> List[str]:
    """Every wrapper currently bound in a program module or class."""
    found = []
    for module in _program_modules():
        for key, value in list(vars(module).items()):
            if _is_wrapper(value):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if _is_wrapper(member):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return sorted(found)
