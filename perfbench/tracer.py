"""In-memory span tracer that wraps functions from outside the program.

A traced function is named by its defining module and attribute path
(``riskcbf.field.rasterize``, ``riskcbf.field.FieldGrid.to_csv``). The
tracer replaces every binding through which callers reach it: the
attribute in the defining module or class, and each module that imported
it by name (``riskcbf.cli.rasterize``). Every call records a span (name,
start, end, parent, iteration id). A name that no longer resolves is
reported as absent instead of failing, and ``restore`` puts every
original attribute back.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# Child spans are timed inside their parent with the same clock, so they
# can only exceed it by float rounding of the subtraction.
_EPS = 1e-9


@dataclass
class Spans:
    """Spans of one traced iteration, parallel lists indexed by span id.
    A parent always has a smaller id than its children."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    iteration: int = 0


class Tracer:
    """Wraps ``targets`` (span name -> ``module:attr.path``) at every
    binding inside ``package``'s loaded modules between ``install`` and
    ``restore``; ``hooks`` maps a span name to a callable given each
    call's arguments and result."""

    def __init__(self, targets: dict[str, str], package: str, hooks: dict | None = None):
        self.targets = targets
        self.package = package
        self.hooks = hooks or {}
        self.spans = Spans()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def begin(self, iteration: int) -> None:
        self.spans = Spans(iteration=iteration)
        self._stack.clear()

    def enter(self, name: str) -> int:
        s = self.spans
        idx = len(s.names)
        s.names.append(name)
        s.parents.append(self._stack[-1] if self._stack else -1)
        s.ends.append(0.0)
        self._stack.append(idx)
        s.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.spans.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that resolves; list the others as absent."""
        package = self.package
        self.absent = []
        for span_name, target in self.targets.items():
            module_name, _, attr_path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(span_name)
                continue
            wrapped = self._wrap(span_name, original)
            bindings = [(owner, attr)]
            if not outer:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod is owner:
                        continue
                    if mod_name != package and not mod_name.startswith(package + "."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            bindings.append((mod, key))
            for obj, key in bindings:
                self._restore.append((obj, key, original))
                setattr(obj, key, wrapped)

    def restore(self) -> None:
        """Put back every wrapped attribute; raise if one did not stick."""
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)
            if getattr(obj, key) is not original:
                raise RuntimeError(f"could not restore {obj!r}.{key}")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: Spans) -> tuple[list[float], list[float]]:
    """Per-span durations and self times (duration minus the time its
    direct children cover). Raises ValueError when children sum to more
    than their parent or a span ends before it starts."""
    n = len(spans.names)
    dur = [spans.ends[i] - spans.starts[i] for i in range(n)]
    child_sum = [0.0] * n
    for i in range(n):
        if dur[i] < 0.0:
            raise ValueError(f"span {i} ({spans.names[i]}) ends before it starts")
        p = spans.parents[i]
        if p >= 0:
            child_sum[p] += dur[i]
    selfs = []
    for i in range(n):
        if child_sum[i] > dur[i] + _EPS:
            raise ValueError(
                f"children of span {i} ({spans.names[i]}) cover {child_sum[i]:.9f} s "
                f"of its {dur[i]:.9f} s"
            )
        selfs.append(max(0.0, dur[i] - child_sum[i]))
    return dur, selfs


def aggregate(spans: Spans) -> dict[str, SpanStats]:
    """Calls, total and self time per span name."""
    dur, selfs = self_times(spans)
    stats: dict[str, SpanStats] = {}
    for i, name in enumerate(spans.names):
        st = stats.setdefault(name, SpanStats())
        st.calls += 1
        st.total_s += dur[i]
        st.self_s += selfs[i]
    return stats


def count_under(spans: Spans, ancestor: str) -> dict[str, int]:
    """Calls per span name among the descendants of spans named ``ancestor``."""
    under = [False] * len(spans.names)
    counts: dict[str, int] = {}
    for i, name in enumerate(spans.names):
        p = spans.parents[i]
        under[i] = p >= 0 and (under[p] or spans.names[p] == ancestor)
        if under[i]:
            counts[name] = counts.get(name, 0) + 1
    return counts
