"""Span tracer that wraps package functions from outside the package.

A function is wrapped by replacing the module attribute that callers look it
up through.  The package calls its collaborators as module globals
(``kinetic.run`` calls ``strang_step``, ``relaxation_step`` calls
``maxwellians`` imported from ``model``), so every alias of the original in
every loaded ``vbgk`` module is replaced, and put back by ``uninstall``.

Spans (name, start, end, parent, thread id, request id) are kept in memory and
handed out once at the end.  The request id is the epsilon of the sweep member
a span belongs to.  numpy.fft transforms are counted per thread, and each span
records how many ran inside it.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "vbgk"

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    request: float | None
    fft: int = 0
    bytes: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # fft calls per thread; each thread only writes its own key
        self.fft_by_thread: dict[int, int] = {}

    # -- patching -------------------------------------------------------------

    def _owners(self, owner):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        return [owner] + [m for m in mods if m is not owner]

    def _replace(self, owner, attr: str, wrapper, aliases: bool) -> None:
        original = getattr(owner, attr)
        targets = self._owners(owner) if aliases else [owner]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original and (aliases or name == attr):
                    self._patches.append((target, name, value))
                    setattr(target, name, wrapper)

    def wrap(self, owner, attr: str, name: str, request=None, out_path=None) -> None:
        """Trace owner.attr (and its aliases in the package) as span `name`.

        request(*args) gives the span's request id; out_path(*args) names a
        file the call writes, whose size is stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name, request(*args, **kwargs) if request else None)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span)
                if out_path is not None:
                    span.bytes = _size(out_path(*args, **kwargs))

        self._replace(owner, attr, traced, aliases=not isinstance(owner, type))

    def count_fft(self, fft_module) -> None:
        """Count calls to the numpy.fft transforms, per thread and per span."""
        tracer = self
        for attr in FFT_FUNCTIONS:
            original = getattr(fft_module, attr, None)
            if original is None:
                continue

            def counted(*args, _original=original, **kwargs):
                local = tracer._local
                local.fft = getattr(local, "fft", 0) + 1
                tracer.fft_by_thread[threading.get_ident()] = local.fft
                return _original(*args, **kwargs)

            functools.update_wrapper(counted, original)
            self._replace(fft_module, attr, counted, aliases=True)

    def uninstall(self) -> None:
        while self._patches:
            target, name, value = self._patches.pop()
            setattr(target, name, value)

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, request) -> Span:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(id=next(self._ids), name=name, start=0.0, end=0.0,
                    parent=parent.id if parent else None,
                    thread=threading.get_ident(), request=request,
                    fft=getattr(local, "fft", 0))
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        local = self._local
        local.stack.pop()
        span.fft = getattr(local, "fft", 0) - span.fft

    def fft_total(self) -> int:
        return sum(self.fft_by_thread.values())


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children.

    Child intervals are clipped to the parent's interval, and overlapping
    children (from other threads) are counted once.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out
