"""Spans recorded from outside the program, and the self times they imply.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` by a wrapper
that records one span per call: its name, start, end, parent span and,
optionally, a summary of the call's result.  Wrapping happens in the
namespace the caller looks the function up in (``rtdispatch.simulator.
solve_lp`` is a different wrapper from ``rtdispatch.benders.solve_lp``),
so the same function is told apart by who called it.  ``restore()``
puts every original back.

Spans are nested per thread.  A span opened on a worker thread whose own
stack is empty takes the main thread's innermost open span as its parent:
the main thread submitted the work and waits on it.

``self_times`` gives each span the wall time during which it was the
innermost open span.  When spans on two threads are innermost at the
same instant, that instant is split evenly between them, so the self
times of all spans add up to the wall time the top-level spans cover.
With one thread this is the plain "duration minus the time the children
cover".
"""

from __future__ import annotations

import functools
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, summarize=None):
        """Record a span around every call of ``owner.attr``.

        ``summarize(args, kwargs, result)`` may return a value kept on the
        span as ``info`` (counts the caller wants, such as pivots)."""
        orig = getattr(owner, attr)
        clock = time.perf_counter
        spans = self.spans
        main_stack = self._main_stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = Span(name, clock(), parent)
            spans.append(span)
            stack.append(span)
            try:
                result = orig(*args, **kwargs)
                if summarize is not None:
                    span.info = summarize(args, kwargs, result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def _merged(intervals):
    """Disjoint, sorted union of (start, end) intervals."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1][1] = b
        else:
            out.append([a, b])
    return out


def self_times(spans):
    """Map span -> seconds during which it was an innermost open span."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    # the parts of each span that no child covers
    pieces = []
    for s in spans:
        cursor = s.start
        for a, b in _merged(children.get(id(s), ())):
            if a > cursor:
                pieces.append((cursor, a, s))
            cursor = max(cursor, b)
        if s.end > cursor:
            pieces.append((cursor, s.end, s))
    # sweep: split every instant evenly among the pieces open at it
    events = sorted(
        [(a, 1, i) for i, (a, _b, _s) in enumerate(pieces)]
        + [(b, -1, i) for i, (_a, b, _s) in enumerate(pieces)],
        key=lambda e: (e[0], e[1]),
    )
    share = [0.0] * len(pieces)
    open_ = set()
    last = None
    for t, kind, i in events:
        if open_ and t > last:
            part = (t - last) / len(open_)
            for j in open_:
                share[j] += part
        last = t
        if kind == 1:
            open_.add(i)
        else:
            open_.discard(i)
    out = {id(s): 0.0 for s in spans}
    for (_a, _b, s), v in zip(pieces, share):
        out[id(s)] += v
    return out


def inclusive_times(spans, own):
    """Map span -> its self time plus the self times of its descendants."""
    incl = dict(own)
    for s in reversed(spans):  # a child is always recorded after its parent
        if s.parent is not None:
            incl[id(s.parent)] += incl[id(s)]
    return incl
