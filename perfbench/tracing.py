"""Outside-in span tracing: timing wrappers over the program's public calls.

The benchmark does not switch on any tracing inside the program. Instead a
:class:`SpanRecorder` replaces a public function or method *where its caller
looks the name up* (a module attribute, a class attribute or an instance
attribute) with a wrapper that records one span per call: an id, the parent
span, the layer name, a start and an end. Spans live in flat in-memory
arrays while the run goes on and are written out once it has ended.
:meth:`SpanRecorder.remove` puts every original back.

Everything runs in one thread, so a span's parent is simply the innermost
span still open when it starts.
"""

from __future__ import annotations

import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []  # layer names, indexed by name id
        self._name_ids = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = set()  # span ids whose call raised
        #: Per-span payload captured by ``after`` hooks, keyed by span id.
        self.payload = {}
        self._stack = [-1]
        self._patches = []  # (owner, attr, original, owned)
        self.suspended = False

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording ---------------------------------------------------------------
    def _open(self, name_id):
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Open a span around benchmark-side code (the run's root span)."""
        sid = self._open(self._name_id(name))
        try:
            yield sid
        finally:
            self._close(sid)

    @contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (the benchmark's own checks)."""
        self.suspended, before = True, self.suspended
        try:
            yield
        finally:
            self.suspended = before

    # -- wrapping ----------------------------------------------------------------
    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` with a recording wrapper.

        *owner* is a module, a class or an instance. ``after(sid, args,
        kwargs, result)`` runs once the call has returned and its span has
        closed; it stores whatever the layer's derived metrics need in
        :attr:`payload`.
        """
        original = getattr(owner, attr)
        static = inspect.getattr_static(owner, attr)
        owned = attr in vars(owner)
        if isinstance(static, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr!r}: {type(static).__name__}")
        fn = static if inspect.isclass(owner) else original
        name_id = self._name_id(name)
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder.suspended:
                return fn(*args, **kwargs)
            sid = recorder._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.failed.add(sid)
                raise
            finally:
                recorder._close(sid)
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._patches.append((owner, attr, static if owned else None, owned))
        setattr(owner, attr, wrapper)

    def remove(self):
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------------
    def summarize(self):
        """Per layer: calls, outermost calls, busy seconds, self seconds.

        A span's self time is its duration minus the durations of its
        direct children. Busy time counts a span only when no ancestor has
        the same name, so a layer that calls itself is not counted twice.
        """
        count = len(self.start)
        child = array("d", bytes(8 * count))
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        depth = {}
        layers = {n: {"calls": 0, "outer": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        # Spans are stored in start order, so a stack replay finds, for each
        # span, whether a same-named ancestor is still open.
        open_stack = []
        for sid in range(count):
            while open_stack and self.end[open_stack[-1]] <= self.start[sid]:
                depth[self.name[open_stack.pop()]] -= 1
            nid = self.name[sid]
            entry = layers[self.names[nid]]
            duration = self.end[sid] - self.start[sid]
            entry["calls"] += 1
            entry["self_s"] += duration - child[sid]
            if depth.get(nid, 0) == 0:
                entry["outer"] += 1
                entry["s"] += duration
            depth[nid] = depth.get(nid, 0) + 1
            open_stack.append(sid)
        return layers

    def ids(self, name):
        """Span ids of the layer *name*, in start order."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [sid for sid in range(len(self.start)) if self.name[sid] == nid]

    def write(self, path):
        """Write the spans as CSV: id, parent, name, start, end, failed."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_s,end_s,failed\n")
            for sid in range(len(self.start)):
                handle.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name[sid]]},"
                    f"{self.start[sid] - origin:.9f},{self.end[sid] - origin:.9f},"
                    f"{int(sid in self.failed)}\n"
                )
