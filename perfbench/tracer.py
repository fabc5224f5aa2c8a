"""In-memory span tracer that wraps charfive's public entry points from
outside the package.

A span records its name, start, end and the index of the span that was
open when it started (its parent).  Self time is a span's duration minus
the durations of its direct children.  Counters record call counts where a
span per call would cost more than the call itself (field multiplication).

charfive's modules import each other with ``from .x import y``, so a
function is reachable through several module globals.  `Tracer.install`
therefore replaces every binding of the original object in every loaded
``charfive`` module, and `Tracer.uninstall` puts the originals back.
"""

import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []        # span name, one entry per span
        self.starts = []
        self.ends = []
        self.parents = []      # index of the enclosing span, or -1
        self.counts = Counter()
        self._stack = []
        self._patched = []     # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------------

    def spanned(self, name, fn, on_result=None):
        """A function that records one span per call of `fn`."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        """A function that only counts the calls of `fn`."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, targets, package="charfive"):
        """Wrap each target.  `targets` holds (module, attribute, name, kind,
        on_result): `attribute` is a function name or "Class.method", `kind`
        is "span" or "count", and `on_result(tracer, result)` (or None) sees
        each result of a spanned call.  Returns the targets that do not
        exist, which are left unwrapped."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        missing = []
        for module_name, attribute, name, kind, on_result in targets:
            owner_name, _, fn_name = attribute.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(fn_name) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attribute}")
                continue
            owners = [owner] if owner_name else modules
            wrapper = (self.spanned(name, original, on_result) if kind == "span"
                       else self.counted(name, original))
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, key, original))
                        setattr(owner, key, wrapper)
        return missing

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------------

    def summary(self):
        """{name: {"calls", "s", "self_s"}}.  "s" is inclusive time counted
        once per outermost span of that name, so recursion is not counted
        twice; "self_s" excludes the time of child spans."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur - child_time[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                rec["s"] += dur
        return out
