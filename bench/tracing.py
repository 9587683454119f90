"""Spans and counters recorded from outside the library.

The traced run rebinds public flagcsm functions to timing wrappers: a
module-level function is replaced in every flagcsm module that holds a
reference to it (``divide_exact_linear`` lives in ``exact`` but is called
through ``csm`` and ``schubert``), and ``MPoly.__mul__``/``__rmul__`` are
replaced on the class.  No file of the library changes.

Each call records a span (name, start, end, parent span) in flat arrays
kept in memory; counts measured at the same boundary (terms in, terms
out, paths, tableaux) accumulate per span name.  A span's self time is
its duration minus the time covered by its direct children.  A function
wrapped with ``span=False`` is only counted, by its caller's span name.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, measure):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        counts = self.counts[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if measure is not None:
                for key, value in measure(args, out).items():
                    counts[key] += value
            return out

        return traced

    def _counter(self, name, fn):
        stack, names = self._stack, self.span_name
        counts = self.counts[name]

        def counted(*args, **kwargs):
            parent = self.names[names[stack[-1]]] if stack else None
            counts["under %s" % parent] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_function(self, module, attr, name, measure=None, span=True):
        """Rebind ``module.attr`` in every flagcsm module that refers to it.
        With ``span=False`` the call records no span (its time stays in its
        caller's self time) and is only counted by the name of the
        enclosing span, as ``counts[name]["under <parent>"]``.  Returns
        False, changing nothing, when the name no longer exists."""
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            return False
        if span:
            wrapper = self._wrap(name, original, measure)
        else:
            wrapper = self._counter(name, original)
        for modname, mod in list(sys.modules.items()):
            if modname != "flagcsm" and not modname.startswith("flagcsm."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
        return True

    def wrap_method(self, cls, attrs, name, measure=None):
        """Replace the methods ``attrs`` of ``cls`` (aliases of one function)
        by a single wrapper; names the class no longer defines are skipped."""
        present = [a for a in attrs if a in cls.__dict__]
        if not present:
            return False
        wrapper = self._wrap(name, cls.__dict__[present[0]], measure)
        for attr in present:
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
        return True

    def restore(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def summary(self):
        """Per span name: calls and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
        return out

    def write(self, path):
        """All spans as tab-separated rows: index, name, parent index,
        start and end in seconds from the first span."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write("%d\t%s\t%d\t%.7f\t%.7f\n" % (
                    i, self.names[self.span_name[i]], self.span_parent[i],
                    self.span_start[i] - base, self.span_end[i] - base))
