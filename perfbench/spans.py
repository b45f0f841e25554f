"""Span tracing of the wpmirror layers from outside the package.

Every public function of the traced modules is replaced by a wrapper that
records one span (name, start, end, parent, op) per call and, for a few
functions, a count taken from the result.  The wrapper is installed under
every module attribute that holds the function, because callers look names
up in their own module: `verify` reaches `enumerate_accepted_words` through
its own import, while `higher_products_vanish` finds it in `aside.words`.

Spans stay in memory in flat arrays, are summarised per pass and are
written out once at the end as the columns of one .npz file.  Self time is
a span's duration minus the part of it that its child spans cover.
"""

import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = (
    "wpmirror.weights",
    "wpmirror.bside",
    "wpmirror.aside.strip",
    "wpmirror.aside.words",
    "wpmirror.aside.potential",
    "wpmirror.bisection",
    "wpmirror.verify",
)

# Span names that the metric names shorten.
ALIASES = {
    "aside.words.enumerate_accepted_words": "aside.words.enumerate",
    "bside.verify_prop6_via_resolution": "bside.resolution_oracle",
    "bside.generation_certificate": "bside.generation",
    "verify.Certificate.digest": "verify.digest",
}

# Counter -> the span whose results' lengths it sums.
RESULT_COUNTS = {
    "aside.words.accepted": "aside.words.enumerate",
    "verify.bside_digest.entries": "verify.bside_digest",
    "bside.resolution_summands.summands": "bside.resolution_summands",
}

OP_SPAN = "bench.op"


def _span_name(module_name, qualname):
    name = module_name.removeprefix("wpmirror.") + "." + qualname
    return ALIASES.get(name, name)


def traced_functions():
    """(span name, function) for every public function of the traced
    modules, plus `Certificate.digest`."""
    out = []
    for mod_name in TRACED_MODULES:
        mod = importlib.import_module(mod_name)
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod_name):
                out.append((_span_name(mod_name, attr), obj))
    verify = importlib.import_module("wpmirror.verify")
    out.append((_span_name("wpmirror.verify", "Certificate.digest"),
                verify.Certificate.digest))
    return out


class Tracer:
    """Records spans for the calls made while installed."""

    def __init__(self):
        self.names = [OP_SPAN]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {key: 0 for key in RESULT_COUNTS}
        self._stack = []
        self._current_op = -1
        self._patched = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def run_op(self, op_index, fn):
        """Run one benchmark op under a root span."""
        self._current_op = op_index
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, t0, time.perf_counter())
            self._current_op = -1

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        counters = [key for key, span in RESULT_COUNTS.items() if span == name]
        open_, close, counts, clock = self._open, self._close, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, t0, clock())
            for key in counters:
                counts[key] += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        """Replace every traced function wherever a wpmirror module (or,
        for `digest`, the Certificate class) holds it."""
        targets = {id(fn): (name, fn) for name, fn in traced_functions()}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        owners = [m for n, m in sys.modules.items()
                  if n == "wpmirror" or n.startswith("wpmirror.")]
        owners.append(importlib.import_module("wpmirror.verify").Certificate)
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][1]:
                    self._patched.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------

    def mark(self):
        """A position in the span log; `summary(mark)` covers what follows."""
        return len(self.start), dict(self.counts)

    def summary(self, mark=(0, None)):
        """Per span name: calls, total seconds and self seconds, over the
        spans recorded since `mark`; plus the result counts since then."""
        first, counts0 = mark
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - cover
        sl = slice(first, None)
        n = len(self.names)
        calls = np.bincount(nid[sl], minlength=n)
        total = np.bincount(nid[sl], weights=dur[sl], minlength=n)
        self_total = np.bincount(nid[sl], weights=self_time[sl], minlength=n)
        layers = {name: {"calls": int(calls[i]), "s": float(total[i]),
                         "self_s": float(self_total[i])}
                  for i, name in enumerate(self.names)}
        counts = {k: v - (counts0 or {}).get(k, 0) for k, v in self.counts.items()}
        return layers, counts

    def write(self, path, header):
        """Save every span as columns name, start, end, parent, op of one
        .npz file; `names` maps the name column, `header` is JSON."""
        np.savez(path, name=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 names=np.array(self.names), header=np.array(json.dumps(header)))
