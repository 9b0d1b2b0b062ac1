"""Spans recorded from outside the program.

The tracer replaces public functions of ``rlentropy`` modules with wrappers
that record one span per call: name, start, end, parent span and operation
id.  Spans stay in memory until the run ends.  Nothing under ``src/`` is
changed; a wrapper is installed at every module attribute that holds the
traced object, so a caller that bound the function by name at import time
(``cli.load_model``, ``entropy.limit_words``, ``simulate.LWordEvaluator``)
also calls the wrapper.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _atlas_counts(atlas):
    return {"cones.types": len(atlas.types),
            "cones.slots": sum(len(c.slots) for c in atlas.coverings.values())}


def _chain_counts(chain):
    return {"lastentry.states": len(chain.states),
            "lastentry.classes": len(chain.classes)}


def _hidden_counts(hidden):
    return {"entropy.hidden_states": len(hidden.states),
            "entropy.hidden_symbols": len(hidden.symbols)}


def _sandwich_counts(bounds):
    return {"entropy.sandwich_depth": bounds.n_final}


# span name -> structural counts taken from the returned object (or None)
TRACED = {
    "cli.main": None,
    "pipeline.validate": None,
    "pipeline.analyze": None,
    "model.load_model": None,
    "model.check_weak_symmetry": None,
    "genfun.solve_all": None,
    "genfun.LWordEvaluator": None,
    "cones.build_atlas": _atlas_counts,
    "cones.limit_words": None,
    "lastentry.build_chain": _chain_counts,
    "entropy.HiddenChain": _hidden_counts,
    "entropy.sandwich_bounds": _sandwich_counts,
    "entropy.unambiguous_exact": None,
    "entropy.build_qhat": None,
    "entropy.check_marginal_equality": None,
    "simulate.run_trajectories": None,
}

COUNT_NAMES = ("cones.types", "cones.slots", "lastentry.states",
               "lastentry.classes", "entropy.hidden_states",
               "entropy.hidden_symbols", "entropy.sandwich_depth")

ROOT = "op"


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` undoes
    every patch."""

    def __init__(self):
        self.spans = []          # dicts: id, name, op, parent, start, end
        self.counts = []         # (op id, count name, value) per traced call
        self.op_id = None
        self._stack = []
        self._patches = []       # (module, attribute, original object)

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, op_id):
        """Root span of one operation; spans inside carry ``op_id``."""
        self.op_id = op_id
        try:
            with self.span(ROOT):
                yield
        finally:
            self.op_id = None

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts.append((self.op_id, key, value))
            return result
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every object named in TRACED at each attribute of an
        ``rlentropy`` module that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "rlentropy" or n.startswith("rlentropy."))
                   and m is not None]
        package = sys.modules["rlentropy"]
        for name, counter in TRACED.items():
            mod_name, attr = name.split(".")
            original = getattr(getattr(package, mod_name), attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span name: (total self seconds, calls).  Self time is the
        span's duration minus the time its child spans cover; calls nest
        and run on one thread, so children never overlap."""
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        self_s = defaultdict(float)
        calls = Counter()
        for s in self.spans:
            self_s[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
            calls[s["name"]] += 1
        return self_s, calls

    def op_walls(self):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == ROOT]

    def count_sequences(self):
        """Per operation: the tuple of (count name, value) in call order."""
        per_op = defaultdict(list)
        for op, key, value in self.counts:
            per_op[op].append((key, value))
        return {op: tuple(seq) for op, seq in per_op.items()}
