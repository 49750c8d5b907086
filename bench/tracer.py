"""Spans and counters for the ``invalg`` package, installed from outside.

``Tracer.install`` replaces every public function of each traced module, and
the public methods of ``MatrixSubspace``, with a wrapper that records a span
(name, start, end, parent, job) and accumulates calls and self time.  A
function is replaced on its own module and on every ``invalg`` module that
imported it by name; ``restore`` puts every original object back.  A span's
self time is its duration minus the time covered by its child spans.
"""

import inspect
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "invalg"
LAYERS = ("groups", "reps", "classify", "factor", "spaces", "algebras",
          "_linalg", "ideals", "lie", "catalog", "cli")


class Tracer:
    def __init__(self):
        self.names = []        # span name per id
        self.stats = {}        # name -> [calls, self_s, total_s]
        self.counters = Counter()
        self.weights = set()   # distinct (system, coords) seen by weyl_dim
        self.spans = []        # (job, name_id, start, end, parent index)
        self.job = None
        self._stack = []
        self._active = Counter()
        self._patches = []     # (owner, attr, original, is_class)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        originals = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(mod, attr, originals[id(obj)][1])
                    self._patches.append((mod, attr, obj, False))
        cls = modules[f"{PACKAGE}.spaces"].MatrixSubspace
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(desc, classmethod):
                new = classmethod(self._wrap(desc.__func__, f"spaces.{attr}"))
            elif inspect.isfunction(desc):
                new = self._wrap(desc, f"spaces.{attr}")
            else:
                continue
            setattr(cls, attr, new)
            self._patches.append((cls, attr, desc, True))

    def restore(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        patches, self._patches = self._patches, []
        return patches

    @staticmethod
    def restored(patches):
        """True when every patched name holds its original object again."""
        for owner, attr, original, is_class in patches:
            now = vars(owner)[attr] if is_class else getattr(owner, attr)
            if now is not original:
                return False
        return True

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        self.stats[name] = [0, 0.0, 0.0]
        stats = self.stats[name]
        after = _AFTER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]     # span index, time covered by children
            stack.append(frame)
            tracer._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._active[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur - frame[1]
                stats[2] += dur
                tracer.spans[idx] = (tracer.job, name_id, start, end, parent)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def under(self, name):
        return self._active[name] > 0

    def reset(self):
        """Start a new pass: clear spans, totals and counters."""
        self.spans = []
        self.counters = Counter()
        self.weights = set()
        for s in self.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0.0

    def self_s(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def dump(self):
        """Aggregates and the spans of the current pass, JSON-ready."""
        return {
            "functions": {n: {"calls": c, "self_s": s, "total_s": t}
                          for n, (c, s, t) in sorted(self.stats.items()) if c},
            "counters": dict(self.counters),
            "span_fields": ["job", "name", "start", "end", "parent"],
            "spans": [[j, self.names[n], s, e, p] for j, n, s, e, p in self.spans],
        }


# Counters kept at the layer boundaries, keyed by "<layer>.<function>".

def _all_subgroups(t, args, result):
    t.counters["groups.all_subgroups.classes"] += len(result)


def _induction_pairs(t, args, result):
    t.counters["classify.pairs_kept"] += len(result)


def _cluster_real(t, args, result):
    if t.under("reps.character_table"):
        t.counters["reps.split_attempts"] += 1
        t.counters["reps.split_useful"] += len(result) > 1


def _cluster_complex(t, args, result):
    if t.under("factor.extract_factorization"):
        t.counters["factor.unit_attempts"] += 1
    if t.under("algebras.central_primitive_idempotents"):
        t.counters["algebras.idempotent_attempts"] += 1


def _is_product_closed(t, args, result):
    if t.under("factor.multfree_scan"):
        t.counters["factor.subsets_scanned"] += 1
        t.counters["factor.subsets_closed"] += bool(result)


def _nullspace(t, args, result):
    # input bytes as complex128, computed from the array's size
    t.counters["_linalg.nullspace.bytes"] += 16 * np.asarray(args[0]).size


def _weyl_dim(t, args, result):
    w = args[0]
    t.weights.add((w.system.name, w.coords))


_AFTER = {
    "groups.all_subgroups": _all_subgroups,
    "classify.induction_pairs": _induction_pairs,
    "_linalg.cluster_real": _cluster_real,
    "_linalg.cluster_complex": _cluster_complex,
    "spaces.is_product_closed": _is_product_closed,
    "_linalg.nullspace": _nullspace,
    "lie.weyl_dim": _weyl_dim,
}
