"""Span recorder that wraps cpflow's public callables from outside the package.

Every public function and class defined in a layer module is wrapped at
every binding a call can go through: the defining module's attribute, the
attribute of each cpflow module that imported it by name (including the
package namespace), module-level dicts that hold it (the CLI's handler
table) and, for methods, the class.  A wrapped call records one span
``[name, start, end, parent, op, info]``; spans stay in memory and are
written out once at the end.  ``uninstall`` restores every binding, so
untraced passes run the unmodified program.
"""

import csv
import dataclasses
import functools
import gzip
import inspect
import os
import sys
import time

LAYERS = ("profiles", "spectral", "os_solver", "channel", "nonlinear", "spectrum", "cli")

# Span fields.
NAME, START, END, PARENT, OP, INFO = range(6)


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos] if len(args) > pos else None


# Extra facts taken from a call's arguments, keyed by span name: fn(args, kwargs).
ARG_HOOKS = {
    "spectrum.leading_eigenvalue": lambda a, kw: int(_arg(a, kw, 2, "N")),
    # cli.main leaves through SystemExit, so its command is read before the call
    "cli.main": lambda a, kw: list(_arg(a, kw, 0, "argv"))[0],
}

# Extra facts taken from a call's result: fn(args, kwargs, result).
INFO_HOOKS = {
    "spectrum.neutral_search": lambda a, kw, r: len(r.trace),
    "spectrum.os_spectrum": lambda a, kw, r: (int(r.n_resolved), int(len(r.raw))),
    "os_solver.OSModeOperator.__init__": lambda a, kw, r: float(a[0].rcond),
    "channel.LinearizedChannelSolver.__init__": lambda a, kw, r: int(a[0].K),
    # 8 real flops per complex multiply-add of the (Mx, 2K+1) x (2K+1, N+1) product
    "channel.synthesize": lambda a, kw, r: 8.0 * r.shape[0] * a[0].shape[0] * a[0].shape[1],
    "channel.export_field_csv": lambda a, kw, r: os.path.getsize(_arg(a, kw, 1, "path")),
    "cli.write_json": lambda a, kw, r: os.path.getsize(r),
    "nonlinear.NonlinearChannelSolver.solve": lambda a, kw, r: (
        int(r[1].n_iter),
        _arg(a, kw, 3, "w0") is None,
        bool(r[1].converged),
        float(r[1].final_residual),
    ),
}


def _public_members(module):
    """Public functions and classes defined in ``module`` (not re-exported)."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
            yield name, obj


def _class_methods(cls):
    """(attribute, raw descriptor, function) for the public methods of ``cls``.

    Includes a hand-written ``__init__`` (construction is a layer step, e.g.
    factorization); dataclass-generated ``__init__`` is left alone.
    """
    for name, raw in vars(cls).items():
        if name.startswith("_") and name != "__init__":
            continue
        if name == "__init__" and dataclasses.is_dataclass(cls):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            yield name, raw, raw.__func__
        elif inspect.isfunction(raw):
            yield name, raw, raw


class Tracer:
    """Installs span-recording wrappers into the cpflow modules."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = -1
        self.paused = False  # wrappers call straight through while set
        self._stack = []
        self._patches = []  # (setter, original) pairs, undone in reverse

    # -- recording ------------------------------------------------------
    def _wrap(self, name, fn):
        arg_hook = ARG_HOOKS.get(name)
        hook = INFO_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            info = arg_hook(args, kwargs) if arg_hook is not None else None
            span = [name, clock(), None, stack[-1] if stack else -1, self.op, info]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------
    def install(self):
        """Wrap every public callable of the layer modules at all bindings."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cpflow" or n.startswith("cpflow."))]
        targets = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"cpflow.{layer}"]
            for name, obj in _public_members(mod):
                if inspect.isclass(obj):
                    for attr, raw, func in _class_methods(obj):
                        wrapper = self._wrap(f"{layer}.{name}.{attr}", func)
                        if isinstance(raw, (classmethod, staticmethod)):
                            wrapper = type(raw)(wrapper)
                        self._set(obj, attr, wrapper)
                else:
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set_item(namespace, key, hit[1])
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        hit = targets.get(id(dval))
                        if hit is not None and hit[0] is dval:
                            self._set_item(value, dkey, hit[1])

    def _set(self, cls, attr, value):
        original = vars(cls)[attr]
        setattr(cls, attr, value)
        self._patches.append((lambda v, c=cls, a=attr: setattr(c, a, v), original))

    def _set_item(self, mapping, key, value):
        original = mapping[key]
        mapping[key] = value
        self._patches.append((lambda v, m=mapping, k=key: m.__setitem__(k, v), original))

    def uninstall(self):
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    # -- analysis -------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the time its child spans cover.

        Calls run on one thread, so children of a span are disjoint and
        nested inside it; their durations add up.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def has_ancestor(self, idx, name):
        p = self.spans[idx][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def descendants(self, idx, name):
        """Number of spans called ``name`` nested anywhere below span ``idx``."""
        n = 0
        for j in range(idx + 1, len(self.spans)):
            s = self.spans[j]
            if s[START] > self.spans[idx][END]:
                break
            if s[NAME] == name and self._below(j, idx):
                n += 1
        return n

    def _below(self, j, idx):
        p = self.spans[j][PARENT]
        while p > idx:
            p = self.spans[p][PARENT]
        return p == idx

    def write(self, path):
        """Write all spans as gzip'd CSV (times relative to the first span)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "op", "info"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                              s[PARENT], s[OP], "" if s[INFO] is None else s[INFO]])
