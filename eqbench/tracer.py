"""Span tracer that wraps eqspike's public functions from outside the package.

Every public function and public method of each eqspike layer module is
replaced by a wrapper that records one span per call: name, start, end,
parent span and workload-iteration id.  Spans and counters stay in memory
and are written out once, by `dump`, when the run ends.

A function that another eqspike module imported by name (``from .x import
f``) is patched in every module that holds it, so calls through those
bindings are traced too.  `uninstall` restores every original object.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("pipeline", "data", "checkpoint", "distill", "implicit_grad",
          "autodiff", "numerics", "equilibrium", "model", "quantizer",
          "neuron", "energy")
# Modules searched for name bindings of wrapped functions.
PACKAGE_MODULES = LAYERS + ("cli",)
# autodiff's elementwise primitives build one tape node each and run about
# a million times per training chain; of that module only the backward pass
# is spanned.
AUTODIFF_SPANNED = frozenset({"backward"})
QUANTIZERS = ("quantizer.quantize_1bit", "quantizer.quantize_158bit")


def _public_callables(modname, mod):
    """(owner, attribute, original, span name) for each wrappable callable."""
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if modname == "autodiff" and attr not in AUTODIFF_SPANNED:
            continue
        if inspect.isfunction(obj):
            yield mod, attr, obj, f"{modname}.{attr}"
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mattr, mobj in list(vars(obj).items()):
                if mattr.startswith("_"):
                    continue
                if inspect.isfunction(mobj) or isinstance(
                        mobj, (classmethod, staticmethod)):
                    yield obj, mattr, mobj, f"{modname}.{obj.__name__}.{mattr}"


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # (name id, start ns, end ns, parent, iteration)
        self.counts: Counter = Counter()
        self.iteration = -1            # -1 is set-up; ops count from 0
        # set-ups begun: each builds its own models, whose linears are new
        self.setups = 0
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._paused = 0
        self._patches: list = []       # (owner, attribute, original object)
        self._weight_versions: set = set()

    # -- installation ----------------------------------------------------
    def install(self):
        modules = {m: importlib.import_module(f"eqspike.{m}")
                   for m in PACKAGE_MODULES}
        for modname in LAYERS:
            for owner, attr, orig, name in _public_callables(modname,
                                                             modules[modname]):
                if isinstance(orig, (classmethod, staticmethod)):
                    wrapped = type(orig)(self._wrap(name, orig.__func__))
                else:
                    wrapped = self._wrap(name, orig)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapped)
                    continue
                for mod in modules.values():  # every binding by any name
                    for battr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, battr, wrapped)
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- recording -------------------------------------------------------
    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        pre = _PRE_HOOKS.get(name)
        post = _POST_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(self, args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (nid, start, end, parent, self.iteration)
            if post is not None:
                post(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- summaries -------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, inclusive and self ns, and each duration."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent, _it in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for sid, (nid, start, end, parent, _it) in enumerate(self.spans):
            rec = out.setdefault(self.names[nid], {
                "calls": 0, "incl_ns": 0, "self_ns": 0, "outer_ns": 0,
                "durations_ns": []})
            dur = end - start
            rec["calls"] += 1
            rec["incl_ns"] += dur
            rec["self_ns"] += dur - child_ns[sid]
            rec["durations_ns"].append(dur)
            if parent < 0 or not self.names[self.spans[parent][0]].startswith(
                    self.names[nid].split(".", 1)[0] + "."):
                rec["outer_ns"] += dur  # not nested in a span of its own layer
        return out

    @property
    def weight_versions(self) -> int:
        return len(self._weight_versions)

    def dump(self, path, meta: dict):
        """Write every span and counter, gzipped JSON, to `path`."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "counts": dict(self.counts),
                       "span_fields": ["name", "start_ns", "end_ns",
                                       "parent", "iteration"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# -- per-function hooks ------------------------------------------------------

def _count_vjp_terms(tracer, args):
    # implicit_vjp(loss_grad, f_jacobian_vjp, cfg): count each term it takes
    inner = args[1]

    def counted(v):
        tracer.counts["implicit_grad.f_jacobian_vjp"] += 1
        return inner(v)

    return (args[0], counted) + tuple(args[2:])


def _note_solve(tracer, _args, sol):
    tracer.counts["equilibrium.sweeps"] += sol.iters_used
    tracer.counts["equilibrium.not_converged"] += int(not sol.converged)


def _note_weights(tracer, args):
    # a fingerprint of the latent weights: in-place Adam updates change it
    w = args[0]
    flat = w.reshape(-1)
    tracer._weight_versions.add((tracer.setups, w.shape, float(w.sum()),
                                 float(flat[0]), float(flat[-1])))
    return args


def _count_kernel_ops(tracer, args):
    # OpCounter.add(self, name, count)
    tracer.counts["energy.kernel_ops"] += int(args[2])
    return args


_PRE_HOOKS = {"implicit_grad.implicit_vjp": _count_vjp_terms,
              "quantizer.OpCounter.add": _count_kernel_ops,
              **{name: _note_weights for name in QUANTIZERS}}
_POST_HOOKS = {"equilibrium.solve_fixed_point": _note_solve}
