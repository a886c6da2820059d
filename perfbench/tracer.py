"""Span tracer that wraps rotorkick's public functions from outside the package.

Every public function defined in one of the layer modules is replaced, in
every loaded rotorkick module that refers to it, by a wrapper that records a
span (name, start, end, parent).  Self time is the span's duration minus the
time its wrapped children cover.  A module or function that no longer exists
is skipped, so its metrics read zero instead of failing the run.

Wrappers only see calls made in this process, so the tracer also replaces the
process pool that rotorkick.sweep uses (if any) with an executor that runs
each task inline.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "propagate", "kernels", "observables", "analytic",
          "sweep", "serialize", "svgplot", "cli")


class InlineExecutor(concurrent.futures.Executor):
    """Executor that runs every task in the calling thread when submitted."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # handed to the caller through the future
            future.set_exception(exc)
        return future


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget all spans and totals (between passes, never inside a span)."""
        self.spans: list[list] = []          # [name, start, end, parent index, child time]
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.sweep_result = None         # the last return value of sweep.run_sweep

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent, 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[2] = end
                dur = end - span[1]
                self.calls[name] += 1
                self.incl_s[name] += dur
                self.self_s[name] += dur - span[4]
                if parent >= 0:
                    spans[parent][4] += dur
            if name == "sweep.run_sweep":
                self.sweep_result = out
            return out

        return wrapper

    def install(self) -> list[str]:
        """Wrap the public functions of every layer module; return the span names."""
        names = []
        originals = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"rotorkick.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                # A public alias of a private function (kernels.rk4_loop_numpy
                # = _rk4_loop) is not wrapped: its time stays in its caller.
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or obj.__name__ != attr):
                    continue
                name = f"{layer}.{attr}"
                originals[id(obj)] = (obj, self._wrap(name, obj))
                names.append(name)
        pool = concurrent.futures.ProcessPoolExecutor
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rotorkick" or mod_name.startswith("rotorkick.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is pool:
                    self._patch(mod, attr, InlineExecutor)
                elif id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patch(mod, attr, originals[id(obj)][1])
        return names

    def _patch(self, mod, attr, new) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._patches):
            setattr(mod, attr, old)
        self._patches.clear()

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            calls[layer] += n
            self_s[layer] += self.self_s[name]
        return calls, self_s

    def dump(self, path) -> None:
        """Write the recorded spans as tab-separated name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
