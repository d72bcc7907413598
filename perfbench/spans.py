"""Span recording around the public functions of the adafamily layers.

`Tracer.install()` replaces every public module-level function of the
layer modules (and the evaluation methods of the `Problem` classes) with
a wrapper that records one span per call: name, start, end and the span
that was open when it started (its parent).  Because the package imports
functions by name across modules (`from .optim import step`), every
module attribute bound to a wrapped function is rebound, not just the
defining one.  A generator function gets one span per resumption, so
the time its body spends producing items is attributed to it, while its
call count is the number of generators created.

Spans live in flat arrays in memory; `summary()` turns them into per-name
call counts, self times (span duration minus the time covered by its
child spans) and per-call duration samples.  Nothing under `src/` knows
it is being traced, and the wrappers only read arguments, so tracing
cannot change a computed number.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("rng", "data", "problems", "optim", "harness", "tables", "cli")
PROBLEM_METHODS = ("loss", "loss_grad", "predict", "init_params")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.tag_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, tag_of=None):
        """Return a traced stand-in for ``fn``.

        ``tag_of(args, kwargs)``, when given, returns a small int stored
        with each span (used to split `step` spans by algorithm).
        """
        nid = self._name_id(name)
        names, parents, tags = self.name, self.parent, self.tag
        starts, ends, stack, calls = self.start, self.end, self._stack, self.calls
        clock = time.perf_counter_ns

        def open_span(tag: int) -> int:
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tags.append(tag)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            return i

        def close_span(i: int) -> None:
            ends[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[nid] += 1
                tag = tag_of(args, kwargs) if tag_of else -1
                return _resumed(fn(*args, **kwargs), open_span, close_span, tag)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            i = open_span(tag_of(args, kwargs) if tag_of else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)

        return traced

    def install(self, step_tags: dict) -> None:
        """Wrap the layers' public functions in every loaded adafamily module.

        ``step_tags`` maps each optimizer Algorithm to a tag index; the
        tag names are the algorithms' values.
        """
        self.tag_names = [a.value for a in sorted(step_tags, key=step_tags.get)]
        modules = {layer: sys.modules[f"adafamily.{layer}"] for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value) or inspect.isclass(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                tag_of = None
                if layer == "optim" and attr == "step":
                    tag_of = _step_tag(step_tags)
                replaced[id(value)] = self.wrap(f"{layer}.{attr}", value, tag_of)
        for module_name, module in list(sys.modules.items()):
            if module_name != "adafamily" and not module_name.startswith("adafamily."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
        problems = modules["problems"]
        for cls in vars(problems).values():
            if not (inspect.isclass(cls) and issubclass(cls, problems.Problem)):
                continue
            for method in PROBLEM_METHODS:
                if method in vars(cls):
                    setattr(cls, method, self.wrap(f"problems.{method}", vars(cls)[method]))

    def summary(self, duration_names: tuple[str, ...] = ()) -> dict:
        """Per-name calls and self seconds, plus per-call durations in µs.

        Durations (whole span, children included) are returned for the
        names in ``duration_names``, each as ``(durations_us, tags)``.
        """
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open")
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        tag = np.frombuffer(self.tag, dtype=np.int32)
        duration = (
            np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        )
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        self_ns = np.bincount(name, weights=duration - covered, minlength=len(self.names))
        out = {
            "spans": int(duration.size),
            "calls": dict(zip(self.names, self.calls)),
            "self_s": {n: float(self_ns[i]) / 1e9 for i, n in enumerate(self.names)},
            "durations": {},
        }
        for n in duration_names:
            mask = name == self._ids[n] if n in self._ids else np.zeros(name.size, bool)
            out["durations"][n] = (duration[mask] / 1e3, tag[mask])
        return out

    def save(self, path) -> None:
        """Write the raw spans as arrays (names and tag names index them)."""
        np.savez(
            path,
            names=np.array(self.names),
            tag_names=np.array(self.tag_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            tag=np.frombuffer(self.tag, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _resumed(gen, open_span, close_span, tag):
    # one span per resumption: item production, not the consumer's loop body
    while True:
        i = open_span(tag)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            close_span(i)
        yield item


def _step_tag(step_tags: dict):
    def tag_of(args, kwargs):
        config = args[3] if len(args) > 3 else kwargs["config"]
        return step_tags[config.algorithm]

    return tag_of
