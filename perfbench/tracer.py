"""Span tracing for the benchmark's traced runs, done entirely from outside the library.

`Tracer.install()` replaces every public function of every `trivalent` module
with a wrapper, at every module attribute that refers to it: the defining
module, each module that imported the name (`from .counting import
count_elimination` binds a second name), and the package namespace.  Patching
only the defining module would leave those imported names calling the
original, and the layer would read as free.  `uninstall()` puts the originals
back.  `Graph.__init__` gets a counter, not a span.

While `enabled`, each wrapped call is a span: its duration is added to the
calling span's child time, and its self time is the duration minus the time
its own child spans took.  Spans are aggregated in memory per name and per
(caller, callee) pair rather than kept one by one; a pass of `nni-pairs`
makes a few hundred thousand calls.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

ROOT = "item"


class Tracer:
    def __init__(self, package):
        self.modules = sorted(
            (m for name, m in sys.modules.items()
             if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))),
            key=lambda m: m.__name__,
        )
        self.originals: dict[str, object] = {}
        self.wrappers: dict[str, object] = {}
        for module in self.modules:
            short = module.__name__[len(package.__name__) + 1:]
            if not short:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                self.originals[name] = obj
                self.wrappers[name] = self._wrap(name, obj)
        self.graph_class = package.graphs.Graph
        self.graph_init = self.graph_class.__init__
        self.enabled = False
        self.reset()

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()  # (caller, callee) -> calls
        self.yields: Counter = Counter()  # generator name -> values yielded
        self.kept: defaultdict = defaultdict(list)  # name -> hook payloads
        self.graph_instances = 0
        self.stack: list[list] = [[0.0, 0.0, ROOT]]

    def begin_item(self) -> None:
        self.stack = [[0.0, time.perf_counter(), ROOT]]

    def end_item(self) -> None:
        frame = self.stack[0]
        dt = time.perf_counter() - frame[1]
        st = self._stat(ROOT)
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[0]

    # -- patching ------------------------------------------------------------

    def sites(self) -> list[tuple[object, str, str]]:
        """(module, attribute, span name) for every attribute bound to a wrapped function."""
        by_id = {id(f): name for name, f in self.originals.items()}
        by_id.update({id(f): name for name, f in self.wrappers.items()})
        out = []
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                name = by_id.get(id(obj))
                if name is not None:
                    out.append((module, attr, name))
        return out

    def install(self) -> None:
        for module, attr, name in self.sites():
            setattr(module, attr, self.wrappers[name])
        tracer = self
        init = self.graph_init

        def counted_init(graph, *args, **kwargs):
            init(graph, *args, **kwargs)
            if tracer.enabled:
                tracer.graph_instances += 1

        self.graph_class.__init__ = counted_init

    def uninstall(self) -> None:
        for module, attr, name in self.sites():
            setattr(module, attr, self.originals[name])
        self.graph_class.__init__ = self.graph_init

    def unwrapped_sites(self) -> list[str]:
        """Attributes that still hold an original function while installed."""
        originals = {id(f) for f in self.originals.values()}
        return [
            f"{module.__name__}.{attr}"
            for module in self.modules
            for attr, obj in vars(module).items()
            if id(obj) in originals
        ]

    def is_wrapped(self, dotted: str) -> bool:
        module_name, attr = dotted.rsplit(".", 1)
        obj = getattr(sys.modules[module_name], attr)
        return any(obj is w for w in self.wrappers.values())

    # -- spans ---------------------------------------------------------------

    def _stat(self, name: str) -> list:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        return st

    def _enter(self, name: str) -> list:
        frame = [0.0, time.perf_counter(), name]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, count_call: bool) -> float:
        dt = time.perf_counter() - frame[1]
        self.stack.pop()
        caller = self.stack[-1]
        caller[0] += dt
        st = self._stat(frame[2])
        if count_call:
            st[0] += 1
            self.edges[(caller[2], frame[2])] += 1
        st[1] += dt
        self_s = dt - frame[0]
        st[2] += self_s
        return self_s

    def _wrap(self, name: str, f):
        tracer = self
        hook = HOOKS.get(name)
        if inspect.isgeneratorfunction(f):

            @functools.wraps(f)
            def gen_wrapper(*args, **kwargs):
                gen = f(*args, **kwargs)
                if not tracer.enabled:
                    yield from gen
                    return
                st = tracer._stat(name)
                st[0] += 1
                tracer.edges[(tracer.stack[-1][2], name)] += 1
                while True:
                    frame = tracer._enter(name)
                    try:
                        value = next(gen)
                    except StopIteration:
                        tracer._exit(frame, False)
                        return
                    except BaseException:
                        tracer._exit(frame, False)
                        raise
                    tracer._exit(frame, False)
                    tracer.yields[name] += 1
                    yield value

            return gen_wrapper

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return f(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = f(*args, **kwargs)
            finally:
                self_s = tracer._exit(frame, True)
            if hook is not None:
                hook(tracer.kept[name], args, kwargs, result, self_s)
            return result

        return wrapper

    # -- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]


# Hooks keep what a per-layer counter needs; the counting itself happens after
# the pass, with the tracer off, so it is never charged to a span.


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


HOOKS = {
    "exactlin.solve_square": lambda kept, a, k, r, s: kept.append(r is not None),
    "scissors.build_decomposition": lambda kept, a, k, r, s: kept.append(r),
    "scissors.verify_decomposition": lambda kept, a, k, r, s: kept.append((_arg(a, k, 0, "d"), r)),
    "nni.canonical_caterpillar_sequence": lambda kept, a, k, r, s: kept.append(_arg(a, k, 0, "t")),
    "counting.count_elimination": lambda kept, a, k, r, s: kept.append(
        (id(_arg(a, k, 0, "g")), _arg(a, k, 1, "t"), k.get("kind", "membership"), s)
    ),
    "catalog.connected_13_classes": lambda kept, a, k, r, s: kept.append(
        sum(len(group) for group in r.values())
    ),
}
