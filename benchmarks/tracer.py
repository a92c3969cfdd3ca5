"""Per-layer timing of masspcg from outside the package.

Every public function of each layer module is wrapped under every name that
binds it, in the package and in each layer module: modules bind one another
with from-imports, so ``masspcg.solver.apply_laplacian`` is a name of its own
next to ``masspcg.operators.apply_laplacian``. The original bindings are put
back when the ``installed`` block ends.

A call's self time is its duration minus the durations of the wrapped calls
it made, so the self times of all functions add up to the time spent inside
top-level wrapped calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import time
from collections import defaultdict

from workloads import LAYERS

#: Bytes an operator must at least move per unknown: read u, write the result.
OPERATOR_BYTES_PER_UNKNOWN = 16
OPERATORS = ("operators.apply_laplacian", "operators.apply_mass")


def _arg(args, kwargs, index, name):
    """A call's argument by position or keyword; None when it was left out."""
    return args[index] if len(args) > index else kwargs.get(name)


@dataclasses.dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        #: computed minimum bytes per operator: 16 B per unknown per call
        self.operator_bytes: dict[str, int] = defaultdict(int)
        #: precondition -> [cg_solve seconds, iterations]
        self.cg: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.cg_converged = 0
        self.laplacian_calls_in_cg = 0
        self.written_bytes = 0
        self._stack: list[list] = []  # [name, seconds spent in wrapped children]

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                stat = self.stats[name]
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
            self._count(name, args, kwargs, result, elapsed)
            return result

        return traced

    def _count(self, name, args, kwargs, result, elapsed):
        if name in OPERATORS:
            self.operator_bytes[name] += OPERATOR_BYTES_PER_UNKNOWN * _arg(args, kwargs, 0, "spec").size
            if name == "operators.apply_laplacian" and any(f[0] == "solver.cg_solve" for f in self._stack):
                self.laplacian_calls_in_cg += 1
        elif name == "solver.cg_solve":
            config = _arg(args, kwargs, 3, "config")
            entry = self.cg[config.precondition if config is not None else "none"]
            entry[0] += elapsed
            entry[1] += result.iterations
            self.cg_converged += bool(result.converged)
        elif name == "experiments.write_text":
            text = _arg(args, kwargs, 0, "text")
            self.written_bytes += len(text)  # the tables are ASCII: one byte per character

    @contextlib.contextmanager
    def installed(self, m):
        """Wrap the public functions of ``m``'s layer modules while the block runs."""
        wrappers = {}
        for layer in LAYERS:
            module = getattr(m, layer)
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patched = []
        try:
            for namespace in (m.package, *(getattr(m, layer) for layer in LAYERS)):
                for attr, obj in list(vars(namespace).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(namespace, attr, hit[1])
                        patched.append((namespace, attr, obj))
            yield self
        finally:
            for namespace, attr, obj in reversed(patched):
                setattr(namespace, attr, obj)
