"""Span tracer that wraps a package's public functions from outside.

Every module-level function without a leading underscore is replaced, in
every module that holds a reference to it, by a wrapper that records a
span.  Spans are aggregated on the fly into a call-path tree (a node per
distinct chain of wrapped callers), because a single run makes millions
of wrapped calls.  A node's self time is its span minus the spans of the
wrapped calls made inside it.
"""
import importlib
import pkgutil
import sys
import time
import types


class _Node:
    __slots__ = ("name", "calls", "total", "self_time", "kids")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.kids = {}


class Tracer:
    """Call-path span aggregation with per-function outcome counters.

    `clock` is injectable so the self-time arithmetic can be checked with
    a deterministic clock.  `observers` maps a wrapped name to a callable
    (args, kwargs, result) run after each successful call.
    """

    def __init__(self, clock=time.perf_counter, observers=None):
        self.clock = clock
        self.observers = dict(observers or {})
        self.root = _Node(None)
        self.raised = {}
        self._stack = [[self.root, 0.0]]   # [node, time spent in wrapped children]

    def wrap(self, name, fn):
        clock = self.clock
        stack = self._stack
        raised = self.raised
        observe = self.observers.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent[0].kids.get(name)
            if node is None:
                node = parent[0].kids[name] = _Node(name)
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                per_fn = raised.setdefault(name, {})
                kind = type(exc).__name__
                per_fn[kind] = per_fn.get(kind, 0) + 1
                raise
            finally:
                span = clock() - start
                stack.pop()
                node.calls += 1
                node.total += span
                node.self_time += span - frame[1]
                parent[1] += span
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def paths(self):
        """(path, calls, total_s, self_s) for every call path, depth first."""
        out = []

        def walk(node, prefix):
            for kid in node.kids.values():
                path = prefix + (kid.name,)
                out.append((path, kid.calls, kid.total, kid.self_time))
                walk(kid, path)

        walk(self.root, ())
        return out

    def functions(self):
        """Per-function {calls, total_s, self_s} summed over call paths.

        total_s counts only the outermost occurrence on a path, so a
        function that re-enters itself is not counted twice.
        """
        stats = {}
        for path, calls, total, self_time in self.paths():
            name = path[-1]
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += calls
            s["self_s"] += self_time
            if name not in path[:-1]:
                s["total_s"] += total
        return stats


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        # plain functions and functools.lru_cache wrappers; classes are left alone
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            yield attr, obj


def install(tracer, package):
    """Wrap every public function of every module of `package`.

    Returns (names, undo): the wrapped names as "<module>.<function>" and a
    callable that restores the original bindings.
    """
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        importlib.import_module(info.name)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == package or n.startswith(package + ".")]
    wrappers = {}
    names = []
    for mod in modules:
        short = mod.__name__[len(package) + 1:]
        if not short:
            continue
        for attr, fn in _public_functions(mod):
            names.append(f"{short}.{attr}")
            wrappers[id(fn)] = (fn, tracer.wrap(names[-1], fn))
    patched = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))

    def undo():
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)

    return sorted(names), undo
