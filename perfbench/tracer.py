"""Span tracer that wraps the library's public callables from outside.

Every public function, method and property of the traced modules is
replaced, at every module (and module-level container) that binds it, by a
wrapper that opens a span on entry and closes it on exit.  Closed spans are
folded into per-name aggregates as they end, so memory stays flat even for
the verifier's million-call Macaulay bound:

* ``calls``   number of calls (a generator counts once, when created);
* ``total_s`` wall time inside the outermost active span of that name, so a
  recursive call is not counted twice;
* ``self_s``  span duration minus the time covered by its direct child
  spans, which is the time spent in the callable's own code and in
  untraced helpers.

Spans lasting at least ``keep_spans_s`` are also kept as
``Span(id, name, start, end, parent)`` records for writing out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import namedtuple

Span = namedtuple("Span", "id name start end parent")

# Dunder methods traced besides public names: the polynomial product.  Other
# operators (scalar arithmetic above all) run per coefficient, where a span
# would cost more than the work it measures.
TRACED_DUNDERS = ("Polynomial.__mul__",)


class Tracer:
    """Aggregates spans opened and closed in strict nesting order."""

    def __init__(self, clock=time.perf_counter, keep_spans_s=None):
        self.clock = clock
        self.keep_spans_s = keep_spans_s
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.spans: list = []
        self.observers: dict = {}  # name -> fn(args, kwargs, result)
        self._stack: list = []  # open frames: [name, start, child_s, id]
        self._depth: dict = {}  # name -> number of open spans of that name
        self._next_id = 0

    def _stat(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        return entry

    def count(self, name):
        self._stat(name)[0] += 1

    def enter(self, name):
        self._next_id += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0, self._next_id])

    def exit(self):
        end = self.clock()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        entry = self._stat(name)
        entry[2] += duration - child_s
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            entry[1] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if self.keep_spans_s is not None and duration >= self.keep_spans_s:
            self.spans.append(Span(span_id, name, start, end, parent[3] if parent else None))

    def observe(self, observer, args, kwargs, result):
        """Run an observer, billing its time to no span's self time.

        The caller's span is still open, so the observer's time is added to
        that span's child time, as a child span's would be.
        """
        start = self.clock()
        observer(args, kwargs, result)
        if self._stack:
            self._stack[-1][2] += self.clock() - start

    def wrap(self, name, fn):
        """A traced stand-in for `fn`; the original stays on `__wrapped__`."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's own spans between
            # two items never nest inside the generator's
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                tracer.count(name)
                gen = fn(*args, **kwargs)
                while True:
                    tracer.enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield item

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.count(name)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            observer = tracer.observers.get(name)
            if observer is not None:
                tracer.observe(observer, args, kwargs, result)
            return result

        return traced


def public_callables(module, short):
    """(trace name, function) for the public callables `module` defines.

    Methods are named `short.Class.method`; a property yields its getter and
    a static or class method its underlying function.
    """
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{short}.{attr}", obj))
        elif inspect.isclass(obj):
            for member, raw in vars(obj).items():
                if member.startswith("_") and f"{attr}.{member}" not in TRACED_DUNDERS:
                    continue
                fn = _function_of(raw)
                if inspect.isfunction(fn):
                    out.append((f"{short}.{attr}.{member}", fn))
    return out


def _function_of(raw):
    """The function a class member runs: property getter, or unwrapped static/class method."""
    if isinstance(raw, property):
        return raw.fget
    if isinstance(raw, (staticmethod, classmethod)):
        return raw.__func__
    return raw


def _rewrap(raw, wrapper):
    if isinstance(raw, property):
        return property(wrapper, raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, staticmethod):
        return staticmethod(wrapper)
    if isinstance(raw, classmethod):
        return classmethod(wrapper)
    return wrapper


def package_modules(package):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def _binding_sites(package):
    """(site label, owner, key, raw value, function it runs) for every binding.

    Owners are the package's modules, the classes they define, and their
    module-level dicts, lists and tuples (dispatch tables).
    """
    for module in package_modules(package):
        prefix = module.__name__
        for attr, value in list(vars(module).items()):
            yield f"{prefix}.{attr}", module, attr, value, value
            if inspect.isclass(value) and value.__module__ == prefix:
                for member, raw in list(vars(value).items()):
                    yield f"{prefix}.{attr}.{member}", value, member, raw, _function_of(raw)
            elif isinstance(value, (dict, list, tuple)) and not attr.startswith("__"):
                for key in list(value) if isinstance(value, dict) else range(len(value)):
                    yield f"{prefix}.{attr}[{key!r}]", value, key, value[key], value[key]


class Installation:
    """Wrappers installed at every binding site; `restore` undoes them all."""

    def __init__(self, tracer, package, modules):
        """`modules` maps a short layer name to a submodule of `package`."""
        self.package = package
        self.originals = {}  # id(original) -> original
        self._undo = []  # (owner, key, previous raw value)
        wrappers = {}
        for short, module in modules.items():
            for name, fn in public_callables(module, short):
                if id(fn) not in wrappers:  # an alias keeps the first name
                    self.originals[id(fn)] = fn
                    wrappers[id(fn)] = tracer.wrap(name, fn)
        for _, owner, key, raw, fn in _binding_sites(package):
            if not self._is_original(fn) or isinstance(owner, tuple):
                continue  # a tuple cannot be patched: check() reports it
            self._undo.append((owner, key, raw))
            _assign(owner, key, _rewrap(raw, wrappers[id(fn)]))
        try:
            self.check()
        except RuntimeError:
            self.restore()
            raise

    def _is_original(self, value):
        return id(value) in self.originals and self.originals[id(value)] is value

    def unwrapped_sites(self):
        """Every place in the package that still binds an original."""
        return sorted({label for label, _, _, _, fn in _binding_sites(self.package)
                       if self._is_original(fn)})

    def check(self):
        missed = self.unwrapped_sites()
        if missed:
            raise RuntimeError("unwrapped binding sites: " + ", ".join(missed))

    def restore(self):
        for owner, key, raw in reversed(self._undo):
            _assign(owner, key, raw)
        self._undo.clear()


def _assign(owner, key, value):
    if isinstance(owner, (dict, list)):
        owner[key] = value
    else:
        setattr(owner, key, value)
