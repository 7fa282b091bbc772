"""In-memory span tracer for atcpip's public functions.

``Tracer.install`` wraps every public module-level function and every
public method of every class that a layer module defines, and rebinds
each wrapped function at every site that holds it: ``atcpip.runtime``
imports ``terms_hash`` and the transition functions by name, so those
bindings are replaced as well as the defining module's.
``atcpip.canon.hash_value`` looks ``dumps`` up at call time, so the
wrapped ``dumps`` covers it.

Spans are (name, start, end, parent) rows kept in flat arrays while the
run lasts and written out once at the end; nothing is recorded outside
a phase. Spans are strictly nested (one thread, no callbacks across
calls), so a span's self time is its duration minus the durations of
its direct children, which each span adds to its parent as it ends.
"""

import array
import json
import sys
import time
import types

LAYERS = (
    "canon",
    "terms",
    "ledger",
    "payments",
    "protocol",
    "negotiation",
    "trust",
    "disputes",
    "runtime",
    "scenario",
    "sim",
)

# Result sizes worth summing per call, by span name.
OBSERVED = {
    "canon.dumps": len,
    "ledger.Ledger.entries": len,
    "ledger.Ledger.history": len,
    "runtime.AgentRuntime.sessions": len,
}


def _public_functions(module, layer):
    """(span name, owner, attribute, function) for the layer's public API."""
    if layer == "canon":
        names = [name for name in module.__all__ if isinstance(getattr(module, name), types.FunctionType)]
        return [(f"canon.{name}", module, name, getattr(module, name)) for name in names]
    found = []
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
            found.append((f"{layer}.{name}", module, name, value))
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (types.FunctionType, classmethod, staticmethod)):
                    found.append((f"{layer}.{name}.{attr}", value, attr, member))
    return found


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("H")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.child = array.array("d")  # time spent in direct children
        self.extra = array.array("q")
        self.phases = []  # (phase, first span index, end span index)
        self.distinct = {}  # phase -> distinct dumps outputs, summed per root span
        self._phase = None
        self._phase_start = 0
        self._recording = [False]
        self._stack = []
        self._seen = set()
        self._patched = []  # (namespace or class, attribute, original value)

    # -- phases ---------------------------------------------------------------

    def phase(self, name):
        """Close the current phase and open ``name``; ``None`` records nothing."""
        self._close_phase()
        self._phase = name
        self._phase_start = len(self.start)
        self._recording[0] = name is not None

    def finish(self):
        self.phase(None)

    def _close_phase(self):
        self._flush_distinct()
        if self._phase is not None:
            self.phases.append((self._phase, self._phase_start, len(self.start)))

    def _flush_distinct(self):
        if self._phase is not None:
            self.distinct[self._phase] = self.distinct.get(self._phase, 0) + len(self._seen)
        self._seen.clear()

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, function):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        observe = OBSERVED.get(name)
        seen = self._seen if name == "canon.dumps" else None
        stack = self._stack
        name_ids, parents, starts, ends, childs, extras = (
            self.name_id, self.parent, self.start, self.end, self.child, self.extra,
        )
        recording = self._recording
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not recording[0]:
                return function(*args, **kwargs)
            index = len(starts)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                tracer._flush_distinct()
            name_ids.append(nid)
            parents.append(parent)
            ends.append(0.0)
            childs.append(0.0)
            extras.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = finished = clock()
                stack.pop()
                if parent >= 0:
                    childs[parent] += finished - starts[index]
            if observe is not None:
                extras[index] = observe(result)
                if seen is not None:
                    seen.add(hash(result))
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__qualname__ = getattr(function, "__qualname__", name)
        traced.__doc__ = function.__doc__
        return traced

    def install(self, package):
        """Wrap the public API of every layer module of ``package``."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == package or name.startswith(package + ".")
        }
        replacements = {}
        for layer in LAYERS:
            module = modules[f"{package}.{layer}"]
            for span, owner, attr, member in _public_functions(module, layer):
                if isinstance(member, (classmethod, staticmethod)):
                    self._patch(owner, attr, type(member)(self._wrap(span, member.__func__)))
                elif isinstance(owner, type):
                    self._patch(owner, attr, self._wrap(span, member))
                elif member not in replacements:
                    replacements[member] = self._wrap(span, member)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in replacements:
                    self._patch(module, attr, replacements[value])

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put back every original the tracer replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------------

    def spans(self, phase):
        """Index range of every span recorded in ``phase``."""
        for name, first, stop in self.phases:
            if name == phase:
                yield from range(first, stop)

    def write(self, path):
        """One JSON header line, then the raw name, parent, start, end arrays."""
        with open(path, "wb") as handle:
            header = {
                "names": self.names,
                "phases": self.phases,
                "spans": len(self.start),
                "arrays": ["name_id:H", "parent:l", "start:d", "end:d"],
            }
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)
