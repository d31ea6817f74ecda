"""Span tracing of chi2qec from outside the package.

`install` wraps every public function defined in the given modules and
rebinds each copy of it: the defining module's attribute, every
`from .x import name` copy in the other modules, and module-level lists,
tuples and dicts that hold it (such as `cli.CRITERIA`).  A span records its
name, its parent span, start and end; spans stay in memory until `dump`.

`summarize` turns spans into per-function totals: calls, inclusive time,
self time (inclusive minus the time covered by child spans) and summed
work counts.
"""

import collections
import inspect
import itertools
import json
import threading
import time


def _len_result(key):
    return lambda args, kwargs, result: {key: len(result)}


def _kl_check_counts(args, kwargs, result):
    """Enclosing-basis size, Gram columns, and how many basis states any
    error image touches (the numerator of `support_frac`)."""
    code, errors = args[0], args[1]
    basis = errors[0].operator.domain
    cols = sorted({basis.index_of(s) for psi in code.logical_states
                   for s, _ in psi.support()})
    touched = set()
    for e in errors:
        touched.update(e.operator.matrix[:, cols].nonzero()[0].tolist())
    return {"basis_states": basis.dimension,
            "gram_cols": len(errors) * len(code.logical_states),
            "touched_states": len(touched)}


def _stacked_rows(args, kwargs, result):
    ops = args[0]
    return {"stacked_rows": len(ops) * ops[0].operator.domain.dimension}


# Work counts taken at a span's end, keyed by "<module>.<function>".
COUNTERS = {
    "fock.enumerate_truncated_space": _len_result("states"),
    "errors.enclosing_basis": _len_result("states"),
    "errors.xi_set": _len_result("operators"),
    "errors.kl_check": _kl_check_counts,
    "symmetry.joint_unity_eigenspace": _stacked_rows,
    "syndromes.syndrome_table": _len_result("rows"),
    "cli.emit": lambda args, kwargs, result: {"bytes": len(result.encode())},
}

# Ratios reported as sum(numerator) / sum(denominator) over all calls.
RATIOS = {"support_frac": ("touched_states", "basis_states")}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((span_id, parent, name, start, clock(), 0.0, None))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            counts = None
            if counter is not None:
                counts = counter(args, kwargs, result)
            # Counting happens inside the parent's interval; `aux` lets the
            # parent's self time exclude it.
            self.spans.append((span_id, parent, name, start, end,
                               clock() - end, counts))
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer, modules):
    """Wrap the public functions of `modules` and rebind every copy."""
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrapped[id(obj)] = tracer.wrap("%s.%s" % (layer, name), obj)

    def swap(value):
        return wrapped.get(id(value), value) if inspect.isfunction(value) else value

    for mod in modules:
        ns = vars(mod)
        for key, value in list(ns.items()):
            if inspect.isfunction(value):
                ns[key] = swap(value)
            elif isinstance(value, (list, tuple)):
                swapped = [swap(v) for v in value]
                if any(a is not b for a, b in zip(swapped, value)):
                    if isinstance(value, list):
                        value[:] = swapped
                    else:
                        ns[key] = tuple(swapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    value[k] = swap(v)
    return len(wrapped)


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def summarize(spans):
    """Per function name: calls, inclusive time `s`, `self_s` and summed
    work counts."""
    covered = collections.defaultdict(float)
    for _, parent, _, start, end, aux, _ in spans:
        if parent:
            covered[parent] += end - start + aux
    out = collections.defaultdict(collections.Counter)
    for span_id, _, name, start, end, _, counts in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - covered[span_id]
        for key, value in (counts or {}).items():
            entry[key] += value
    for entry in out.values():
        for ratio, (num, den) in RATIOS.items():
            if entry.get(den):
                entry[ratio] = entry[num] / entry[den]
    return out
