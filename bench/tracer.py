"""Span tracer that wraps the public functions of the aseplab modules.

The program itself is not changed.  `install()` replaces, in every aseplab
module, each public function bound at module level -- including names bound
by `from .x import y`, so `coupling.sample_blocking` and `cli.run_ensemble`
are wrapped where their callers look them up -- and each public method
defined on a class, with one timing wrapper per original function.
`uninstall()` puts the originals back.

Each call through a wrapper records one span: name, start, end, parent span
and command id, in compact in-memory arrays.  Layers are the modules; a
span's layer is the module that defines the function.  Self times are
derived from the spans after the run.
"""

from array import array
import functools
import inspect
import time

import numpy as np

LAYERS = ("qseries", "partitions", "blocking", "coupling", "verify", "cli")

# Per-element helpers called 10^4..10^6 times in one command (counted with
# cProfile on the benchmark workloads).  Wrapping them would cost more than
# the work they do; their time stays in the caller's self time.
HOT = frozenset({
    "partitions.as_partition",                 # ~130k per exact verify
    "partitions.durfee_decompose",             # ~65k per exact verify
    "partitions.DurfeeDecomposition.reassemble",
    "qseries.IntPoly.coeff",                   # ~290k per exact verify
    "qseries.IntPoly.shift",                   # ~11k per exact verify
    "partitions.IntSeries.coeff",
    "coupling.enabled_transitions",            # once per event, inside choose
    "coupling.as_labels",                      # once per event
    "coupling.second_class_positions",         # once per probe record
    "coupling.eta_from",
    "coupling.labels_from_positions",
    "coupling.CoupledState.particle_sites",
    "coupling.CoupledState.copy",
    "blocking.WindowState.occupancy",
    "blocking.WindowState.particle_count",
    "blocking.WindowState.conserved_N",
    "blocking.WindowState.copy",
})

# Spans whose return value is also counted: span name -> counter name.
RESULT_COUNTERS = {"partitions.enumerate_partitions": "partitions.enumerated"}


class Tracer:
    """Records spans for calls into aseplab modules."""

    def __init__(self):
        self.names = []
        self.layers = []
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {c: 0 for c in RESULT_COUNTERS.values()}
        self.cmd_id = -1
        self._stack = []
        self._ids = {}       # span name -> index in names
        self._wrappers = {}  # original function -> wrapper
        self._undo = []      # (owner, attribute, original)

    def _wrap(self, fn, name):
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
        counter = RESULT_COUNTERS.get(name)
        stack, perf = self._stack, time.perf_counter
        names, parents, cmds = self.name, self.parent, self.cmd
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            cmds.append(self.cmd_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if counter is not None:
                self.counters[counter] += len(result)
            return result

        return wrapper

    def _replace(self, owner, attr, fn, name):
        if name in HOT:
            return
        wrapper = self._wrappers.get(fn)
        if wrapper is None:
            wrapper = self._wrappers[fn] = self._wrap(fn, name)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self, modules):
        """Wrap the public functions of the given aseplab modules.  The same
        span name keeps its id when a module has been imported afresh."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("aseplab."):
                    layer = obj.__module__.split(".", 1)[1]
                    self._replace(mod, attr, obj, f"{layer}.{obj.__qualname__}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    layer = mod.__name__.split(".", 1)[1]
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            self._replace(obj, mname, meth,
                                          f"{layer}.{meth.__qualname__}")

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def spans(self):
        """Recorded spans as numpy arrays, with duration and self time."""
        if self._stack:
            raise RuntimeError("spans read while a span is open")
        # copies, so the arrays can keep growing afterwards
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        dur = np.array(self.end, dtype=np.float64) - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return {
            "name": name,
            "layer": np.array([LAYERS.index(x) for x in self.layers],
                              dtype=np.int32)[name] if len(name) else name,
            "parent": parent,
            "cmd": np.array(self.cmd, dtype=np.int32),
            "start": start,
            "dur": dur,
            "self": dur - covered,
        }

    def name_ids(self, *names):
        """Ids of the given span names that were wrapped."""
        return [self._ids[n] for n in names if n in self._ids]

    def save(self, path, cmd_pass):
        sp = self.spans()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(LAYERS),
            cmd_pass=np.asarray(cmd_pass, dtype=np.int32),
            **sp,
        )
