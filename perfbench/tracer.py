"""Tracing of graphcodes from outside the package.

The tracer replaces public functions of the graphcodes modules with
wrappers while a traced pass runs, and puts the originals back after.
A function is patched at every module attribute bound to it, not only
in the module that defines it: ``jgc`` calls ``rref`` through its own
``from graphcodes.matrix import rref`` binding, so patching
``matrix.rref`` alone would miss those calls.

Two kinds of wrapper exist.  A span wrapper records one span per call
(name, start, end, parent span, operation id); a layer's self time is
its spans' duration minus the time covered by their child spans.  A
count wrapper only counts calls; it is used where a span per call would
cost more than the work (field arithmetic, ``shell_index``), so that
work shows up in the self time of its caller.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

MARK = "__perfbench_original__"

# (module, attribute, label) of functions traced with spans
SPAN_FUNCTIONS = [
    ("graphcodes.matrix", "det", "matrix.det"),
    ("graphcodes.matrix", "rref", "matrix.rref"),
    ("graphcodes.matrix", "rank", "matrix.rank"),
    ("graphcodes.matrix", "nullspace", "matrix.nullspace"),
    ("graphcodes.matrix", "solve", "matrix.solve"),
    ("graphcodes.matrix", "pi", "matrix.pi"),
    ("graphcodes.jgc", "anchored_minor_vector", "jgc.anchored_minor_vector"),
    ("graphcodes.jgc", "certify_infosets", "jgc.certify_infosets"),
    ("graphcodes.jgc", "dual", "jgc.dual"),
    ("graphcodes.jgc", "sparse_parities", "jgc.sparse_parities"),
    ("graphcodes.jgc", "express_in_rows", "jgc.express_in_rows"),
    ("graphcodes.jgc", "aligned_dual_rows", "jgc.aligned_dual_rows"),
    ("graphcodes.jgc", "syndrome_of", "jgc.syndrome_of"),
    ("graphcodes.jgc", "erasure_decode", "jgc.erasure_decode"),
    ("graphcodes.jgc", "_dense_complete", "jgc.dense_fallback"),
    ("graphcodes.rs", "rs_jgc", "rs.rs_jgc"),
    ("graphcodes.layered", "encode_layered", "layered.encode_layered"),
    ("graphcodes.concat", "build_concat", "concat.build"),
    ("graphcodes.storesim", "ingest", "storesim.ingest"),
    ("graphcodes.storesim", "collect", "storesim.collect"),
    ("graphcodes.storesim", "repair_node", "storesim.repair"),
    ("graphcodes.storesim", "save_state", "storesim.save"),
    ("graphcodes.storesim", "load_state", "storesim.load"),
]

# (module, class, method, label) of methods traced with spans
SPAN_METHODS = [
    ("graphcodes.concat", "ConcatCode", "encode", "concat.encode"),
    ("graphcodes.concat", "ConcatCode", "collect", "concat.collect"),
    ("graphcodes.concat", "ConcatCode", "repair", "concat.repair"),
]

# calls counted without spans
COUNT_FUNCTIONS = [
    ("graphcodes.combinat", "shell_index", "combinat.shell_index"),
]
COUNT_METHODS = [
    ("graphcodes.field", "FieldSpec", op, f"field.{op}")
    for op in ("add", "sub", "neg", "mul", "inv")
]


def _graphcodes_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "graphcodes"
                                  or name.startswith("graphcodes."))]


def installed_wrappers() -> List[str]:
    """Names of graphcodes attributes that are tracer wrappers now."""
    found = []
    for mod in _graphcodes_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if hasattr(fn, MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


def assert_untraced() -> None:
    found = installed_wrappers()
    if found:
        raise RuntimeError(f"tracer wrappers still installed: {found}")


class Tracer:
    """Spans and call counts of one traced pass.

    Spans live in flat arrays (one entry per call) so that passes with
    millions of determinant calls stay small in memory.
    """

    def __init__(self):
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: List[int] = []
        self.op_id = 0
        self._cells: Dict[str, List[int]] = {}
        self.parity_keys = set()
        self._patches: List[Tuple[object, str, object]] = []

    # ----- wrappers -----

    def _span(self, label: str, fn: Callable, on_call=None) -> Callable:
        name_id = self._name_id.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        setattr(wrapper, MARK, fn)
        return wrapper

    def _count(self, label: str, fn: Callable) -> Callable:
        # The wrapper takes fn's own parameters and bumps a list cell:
        # packing *args and **kwargs, or a Counter update, costs more
        # than a prime-field add, and a pass makes up to 10^8 field calls.
        import inspect  # here: at module level it adds 0.5 MB to peak_rss_mb
        params = list(inspect.signature(fn).parameters.values())
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                   for p in params), fn
        names = ", ".join(p.name for p in params)
        scope: dict = {}
        exec(f"def make(cell, fn):\n"
             f"    def wrapper({names}):\n"
             f"        cell[0] += 1\n"
             f"        return fn({names})\n"
             f"    return wrapper\n", scope)
        wrapper = scope["make"](self._cells.setdefault(label, [0]), fn)
        setattr(wrapper, MARK, fn)
        return wrapper

    @property
    def counts(self) -> Dict[str, int]:
        """label -> calls, for the functions counted without spans."""
        return {label: cell[0] for label, cell in self._cells.items()}

    def _note_parities(self, args) -> None:
        code, anchor = args[0], args[1]
        self.parity_keys.add((code.F.q, code.v, code.t, code.order,
                              tuple(map(tuple, code.base)),
                              tuple(sorted(anchor))))

    def operation(self, kind: str, fn: Callable) -> Callable:
        """Root span for one benchmark operation; children share its id."""
        self.op_id += 1
        return self._span(f"op.{kind}", fn)

    # ----- install / uninstall -----

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        assert_untraced()
        for mod_name, *_ in SPAN_FUNCTIONS + COUNT_FUNCTIONS + SPAN_METHODS:
            importlib.import_module(mod_name)
        modules = _graphcodes_modules()
        targets = [(m, a, lbl, True) for m, a, lbl in SPAN_FUNCTIONS]
        targets += [(m, a, lbl, False) for m, a, lbl in COUNT_FUNCTIONS]
        for mod_name, attr, label, span in targets:
            original = getattr(sys.modules[mod_name], attr)
            if span:
                on_call = (self._note_parities
                           if label == "jgc.sparse_parities" else None)
                wrapper = self._span(label, original, on_call)
            else:
                wrapper = self._count(label, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for mod_name, cls_name, meth, label in SPAN_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth, self._span(label, getattr(cls, meth)))
        for mod_name, cls_name, meth, label in COUNT_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth, self._count(label, getattr(cls, meth)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----- results -----

    def layer_stats(self) -> Dict[str, Tuple[int, float]]:
        """label -> (calls, self seconds) over all closed spans."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * len(starts)
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_s[name_id] += ends[i] - starts[i] - child[i]
        return {label: (calls[i], self_s[i]) for i, label in enumerate(self.names)}


class ReadRow(list):
    """A node array that records every index read through ``row[i]``."""

    __slots__ = ("node", "log")

    def __init__(self, values, node: int, log: list):
        super().__init__(values)
        self.node = node
        self.log = log

    def __getitem__(self, i):
        self.log.append((self.node, i))
        return list.__getitem__(self, i)
