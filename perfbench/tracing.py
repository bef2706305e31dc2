"""Spans around the public functions of each ``nucleo`` layer, installed from
outside the program.

``install`` wraps every public function of the layer modules and the public
methods of ``EchelonSystem``.  A module that imported a function by name holds
its own reference, so every ``nucleo`` module attribute that refers to a
wrapped function is rebound, not only the defining one.  The package
attribute ``nucleo.nucleolus`` is the function, which shadows the submodule,
so modules are always reached through ``sys.modules``.

Each span keeps its name, start, end, parent span and the op it belongs to,
plus one size and one flag taken from the call (rows of an LP, items of an
enumeration, ...).  Spans live in flat arrays in memory and are written out
by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from functools import update_wrapper

LAYERS = ("exactlp", "coalitions", "linalg", "nucleolus", "theory")
ENUMERATIONS = frozenset({
    "coalitions.all_profiles",
    "coalitions.minimal_winning_coalitions",
    "coalitions.minimal_winning_count_vectors",
    "coalitions.minimal_winning_profiles",
    "coalitions.ordered_excess_vector",
})
OP = "op"

# flag values
PLAIN, MARKED, RAISED = 0, 1, 2


def _note_solve(args, kwargs, result, exc):
    lp = args[0] if args else kwargs["lp"]
    return len(lp.constraints), MARKED if exc or result.status != "optimal" else PLAIN


def _note_select(args, kwargs, result, exc):
    if exc is not None:
        return 0, RAISED
    return 0, MARKED if result is None else PLAIN


def _note_items(args, kwargs, result, exc):
    return (0, RAISED) if exc is not None else (len(result), PLAIN)


def _note_add_row(args, kwargs, result, exc):
    return 0, RAISED if exc is not None else (MARKED if result else PLAIN)


def _note_nucleolus(args, kwargs, result, exc):
    return (0, RAISED) if exc is not None else (result.stages, PLAIN)


NOTES = {
    "exactlp.solve": _note_solve,
    "coalitions.min_cost_selection": _note_select,
    "linalg.EchelonSystem.add_row": _note_add_row,
    "nucleolus.nucleolus": _note_nucleolus,
    **{name: _note_items for name in ENUMERATIONS},
}


def _default_note(args, kwargs, result, exc):
    return 0, RAISED if exc is not None else PLAIN


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self.flag = array("b")
        self._stack = [-1]
        self._op_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.op.append(self._op_id)
        self.parent.append(self._stack[-1])
        self.size.append(0)
        self.flag.append(PLAIN)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Open the root span that every layer span of one op descends from."""
        self._op_id = op_id
        return self._open(self._name_id(OP))

    def end_op(self, idx: int) -> None:
        self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        note = NOTES.get(name, _default_note)
        open_, close, size, flag = self._open, self._close, self.size, self.flag

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(idx)
                size[idx], flag[idx] = note(args, kwargs, None, exc)
                raise
            close(idx)
            size[idx], flag[idx] = note(args, kwargs, result, None)
            return result

        return update_wrapper(traced, fn)


def _layer_functions():
    """(owner, attribute, qualified span name) for every traced callable."""
    found = []
    for layer in LAYERS:
        mod = sys.modules[f"nucleo.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found.append((mod, attr, f"{layer}.{attr}"))
    cls = sys.modules["nucleo.linalg"].EchelonSystem
    for attr, obj in vars(cls).items():
        if not attr.startswith("_") and inspect.isfunction(obj):
            found.append((cls, attr, f"linalg.EchelonSystem.{attr}"))
    return found


def install(tracer: Tracer) -> list:
    """Patch the wrappers in; returns the undo list for ``uninstall``."""
    wrapped = {}
    undo = []
    for owner, attr, name in _layer_functions():
        original = getattr(owner, attr) if inspect.isclass(owner) else vars(owner)[attr]
        wrapped[original] = tracer.wrap(name, original)
        if inspect.isclass(owner):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped[original])
    for modname, mod in list(sys.modules.items()):
        if modname != "nucleo" and not modname.startswith("nucleo."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def summarize(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer (counts, seconds) of one traced pass.

    Busy time sums the spans of a layer that have no ancestor in the same
    layer; self time sums each span's duration minus its direct children.
    """
    names = tracer.names
    layer_of = [n.split(".")[0] for n in names]
    bit = {layer: 1 << k for k, layer in enumerate(LAYERS + (OP,))}
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0] * n
    mask = [0] * n
    outer = [True] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
            mask[i] = mask[p] | bit[layer_of[tracer.name[p]]]
            outer[i] = not mask[i] & bit[layer_of[tracer.name[i]]]

    c = {k: 0 for k in (
        "exactlp.calls", "exactlp.rows", "exactlp.not_optimal",
        "coalitions.select_calls", "coalitions.select_empty", "coalitions.select_stalls",
        "coalitions.enum_calls", "coalitions.enum_items",
        "linalg.add_row_calls", "linalg.add_row_independent",
        "nucleolus.calls", "nucleolus.stages", "theory.calls")}
    ns = {k: 0 for k in (
        "exactlp.busy_s", "coalitions.select_busy_s", "coalitions.enum_busy_s",
        "linalg.add_row_busy_s", "nucleolus.busy_s", "nucleolus.self_s",
        "theory.busy_s", "theory.self_s")}
    for i in range(n):
        name = names[tracer.name[i]]
        layer = layer_of[tracer.name[i]]
        size, flag = tracer.size[i], tracer.flag[i]
        if name == "exactlp.solve":
            c["exactlp.calls"] += 1
            c["exactlp.rows"] += size
            c["exactlp.not_optimal"] += flag == MARKED
        elif name == "coalitions.min_cost_selection":
            # a stalled call is counted as a stall, not as a call
            c["coalitions.select_calls"] += flag != RAISED
            c["coalitions.select_empty"] += flag == MARKED
            c["coalitions.select_stalls"] += flag == RAISED
            ns["coalitions.select_busy_s"] += dur[i]
        elif name in ENUMERATIONS and outer[i]:
            c["coalitions.enum_calls"] += 1
            c["coalitions.enum_items"] += size
            ns["coalitions.enum_busy_s"] += dur[i]
        elif name == "linalg.EchelonSystem.add_row":
            c["linalg.add_row_calls"] += 1
            c["linalg.add_row_independent"] += flag == MARKED
            ns["linalg.add_row_busy_s"] += dur[i]
        if name == "nucleolus.nucleolus":
            c["nucleolus.stages"] += size
        if layer in ("nucleolus", "theory"):
            ns[f"{layer}.self_s"] += dur[i] - child[i]
        if outer[i] and layer in ("exactlp", "nucleolus", "theory"):
            ns[f"{layer}.busy_s"] += dur[i]
            if layer != "exactlp":
                c[f"{layer}.calls"] += 1
    return c, {k: v / 1e9 for k, v in ns.items()}


def write_spans(tracer: Tracer, path) -> None:
    """One CSV row per span: op, span, parent, name, start/end in ns from the
    first span, size, flag."""
    t0 = tracer.start[0] if len(tracer.start) else 0
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("op,span,parent,name,start_ns,end_ns,size,flag\n")
        for i in range(len(tracer.start)):
            out.write(f"{tracer.op[i]},{i},{tracer.parent[i]},{tracer.names[tracer.name[i]]},"
                      f"{tracer.start[i] - t0},{tracer.end[i] - t0},"
                      f"{tracer.size[i]},{tracer.flag[i]}\n")
