"""Per-layer tracing of siltkit from outside its source tree.

:class:`Tracer` wraps the functions named in :data:`TRACED`.  A module-level
function is replaced at every name it is bound under in the loaded
``siltkit.*`` modules, because callers import it with ``from .x import f``;
a method is replaced on its class.  Each call records a span
``(name, start, end, parent)`` in flat in-memory arrays, plus the few
counters the ratios need.  :meth:`Tracer.uninstall` puts every original
back.  :meth:`Tracer.dump` writes the spans and counters at the end, and
:func:`summarize` folds a dump into calls and self time per name; self
time is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

#: (layer, defining module, function or Class.method) for every traced name.
#: The metric name is ``<layer>.<function>``.
TRACED = (
    ("linalg", "siltkit.linalg", "rref"),
    ("linalg", "siltkit.linalg", "kernel_basis"),
    ("linalg", "siltkit.linalg", "solve"),
    ("core", "siltkit.core.algebras", "build_algebra"),
    ("core", "siltkit.core.modules", "minimal_projective_resolution"),
    ("homotopy", "siltkit.homotopy.homs", "HomComplex.__init__"),
    ("homotopy", "siltkit.homotopy.homs", "hom_space"),
    ("homotopy", "siltkit.homotopy.complexes", "minimize"),
    ("homotopy", "siltkit.homotopy.complexes", "cone"),
    ("homotopy", "siltkit.homotopy.compare", "is_isomorphic"),
    ("homotopy", "siltkit.homotopy.compare", "find_isomorphism"),
    ("homotopy", "siltkit.homotopy.compare", "is_indecomposable"),
    ("homotopy", "siltkit.homotopy.mutation", "silting_mutate"),
    ("homotopy", "siltkit.homotopy.mutation", "smc_mutate"),
    ("dg", "siltkit.dg.dga", "dg_end"),
    ("dg", "siltkit.dg.dga", "DGAlgebra.verify"),
    ("dg", "siltkit.dg.dga", "cohomology_algebra"),
    ("dg", "siltkit.dg.dga", "find_formality_witness"),
    ("dg", "siltkit.dg.dga", "verify_dg_quasi_iso"),
    ("dg", "siltkit.dg.dgmod", "koszul_dual"),
    ("dg", "siltkit.dg.dgmod", "semifree_resolution"),
    ("correspond", "siltkit.correspond.checks", "check_pattern"),
    ("correspond", "siltkit.correspond.checks", "check_smc"),
    ("correspond", "siltkit.correspond.checks", "check_presilting"),
    ("correspond", "siltkit.correspond.pipeline", "koszul_pair_check"),
    ("correspond", "siltkit.correspond.pipeline", "graded_algebra_isomorphism"),
    ("cli", "siltkit.cli.parsing", "parse_algebra"),
    ("cli", "siltkit.cli.parsing", "parse_collection_file"),
    ("cli", "siltkit.cli", "cmd_graph"),
)

#: Spans under this name are tracer bookkeeping; they only shield their
#: parent's self time and are dropped from the summary.
OVERHEAD = "trace.overhead"


def metric_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.removesuffix('.__init__')}"


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._hom_pairs: set[tuple[str, str]] = set()

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        before, after, on_error = self._hooks(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer._close(index)
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters behind the ratios -------------------------------------------

    def _hooks(self, name: str):
        count = self.counters

        if name == "linalg.rref":
            def before(args):
                rows = args[1]
                count["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
            return before, None, None
        if name == "homotopy.HomComplex":
            from siltkit.serialize import complex_text
            overhead = self._name_id(OVERHEAD)

            def before(args):
                index = self._open(overhead)
                key = (complex_text("x", args[1]), complex_text("x", args[2]))
                if key in self._hom_pairs:
                    count["homotopy.HomComplex.repeats"] += 1
                self._hom_pairs.add(key)
                self._close(index)
            return before, None, None
        if name == "homotopy.is_isomorphic":
            from siltkit.errors import Inconclusive

            def on_error(exc):
                if isinstance(exc, Inconclusive):
                    count["homotopy.is_isomorphic.inconclusive"] += 1
            return None, None, on_error
        if name in ("homotopy.find_isomorphism",
                    "correspond.graded_algebra_isomorphism"):
            def after(result):
                if result is not None:
                    count[f"{name}.found"] += 1
            return None, after, None
        if name == "dg.DGAlgebra.verify":
            def before(args):
                count["dg.DGAlgebra.verify.nonzero_products"] += len(args[0].products)
            return before, None, None
        return None, None, None

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in ``siltkit.*``."""
        for _, module, _ in TRACED:
            importlib.import_module(module)
        loaded = [
            m for n, m in sorted(sys.modules.items())
            if n == "siltkit" or n.startswith("siltkit.")
        ]
        for layer, module, qualname in TRACED:
            name = metric_name(layer, qualname)
            owner = sys.modules[module]
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(original, name)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original; raise if one did not come back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        for owner, attr, original in self._restore:
            current = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            if current is not original:
                raise RuntimeError(f"could not restore {attr} on {owner!r}")
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and a JSON header next to them."""
        with open(path + ".bin", "wb") as handle:
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(handle)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": len(self.span_name),
                       "counters": dict(self.counters)}, handle)


def summarize(path: str) -> tuple[dict[str, dict[str, float]], Counter]:
    """Calls and self time per traced name from one :meth:`Tracer.dump`."""
    with open(path + ".json", encoding="utf-8") as handle:
        header = json.load(handle)
    n = header["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path + ".bin", "rb") as handle:
        for arr in arrays:
            arr.fromfile(handle, n)
    names, parents, starts, ends = arrays
    child_time = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child_time[parents[i]] += ends[i] - starts[i]
    table: dict[str, dict[str, float]] = {}
    for i in range(n):
        name = header["names"][names[i]]
        if name == OVERHEAD:
            continue
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += ends[i] - starts[i] - child_time[i]
    return table, Counter(header["counters"])
