"""Outside-in call tracer for the sl3tensor benchmark.

The tracer wraps public library functions from outside the library.  A
function bound by ``from .x import f`` lives under the same object in several
module namespaces (``classify`` sits in ``alcoves``, ``decompose``,
``modchar`` and ``cli``), so each target is replaced in every loaded module
of the package that holds it; patching only the defining module would miss
those calls.  ``Character`` is traced by wrapping its ``__init__``.

Every call becomes a span (id, parent id, op id, name, start, end) kept in
memory and written out by :meth:`Tracer.write_spans` at the end of the run.
A span's self time is its duration minus the durations of its direct child
spans; recursive calls (``simple_char`` recurses) are children like any
other, so self time stays correct through recursion.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (module, public name, record distinct argument tuples)
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("alcoves", "classify", True),
    ("alcoves", "canonical_rep", True),
    ("alcoves", "linked_weight", True),
    ("weylchar", "Character", False),
    ("weylchar", "mult", False),
    ("weylchar", "lr_tensor", False),
    ("weylchar", "mult_via_monomial", False),
    ("weylchar", "monomial_to_weyl", False),
    ("weylchar", "mono_mult", False),
    ("modchar", "simple_char", True),
    ("modchar", "tilting_char", True),
    ("modchar", "to_simple_basis", False),
    ("modchar", "m_char", False),
    ("decompose", "decompose", True),
    ("decompose", "tensor_char", False),
    ("decompose", "split_blocks", False),
    ("decompose", "greedy_tilting", False),
    ("decompose", "case3_floor_solve", False),
    ("decompose", "verify", False),
    ("sprime", "report", False),
    ("cli", "main", False),
)

# Spans beyond this many are counted but not kept, which bounds memory.
MAX_SPANS = 2_000_000

SPAN_FIELDS = (("id", "q"), ("parent", "q"), ("op", "q"), ("fn", "H"),
               ("start", "d"), ("end", "d"))


class FnStats:
    """Aggregates for one traced function."""

    __slots__ = ("index", "calls", "self_s", "keys")

    def __init__(self, index: int, distinct: bool):
        self.index = index
        self.calls = 0
        self.self_s = 0.0
        self.keys: Optional[set] = set() if distinct else None


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    return key


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.op = -1
        self.stats: Dict[str, FnStats] = {}
        self.dropped_spans = 0
        self._next_id = 0
        self._stack: List[list] = []  # [span id, child time] per open call
        self._spans = {field: array(code) for field, code in SPAN_FIELDS}
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, distinct: bool = False) -> Callable:
        """Return a traced version of ``fn`` recorded under ``name``."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = FnStats(len(self.stats), distinct)
        clock, stack, keys = self.clock, self._stack, stat.keys
        ids, parents, ops, fns, starts, ends = (
            self._spans[field] for field, _ in SPAN_FIELDS)

        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_arg_key(args, kwargs))
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if len(ids) < MAX_SPANS:
                    ids.append(frame[0])
                    parents.append(parent)
                    ops.append(self.op)
                    fns.append(stat.index)
                    starts.append(start)
                    ends.append(end)
                else:
                    self.dropped_spans += 1

        return functools.update_wrapper(traced, fn)

    def install(self, package: str = "sl3tensor", targets=TARGETS) -> None:
        """Patch every target in every loaded module of ``package``.

        Targets missing from the library are still listed, with zero calls,
        so the metric set does not depend on which functions exist.
        """
        for module_name, _, _ in targets:
            try:
                importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                pass
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for module_name, fn_name, distinct in targets:
            name = f"{module_name}.{fn_name}"
            owner = sys.modules.get(f"{package}.{module_name}")
            original = getattr(owner, fn_name, None)
            if original is None:
                self.stats.setdefault(name, FnStats(len(self.stats), distinct))
                continue
            if isinstance(original, type):
                self._patch(original, "__init__",
                            self.wrap(name, original.__init__, distinct))
                continue
            traced = self.wrap(name, original, distinct)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> Dict[str, dict]:
        """Per-function calls, self seconds and, where recorded, distinct
        argument tuples."""
        out = {}
        for name, stat in self.stats.items():
            entry = {"calls": stat.calls, "self_s": stat.self_s}
            if stat.keys is not None:
                entry["distinct"] = len(stat.keys)
            out[name] = entry
        return out

    def span_count(self) -> int:
        return len(self._spans["id"])

    def write_spans(self, path: str) -> None:
        """Write the kept spans as gzipped tab-separated text, one per line:
        id, parent id (-1 for a root), op id, function, start s, end s."""
        names = {stat.index: name for name, stat in self.stats.items()}
        s = self._spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tfn\tstart_s\tend_s\n")
            for i in range(len(s["id"])):
                fh.write(
                    f"{s['id'][i]}\t{s['parent'][i]}\t{s['op'][i]}\t"
                    f"{names[s['fn'][i]]}\t{s['start'][i]:.9f}\t{s['end'][i]:.9f}\n"
                )
