"""Outside-in tracer: spans around dcluster's public functions, patched in from here.

Nothing inside the package is changed on disk.  `Tracer.install` replaces each
traced function by a wrapper at every place the running program looks it up:
methods once on their class, module-level functions in every ``dcluster.*``
module that binds them (``complex``, ``verify`` and ``cli`` import several by
name), and the check functions inside ``verify.CHECKS``.  `uninstall` puts the
originals back.

Each call records a span (name, start, end, parent span) in flat arrays that
stay in memory until `stats` turns them into per-function figures:

  calls           number of calls
  total_s         wall time inside the function, counting nested calls of the
                  same function once
  self_s          wall time minus the time of traced calls made from inside it
  distinct_ratio  distinct argument keys / calls, for functions given a key;
                  keys are counted per context (see `next_context`)
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute path, argument key or None).  A key mirrors
# the function's signature and returns the arguments that identify the work.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("linalg.rref_mod", "dcluster.linalg", "rref_mod", None),
    ("linalg.solve_mod", "dcluster.linalg", "solve_mod", None),
    ("linalg.nullspace_mod", "dcluster.linalg", "nullspace_mod", None),
    ("linalg.rank_mod", "dcluster.linalg", "rank_mod", None),
    ("linalg.in_span", "dcluster.linalg", "in_span", None),
    ("quiver.coxeter_data", "dcluster.quiver", "coxeter_data", None),
    ("reps.knit", "dcluster.reps", "ModuleCategory.__init__", None),
    ("reps.hom_vmaps", "dcluster.reps", "ModuleCategory.hom_vmaps", None),
    ("reps.hom_basis", "dcluster.reps", "ModuleCategory.hom_basis",
     lambda self, ra, rb: (ra, rb)),
    ("reps.ext_data", "dcluster.reps", "ModuleCategory.ext_data",
     lambda self, ra, rb: (ra, rb)),
    ("reps.solve_block_map", "dcluster.reps", "ModuleCategory.solve_block_map", None),
    ("reps.copresentation", "dcluster.reps", "ModuleCategory.copresentation", None),
    ("orbit.hom_dim", "dcluster.orbit", "OrbitCategory.hom_dim", None),
    ("orbit.compose", "dcluster.orbit", "OrbitCategory.compose",
     lambda self, g, f: (f.src, f.tgt, g.tgt)),
    ("orbit.push_piece", "dcluster.orbit", "OrbitCategory.push_piece",
     lambda self, src, tgt, piece: (src, tgt)),
    ("orbit.shift_down", "dcluster.orbit", "OrbitCategory.shift_down", None),
    ("orbit.yoneda", "dcluster.orbit", "OrbitCategory.yoneda", None),
    ("orbit.hom_basis", "dcluster.orbit", "OrbitCategory.hom_basis", None),
    ("tilting.adjacency", "dcluster.tilting", "TiltingContext.adjacency", None),
    ("tilting.enumerate_tilting", "dcluster.tilting", "enumerate_tilting", None),
    ("tilting.maximal_rigid_sets", "dcluster.tilting", "maximal_rigid_sets", None),
    ("tilting.is_tilting", "dcluster.tilting", "is_tilting", None),
    ("mutation.fan_of", "dcluster.mutation", "fan_of",
     lambda ctx, almost: frozenset(almost)),
    ("mutation.triangles_of", "dcluster.mutation", "triangles_of",
     lambda ctx, almost: frozenset(almost)),
    ("mutation.right_approximation", "dcluster.mutation", "right_approximation", None),
    ("mutation.left_approximation", "dcluster.mutation", "left_approximation", None),
    ("mutation.delta_chains_nonzero", "dcluster.mutation", "delta_chains_nonzero", None),
    ("mutation.is_exchange_team", "dcluster.mutation", "is_exchange_team", None),
    ("mutation.mutation_graph_checks", "dcluster.mutation", "mutation_graph_checks", None),
    ("mutation.exchange_teams_exhaustive", "dcluster.mutation",
     "exchange_teams_exhaustive", None),
    ("complex.build_complex", "dcluster.complex", "build_complex", None),
    ("complex.facet_stats", "dcluster.complex", "facet_stats", None),
    ("complex.f_vector", "dcluster.complex", "f_vector", None),
    ("complex.to_json", "dcluster.complex", "to_json", None),
    ("verify.run_checks", "dcluster.verify", "run_checks", None),
    ("cli.run", "dcluster.cli", "run", None),
]


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted attribute path, or None."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    if isinstance(owner, type):
        return owner, parts[-1], owner.__dict__[parts[-1]]
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.keyed: Dict[int, set] = {}
        self._ids: Dict[str, int] = {}
        self._undo: List[Callable[[], None]] = []
        self.originals: Dict[str, Callable] = {}
        self.context = 0
        for name, _, _, key in TARGETS:
            nid = self._name_id(name)
            if key is not None:
                self.keyed[nid] = set()
        self.reset()

    def reset(self) -> None:
        """Forget all recorded spans and argument keys."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        for keys in self.keyed.values():
            keys.clear()

    def next_context(self) -> None:
        """Start counting argument keys afresh; call once per new context."""
        self.context += 1

    # -- patching -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn: Callable, name: str, key: Optional[Callable]) -> Callable:
        nid = self._name_id(name)
        keys = self.keyed.get(nid)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add((tracer.context, key(*args, **kwargs)))
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1])
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()

        return traced

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Point every dcluster module global bound to `original` at `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if modname != "dcluster" and not modname.startswith("dcluster."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def install(self) -> None:
        import dcluster  # noqa: F401  (loads every module that binds a target)

        if self._undo:
            raise RuntimeError("tracer is already installed")
        for name, module, path, key in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, name, key)
            self.originals[name] = original
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append(functools.partial(setattr, owner, attr, original))
            else:
                self._rebind(original, wrapper)
        checks = sys.modules["dcluster.verify"].CHECKS
        for i, (cid, statement, min_d, fn) in enumerate(list(checks)):
            name = "verify.check.%s" % cid
            wrapper = self._wrap(fn, name, None)
            self.originals[name] = fn
            checks[i] = (cid, statement, min_d, wrapper)
            self._undo.append(functools.partial(checks.__setitem__, i,
                                                (cid, statement, min_d, fn)))
            self._rebind(fn, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- aggregation ----------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_s, self_s and (if keyed) distinct_ratio."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        count = len(names)
        width = len(self.names)
        calls = [0] * width
        total = [0.0] * width
        own = [0.0] * width
        child_time = [0.0] * count
        active = [0] * width   # open spans per name along the current path
        path: List[int] = []
        for i in range(count):
            parent = parents[i]
            while path and path[-1] != parent:
                active[names[path.pop()]] -= 1
            nid = names[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            if not active[nid]:
                total[nid] += dur
            if parent >= 0:
                child_time[parent] += dur
            path.append(i)
            active[nid] += 1
        for i in range(count):
            own[names[i]] += ends[i] - starts[i] - child_time[i]
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            entry = {"calls": calls[nid], "total_s": total[nid], "self_s": own[nid]}
            if nid in self.keyed:
                distinct = len(self.keyed[nid])
                entry["distinct_ratio"] = distinct / calls[nid] if calls[nid] else 0.0
            out[name] = entry
        return out
