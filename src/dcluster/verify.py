"""Named verification checks and the deterministic report runner.

Every structural law the package can test is a registry entry with a
stable id, a behavioral statement, and a gate (some laws require d >= 2 or
d >= 3; gated checks are reported as "n/a" rather than omitted, so a report
is always a complete map of what was and was not checkable).

Reports are plain dictionaries with canonical ordering and no timing or
environment data, so serializing one is byte-reproducible for a fixed
configuration.  Wall-clock times are returned separately for console use.
"""

from __future__ import annotations

import json
import math
import time
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import complex as cpxmod
from . import mutation as mut
from .orbit import OrbitCategory
from .quiver import coxeter_data, fomin_reading_count, parse_quiver
from .reps import ModuleCategory
from .tilting import (TiltingContext, _bits, _closure, complete_mask, facet_masks,
                      verify_equivalence)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# context construction


def load_context(diagram: str, rank: int, d: int, prime: int = 101,
                 orientation=None) -> TiltingContext:
    """Build a TiltingContext for a configuration."""
    q = parse_quiver(diagram, rank, orientation)
    return TiltingContext(OrbitCategory(ModuleCategory(q, p=prime), d))


# ---------------------------------------------------------------------------
# individual checks; each returns a result dict with "status" and "instances"


def _pass(instances: int, **detail) -> Dict[str, object]:
    out = {"status": "pass", "instances": instances}
    out.update(detail)
    return out


def _fail(instances: int, counterexample, **detail) -> Dict[str, object]:
    out = {"status": "fail", "instances": instances,
           "counterexample": counterexample}
    out.update(detail)
    return out


def _names(ctx: TiltingContext, idx) -> List[str]:
    """The names of the objects with indices `idx`, for a counterexample."""
    return [ctx.oc.obj_name(ctx.objects[i]) for i in idx]


def check_euler_identity(ctx: TiltingContext) -> Dict[str, object]:
    # linear-algebra dimensions against max(+-<a, b>, 0), the dimension table's rule
    cat = ctx.oc.cat
    count = 0
    for a in cat.roots:
        for b in cat.roots:
            count += 1
            e = cat.euler_pairing(a, b)
            if cat.hom_dim(a, b) != max(e, 0) or cat.ext_dim(a, b) != max(-e, 0):
                return _fail(count, {"pair": [list(a), list(b)]})
    return _pass(count)


def check_domain_size(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    objs = oc.objects()
    want = oc.d * len(oc.cat.roots) + oc.cat.q.rank
    ok = (len(objs) == want and len(set(objs)) == len(objs)
          and all(oc.is_canonical(x) for x in objs)
          and all(oc.parse_name(oc.obj_name(x)) == x for x in objs))
    if not ok:
        return _fail(len(objs), {"expected": want, "got": len(objs)})
    return _pass(len(objs), size=want)


def check_cy_duality(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    objs = oc.objects()
    table, shifts, d = oc.hom_table, oc.shifts, oc.d
    n, width = len(objs), d + 2
    # (x, y, i) fails when Ext^i(x, y) = Hom(x, y[i]) (row x at the columns
    # shifts[i]) differs from Ext^(d+1-i)(y, x) (column shifts[d+1-i][x]);
    # instances count in (x, y, i) order: the first failure is x's least (y, i)
    for x, row in enumerate(table):
        bad = []
        for i in range(width):
            ext = list(map(row.__getitem__, shifts[i]))
            dual = list(map(itemgetter(shifts[d + 1 - i][x]), table))
            if ext != dual:
                bad.append((next(y for y in range(n) if ext[y] != dual[y]), i))
        if bad:
            y, i = min(bad)
            return _fail((x * n + y) * width + i + 1, {"x": oc.obj_name(objs[x]),
                                                       "y": oc.obj_name(objs[y]), "i": i})
    return _pass(n * n * width)


def check_degree_hom(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    d = oc.d
    objs = oc.objects()
    hom = ctx.hom_dims()
    count = 0
    for a, x in enumerate(objs):
        if hom[a][a] != 1:
            return _fail(count, {"object": oc.obj_name(x), "end_dim": hom[a][a]})
        for b, y in enumerate(objs):
            count += 1
            if a == b or hom[a][b] == 0:
                continue
            i, j = oc.degree(x), oc.degree(y)
            allowed = i in (j, j - 1) if j >= 1 else i in (0, d - 1, d)
            if not allowed:
                return _fail(count, {"x": oc.obj_name(x), "y": oc.obj_name(y),
                                     "degrees": [i, j]})
    return _pass(count)


def check_window_reduction(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    objs = oc.objects()
    count = 0
    for x in objs:
        for y in objs:
            if not 0 <= oc.degree(y) - oc.degree(x) <= oc.d - 1:
                continue
            count += 1
            derived = oc.piece_dim(x, y)
            if oc.hom_dim(x, y) != derived or oc.hom_dim_wide(x, y) != derived:
                return _fail(count, {"x": oc.obj_name(x), "y": oc.obj_name(y)})
    return _pass(count)


def check_rigidity_equivalence(ctx: TiltingContext) -> Dict[str, object]:
    res = verify_equivalence(ctx)
    if not res["ok"]:
        return _fail(res["count"], {k: v for k, v in res.items() if k != "ok"})
    return _pass(res["count"], maximal_sizes=res["maximal_sizes"])


def check_rigid_extends(ctx: TiltingContext) -> Dict[str, object]:
    # each greedy completion must be complete rigid: n summands
    n, singles = ctx.n, len(ctx.objects)
    for i in range(singles):
        size = complete_mask(ctx, 1 << i).bit_count()
        if size != n:
            return _fail(i + 1, {"start": _names(ctx, [i]), "size": size})
    # a rigid face's completion is the face and the greedy walk from its
    # common neighbours, and every face has n - 1 summands, so the faces
    # with one common-neighbour mask complete to one size: only the first of
    # them in table order is completed.  A face that is not rigid is its own
    # key (~face), and completing it raises.
    table = mut.face_table(ctx)
    seen = set()
    for at, face in enumerate(table.masks()):
        rigid, common = _closure(ctx, face)
        key = common if rigid else ~face
        if key not in seen:
            seen.add(key)
            size = complete_mask(ctx, face).bit_count()
            if size != n:
                return _fail(singles + at + 1, {"start": _names(ctx, _bits(face)), "size": size})
    return _pass(singles + len(table))


def check_complement_count(ctx: TiltingContext) -> Dict[str, object]:
    d = ctx.oc.d
    cycles = mut.face_table(ctx).cycles
    return _each_fan(ctx, lambda fid: (1, len(cycles[fid]) == d + 1), "almost",
                     lambda fan: {"complements": len(fan)}, complements_each=d + 1)


def _each_fan(ctx: TiltingContext, law: Callable[[int], Tuple[int, bool]], name: str,
              extra: Optional[Callable[[Tuple[int, ...]], Dict[str, object]]] = None,
              **detail) -> Dict[str, object]:
    """Pass with the sum over the faces, in table order, of the instances in
    law(fan id) = (instances, holds), asked once per fan id in id order,
    the order of the fans' first faces; else fail at the first face whose
    fan breaks it, naming the face ("almost") or its fan ("fan"), plus the
    fields extra(fan) when given.  The faces before it have fans asked
    already, so the count needs no further law.  This is the one loop of
    the checks over every fan."""
    table = mut.face_table(ctx)
    cycles, fan_ids = table.cycles, table.fan_ids
    verdicts: List[Tuple[int, bool]] = []
    for fid in range(len(cycles)):
        verdicts.append(law(fid))
        if not verdicts[fid][1]:
            break
    else:
        counts = [inst for inst, _ in verdicts]
        return _pass(sum(map(counts.__getitem__, fan_ids)), **detail)
    total = 0
    for mask, fid in zip(table.masks(), fan_ids):
        inst, holds = verdicts[fid]
        total += inst
        if not holds:
            named = _bits(mask) if name == "almost" else cycles[fid]
            example = {name: _names(ctx, named)}
            if extra is not None:
                example.update(extra(cycles[fid]))
            return _fail(total, example)


def _each_fan_law(ctx: TiltingContext, law: Callable, name: str) -> Dict[str, object]:
    """_each_fan of a law of the fan alone, one instance per face."""
    cycles = mut.face_table(ctx).cycles
    return _each_fan(ctx, lambda fid: (1, law(ctx, cycles[fid])), name)


def _each_fan_rotations(ctx: TiltingContext,
                        law: Callable[[TiltingContext, Tuple[int, ...]], Tuple[int, int]],
                        **detail) -> Dict[str, object]:
    """_each_fan of a law of the fan alone giving (rotations, violations)."""
    cycles = mut.face_table(ctx).cycles

    def rotations(fid: int) -> Tuple[int, bool]:
        inst, viol = law(ctx, cycles[fid])
        return inst, not viol
    return _each_fan(ctx, rotations, "almost",
                     lambda fan: {"degrees": list(mut.fan_degrees(ctx, fan))}, **detail)


def check_fan_ext_pattern(ctx: TiltingContext) -> Dict[str, object]:
    return _each_fan_law(ctx, mut.ext_pattern_ok, "fan")


def check_delta_composites(ctx: TiltingContext) -> Dict[str, object]:
    return _each_fan_law(ctx, mut.delta_chains_nonzero, "fan")


def check_middle_rigid(ctx: TiltingContext) -> Dict[str, object]:
    # mut.fan_middles checks every face's own triangles before any verdict
    cycles, middles = mut.face_table(ctx).cycles, mut.fan_middles(ctx)
    return _each_fan(ctx, lambda fid: (1, mut.middle_union_rigid(
        ctx, cycles[fid], mut.supports_of(middles[fid]))), "almost")


def check_successor_hom(ctx: TiltingContext) -> Dict[str, object]:
    return _each_fan_law(ctx, mut.successor_hom_vanishing, "almost")


def check_middles_disjoint(ctx: TiltingContext) -> Dict[str, object]:
    middles = mut.fan_middles(ctx)
    return _each_fan(ctx, lambda fid: (1, mut.middle_supports_disjoint(
        mut.supports_of(middles[fid]))), "almost")


def check_complement_degrees(ctx: TiltingContext) -> Dict[str, object]:
    return _each_fan_rotations(ctx, mut.degree_bounds_instances, fans=len(mut.face_table(ctx)))


def check_degree_profile(ctx: TiltingContext) -> Dict[str, object]:
    return _each_fan_rotations(ctx, mut.degree_profile_instances)


def check_exchange_team_fan(ctx: TiltingContext) -> Dict[str, object]:
    d = ctx.oc.d
    fans = {mut.cyclic_form(fan) for fan in mut.face_table(ctx).cycles}
    # instances: the cyclic (d+1)-tuples of distinct objects
    candidates = math.perm(len(ctx.objects), d + 1) // (d + 1)
    teams = set(mut.exchange_teams_exhaustive(ctx))
    if teams != fans:
        def by_objects(team):
            return tuple(ctx.objects[i] for i in team)
        extra = sorted(teams - fans, key=by_objects) + sorted(fans - teams, key=by_objects)
        return _fail(candidates, {"difference": [_names(ctx, t) for t in extra]})
    return _pass(candidates, converse="exhaustive", teams=len(teams))


def check_hom_onedirectional(ctx: TiltingContext) -> Dict[str, object]:
    for count, mask in enumerate(facet_masks(ctx), 1):
        if not mut.hom_one_directional(ctx, mask):
            return _fail(count, {"facet": _names(ctx, _bits(mask))})
    return _pass(len(facet_masks(ctx)))


def check_mutation_connected(ctx: TiltingContext) -> Dict[str, object]:
    res = mut.mutation_graph_checks(ctx)
    if not res["connected"]:
        return _fail(res["vertices"], {"vertices": res["vertices"]})
    return _pass(res["vertices"])


def check_mutation_regular(ctx: TiltingContext) -> Dict[str, object]:
    res = mut.mutation_graph_checks(ctx)
    if not res["regular"]:
        return _fail(res["vertices"], {"expected_degree": res["degree"]})
    return _pass(res["vertices"], degree=res["degree"])


def check_complex_purity(ctx: TiltingContext) -> Dict[str, object]:
    stats = cpxmod.facet_stats(cpxmod.build_complex(ctx))
    if not stats["pure"]:
        return _fail(stats["facets"], {"facets": stats["facets"]})
    return _pass(stats["facets"])


def check_codim1_incidence(ctx: TiltingContext) -> Dict[str, object]:
    stats = cpxmod.facet_stats(cpxmod.build_complex(ctx))
    if not stats["codim1_in_d_plus_1"]:
        return _fail(stats["codim1_faces"],
                     {"incidence": stats["codim1_incidence"]})
    return _pass(stats["codim1_faces"])


def check_colors_in_fans(ctx: TiltingContext) -> Dict[str, object]:
    stats = cpxmod.facet_stats(cpxmod.build_complex(ctx))
    if not stats["colors_ok"]:
        return _fail(stats["codim1_faces"], {})
    return _pass(stats["codim1_faces"])


def check_gamma_bijection(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    if not cpxmod.gamma_is_bijection(oc):
        return _fail(len(ctx.objects), {})
    return _pass(len(ctx.objects))


def check_facet_count(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    got = len(facet_masks(ctx))
    # the count reads only h and the exponents; Phi must also have order h
    coxeter_data(oc.cat.q)
    want = fomin_reading_count(oc.cat.q, oc.d)
    if got != want:
        return _fail(got, {"enumerated": got, "formula": want})
    return _pass(got, count=got, formula=want)


# (id, statement, minimum d, function); dependency order
CHECKS: List[Tuple[str, str, int, Callable]] = [
    ("euler-identity",
     "hom minus ext of module pairs equals the Euler form of dimension vectors",
     1, check_euler_identity),
    ("fundamental-domain-size",
     "the fundamental domain has d*|positive roots| + n canonical objects",
     1, check_domain_size),
    ("cy-duality",
     "shifted-Ext dimensions satisfy the (d+1)-Calabi-Yau symmetry",
     1, check_cy_duality),
    ("degree-hom-constraints",
     "one-dimensional endomorphisms; nonzero Hom constrains the degree pair",
     2, check_degree_hom),
    ("window-hom-reduction",
     "orbit Homs within the degree window equal derived-category Homs",
     2, check_window_reduction),
    ("rigidity-equivalence",
     "maximal rigid = size-n rigid = tilting over the full rigid-set space",
     1, check_rigidity_equivalence),
    ("rigid-extends-to-tilting",
     "singletons and almost complete sets all complete to tilting sets",
     1, check_rigid_extends),
    ("complement-count",
     "every almost complete set has exactly d+1 complements in one cycle",
     1, check_complement_count),
    ("complement-degrees",
     "fan rotations starting at degree 0 obey the degree bounds",
     2, check_complement_degrees),
    ("fan-ext-pattern",
     "every fan satisfies the cyclic shifted-Ext dimension pattern",
     1, check_fan_ext_pattern),
    ("delta-composites",
     "all composites of consecutive connecting classes are nonzero",
     1, check_delta_composites),
    ("middle-rigid",
     "triangle middles agree between approximation routes and stay rigid",
     1, check_middle_rigid),
    ("exchange-team-fan",
     "tuples with the pattern and nonzero composites are exactly the fans",
     1, check_exchange_team_fan),
    ("degree-profile",
     "fans starting 0 with nonzero next degree follow the two-piece profile",
     2, check_degree_profile),
    ("summand-hom-onedirectional",
     "distinct summands of a tilting set have Hom in at most one direction",
     3, check_hom_onedirectional),
    ("successor-hom-vanishing",
     "consecutive fan members have no plain Hom",
     3, check_successor_hom),
    ("middle-terms-disjoint",
     "middle terms of one fan share no indecomposable summand",
     2, check_middles_disjoint),
    ("mutation-connected",
     "the mutation graph is connected",
     1, check_mutation_connected),
    ("mutation-regular",
     "the mutation graph is n*d-regular",
     1, check_mutation_regular),
    ("complex-purity",
     "every facet of the cluster complex has exactly n vertices",
     1, check_complex_purity),
    ("codim1-incidence",
     "every codimension-1 face lies in exactly d+1 facets",
     1, check_codim1_incidence),
    ("colors-in-fans",
     "every color 1..d occurs among the complements of each codim-1 face",
     1, check_colors_in_fans),
    ("gamma-bijection",
     "colored-root labels biject onto d-colored positive roots + negatives",
     1, check_gamma_bijection),
    ("facet-count-formula",
     "facet count equals the Coxeter-exponent product formula",
     1, check_facet_count),
]

CHECK_IDS = [entry[0] for entry in CHECKS]


def iter_checks(ctx: TiltingContext, only: Optional[Sequence[str]] = None
                ) -> Iterator[Tuple[Dict[str, object], float]]:
    """Run (selected) checks in registry order, yielding (entry, seconds) as
    each one finishes."""
    if only is not None:
        unknown = [c for c in only if c not in CHECK_IDS]
        if unknown:
            raise ValueError("unknown check id: %s" % ", ".join(unknown))
    for cid, statement, min_d, fn in CHECKS:
        if only is not None and cid not in only:
            continue
        entry = {"id": cid, "statement": statement}
        if ctx.oc.d < min_d:
            entry["status"] = "n/a"
            entry["instances"] = 0
            entry["reason"] = "requires d >= %d" % min_d
            yield entry, 0.0
        else:
            t0 = time.perf_counter()
            entry.update(fn(ctx))
            yield entry, time.perf_counter() - t0


def make_report(ctx: TiltingContext, results: List[Dict[str, object]]
                ) -> Dict[str, object]:
    """The deterministic report over the check entries of iter_checks."""
    oc = ctx.oc
    q = oc.cat.q
    return {
        "schema": "verification-report",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "diagram": q.diagram,
            "rank": q.rank,
            "orientation": [list(a) for a in q.arrows],
            "d": oc.d,
            "prime": oc.cat.p,
        },
        "checks": results,
        "summary": {
            "pass": sum(1 for r in results if r["status"] == "pass"),
            "fail": sum(1 for r in results if r["status"] == "fail"),
            "n/a": sum(1 for r in results if r["status"] == "n/a"),
        },
    }


def run_checks(ctx: TiltingContext, only: Optional[Sequence[str]] = None
               ) -> Tuple[Dict[str, object], Dict[str, float]]:
    """Run (selected) checks; returns (report, wall-times by check id).

    The report carries no timing data and is deterministic for a fixed
    configuration; the float map is for console display only.
    """
    results = []
    timings: Dict[str, float] = {}
    for entry, seconds in iter_checks(ctx, only):
        results.append(entry)
        timings[entry["id"]] = seconds
    return make_report(ctx, results), timings


def report_to_json(report: Dict[str, object]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
