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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import complex as cpxmod
from . import mutation as mut
from .orbit import OrbitCategory
from .quiver import coxeter_data, fomin_reading_count, parse_quiver
from .reps import ModuleCategory
from .tilting import (TiltingContext, complete_to_tilting, enumerate_tilting,
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


def check_euler_identity(ctx: TiltingContext) -> Dict[str, object]:
    # linear-algebra dimensions against max(+-<a, b>, 0), the dimension table's rule
    cat = ctx.oc.cat
    count = 0
    for a in cat.roots:
        for b in cat.roots:
            count += 1
            e = cat.euler_pairing(a, b)
            if len(cat.hom_basis(a, b)) != max(e, 0) or cat.ext_data(a, b)[2] != max(-e, 0):
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
    dims = oc.dims()
    # (x, y, i) fails when Ext^i(x, y) differs from Ext^(d+1-i)(y, x)
    bad = np.flatnonzero(dims != dims.transpose(1, 0, 2)[:, :, ::-1])
    if bad.size:
        x, y, i = np.unravel_index(bad[0], dims.shape)
        return _fail(int(bad[0]) + 1, {"x": oc.obj_name(objs[x]),
                                       "y": oc.obj_name(objs[y]), "i": int(i)})
    return _pass(dims.size)


def check_degree_hom(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    d = oc.d
    objs = oc.objects()
    hom = oc.dims()[:, :, 0].tolist()
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
    count = 0
    for x in ctx.objects:
        complete_to_tilting(ctx, [x])
        count += 1
    for a in mut.almost_completes(ctx):
        complete_to_tilting(ctx, a)
        count += 1
    return _pass(count)


def check_complement_count(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    count = 0
    for a in mut.almost_completes(ctx):
        count += 1
        fan = mut.fan_of(ctx, a)
        if len(fan) != oc.d + 1:
            return _fail(count, {"almost": [oc.obj_name(x) for x in a],
                                 "complements": len(fan)})
    return _pass(count, complements_each=oc.d + 1)


def check_complement_degrees(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    total = 0
    fans = 0
    for a in mut.almost_completes(ctx):
        fans += 1
        fan = mut.fan_of(ctx, a)
        inst, viol = mut.degree_bounds_instances(ctx, fan)
        total += inst
        if viol:
            return _fail(total, {"almost": [oc.obj_name(x) for x in a],
                                 "degrees": list(mut.fan_degrees(ctx, fan))})
    return _pass(total, fans=fans)


def check_fan_ext_pattern(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    count = 0
    for a in mut.almost_completes(ctx):
        count += 1
        fan = mut.fan_of(ctx, a)
        if not mut.ext_pattern_ok(ctx, fan):
            return _fail(count, {"fan": [oc.obj_name(x) for x in fan]})
    return _pass(count)


def check_delta_composites(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    count = 0
    for a in mut.almost_completes(ctx):
        count += 1
        fan = mut.fan_of(ctx, a)
        if not mut.delta_chains_nonzero(ctx, fan):
            return _fail(count, {"fan": [oc.obj_name(x) for x in fan]})
    return _pass(count)


def check_middle_rigid(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    count = 0
    for a in mut.almost_completes(ctx):
        count += 1
        fan = mut.fan_of(ctx, a)
        tris = mut.triangles_of(ctx, a)
        if not mut.middle_union_rigid(ctx, fan, tris):
            return _fail(count, {"almost": [oc.obj_name(x) for x in a]})
    return _pass(count)


def check_exchange_team_fan(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    fans = {mut.cyclic_form(ctx, mut.fan_of(ctx, a))
            for a in mut.almost_completes(ctx)}
    # instances: the cyclic (d+1)-tuples of distinct objects
    candidates = math.perm(len(ctx.objects), oc.d + 1) // (oc.d + 1)
    teams = set(mut.exchange_teams_exhaustive(ctx))
    if teams != fans:
        extra = sorted(teams - fans) + sorted(fans - teams)
        return _fail(candidates,
                     {"difference": [[oc.obj_name(x) for x in t] for t in extra]})
    return _pass(candidates, converse="exhaustive", teams=len(teams))


def check_degree_profile(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    total = 0
    for a in mut.almost_completes(ctx):
        fan = mut.fan_of(ctx, a)
        inst, viol = mut.degree_profile_instances(ctx, fan)
        total += inst
        if viol:
            return _fail(total, {"almost": [oc.obj_name(x) for x in a],
                                 "degrees": list(mut.fan_degrees(ctx, fan))})
    return _pass(total)


def check_hom_onedirectional(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    count = 0
    for facet in enumerate_tilting(ctx):
        count += 1
        if not mut.hom_one_directional(ctx, facet):
            return _fail(count, {"facet": [oc.obj_name(x) for x in facet]})
    return _pass(count)


def check_successor_hom(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    count = 0
    for a in mut.almost_completes(ctx):
        count += 1
        if not mut.successor_hom_vanishing(ctx, mut.fan_of(ctx, a)):
            return _fail(count, {"almost": [oc.obj_name(x) for x in a]})
    return _pass(count)


def check_middles_disjoint(ctx: TiltingContext) -> Dict[str, object]:
    oc = ctx.oc
    count = 0
    for a in mut.almost_completes(ctx):
        count += 1
        if not mut.middle_supports_disjoint(mut.triangles_of(ctx, a)):
            return _fail(count, {"almost": [oc.obj_name(x) for x in a]})
    return _pass(count)


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
    got = len(enumerate_tilting(ctx))
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
