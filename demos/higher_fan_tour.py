"""Complement fans beyond the classical case: d+1 complements in one cycle.

For d >= 2 an almost complete tilting object has d+1 complements rather
than two, ordered into a cycle by their connecting classes.  This tour
picks one in C_2(A_3), prints the cycle with degrees and exchange
triangles, checks the cyclic Ext pattern, and then walks a facet around
the cycle with repeated mutation until it returns.
"""

from __future__ import annotations

import argparse

from dcluster import mutation as mut
from dcluster.tilting import enumerate_tilting
from dcluster.verify import load_context


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--diagram", default="A")
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--index", type=int, default=0,
                    help="which facet to start from")
    args = ap.parse_args()

    ctx = load_context(args.diagram, args.rank, args.d)
    oc = ctx.oc
    d = oc.d
    facet = enumerate_tilting(ctx)[args.index]
    drop = facet[0]
    almost = [x for x in facet if x != drop]
    print("facet:  %s" % " + ".join(oc.obj_name(x) for x in facet))
    print("drop:   %s" % oc.obj_name(drop))
    print("keep:   %s" % " + ".join(oc.obj_name(x) for x in almost))

    fan = mut.rotate_to(mut.fan_of(ctx, almost), drop)
    print("\n== the %d complements, in cycle order ==" % len(fan))
    for x in fan:
        print("  %-12s degree %d, color %d" % (oc.obj_name(x), oc.degree(x),
                                               oc.color(x)))
    assert len(fan) == d + 1

    print("\n== exchange triangles ==")
    tris = {t["source"]: t for t in mut.triangles_of(ctx, almost)}
    for x in fan:
        tri = tris[x]
        mid = " + ".join("%d*%s" % (m, oc.obj_name(t))
                         for t, m in tri["mults"].items() if m) or "0"
        print("  %-12s -> %-28s -> %s" % (oc.obj_name(tri["source"]), mid,
                                          oc.obj_name(tri["target"])))

    print("\n== cyclic Ext pattern (k = 1..%d) ==" % d)
    for i, x in enumerate(fan):
        for j, y in enumerate(fan):
            dims = [oc.ext_dim(x, y, k) for k in range(1, d + 1)]
            print("  Ext^*(%s, %s) = %s%s" % (
                oc.obj_name(x), oc.obj_name(y), dims,
                "   <- the one live slot" if any(dims) else ""))
    # the fan-level predicates read object indices
    idx = ctx.indices(fan)
    print("  pattern holds: %s" % mut.ext_pattern_ok(ctx, idx))
    print("  composite connecting classes nonzero: %s"
          % mut.delta_chains_nonzero(ctx, idx))

    print("\n== mutation returns after d+1 = %d steps ==" % (d + 1))
    cur, dropped = facet, drop
    for step in range(d + 1):
        new = mut.mutate(ctx, cur, dropped)
        picked = (set(new) - set(cur)).pop()
        print("  step %d: -%s +%s" % (step + 1, oc.obj_name(dropped),
                                      oc.obj_name(picked)))
        cur, dropped = new, picked
    print("  returned to start: %s" % (frozenset(cur) == frozenset(facet)))


if __name__ == "__main__":
    main()
