"""Command-line interface: inspect categories, run verifications, export data.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad flags,
names, files, unwritable output paths, config values or primes, or a
configuration too large for memory), 3 internal error (a violated internal
invariant; one line naming the configuration), 141 stdout closed by its
reader before the command finished (no traceback).
A JSON config file (--config) may supply any of the common flags; explicit
command-line flags win over config values.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import complex as cpxmod
from . import mutation as mut
from .quiver import ARROWS_SHAPE, DynkinQuiver, fomin_reading_count, parse_quiver
from .tilting import TiltingContext, enumerate_tilting, is_tilting
from .verify import CHECK_IDS, FAN_CHECKS, iter_checks, load_context, make_report, report_to_json


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# argument handling


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--diagram", help="Dynkin family letter (A, D, or E)")
    sp.add_argument("--rank", type=int, help="number of vertices")
    sp.add_argument("--d", type=int, help="shift parameter d >= 1")
    sp.add_argument("--prime", type=int, help="field characteristic (default 101)")
    sp.add_argument("--orientation",
                    help="'default' or a JSON file with a list of [source, target] arrows")
    sp.add_argument("--out", help="write the command's JSON output here")
    sp.add_argument("--config", help="JSON file supplying any of the flags above")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dcluster parser, built once per process: parsing leaves it unchanged,
    and each build would leave reference cycles behind."""
    ap = argparse.ArgumentParser(
        prog="dcluster",
        description="higher cluster categories of Dynkin quivers: "
                    "objects, tilting sets, mutation, verification")
    sub = ap.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser(
        "indecomposables", help="list the fundamental domain with labels"))
    _add_common(sub.add_parser(
        "ext-table", help="print the shifted-Ext^1 dimension table"))

    tp = sub.add_parser("tilting", help="tilting-set operations")
    tsub = tp.add_subparsers(dest="tilting_command", required=True)
    _add_common(tsub.add_parser("enumerate", help="list all tilting sets"))

    cp = sub.add_parser("complements",
                        help="complement cycle of an almost complete set")
    cp.add_argument("--facet", required=True,
                    help="comma-separated object names forming a tilting set")
    cp.add_argument("--drop", required=True, help="summand to remove")
    _add_common(cp)

    mp = sub.add_parser("mutate", help="replace one summand of a tilting set")
    mp.add_argument("--facet", required=True)
    mp.add_argument("--drop", required=True)
    mp.add_argument("--pick", type=int, default=1,
                    help="steps along the fan from the dropped summand, mod d+1: 0 and "
                         "d+1 give the facet back, a negative pick steps back (default 1)")
    _add_common(mp)

    gp = sub.add_parser("mutation-graph", help="facet graph summary")
    gp.add_argument("--dot", help="write the graph in DOT format here")
    _add_common(gp)

    xp = sub.add_parser("complex", help="cluster complex summary and exports")
    xp.add_argument("--positive", action="store_true",
                    help="restrict to the positive part")
    xp.add_argument("--dot", help="write the facet-adjacency DOT here")
    _add_common(xp)

    fp = sub.add_parser("fans", help="complement cycles of all almost complete sets")
    fp.add_argument("--verify-all", action="store_true",
                    help="run every fan-level check")
    fp.add_argument("--json", dest="json_out", help="write the check report here")
    fp.add_argument("--list", action="store_true", help="print every cycle")
    _add_common(fp)

    vp = sub.add_parser("verify", help="run verification checks")
    group = vp.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument("--check", help="comma-separated check ids")
    vp.add_argument("--list-checks", action="store_true",
                    help="print the available check ids and exit")
    _add_common(vp)

    return ap


CONFIG_KEYS = {"diagram": str, "rank": int, "d": int, "prime": int,
               "orientation": str, "out": str}


def _read_json(kind: str, name: str):
    path = Path(name)
    if not path.exists():
        raise UsageError("%s file not found: %s" % (kind, path))
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise UsageError("%s file %s is not readable JSON: %s" % (kind, path, exc))


def _apply_config(args: argparse.Namespace) -> None:
    if getattr(args, "config", None):
        cfg = _read_json("config", args.config)
        if not isinstance(cfg, dict):
            raise UsageError("config file %s must hold a JSON object" % args.config)
        unknown = sorted(set(cfg) - set(CONFIG_KEYS))
        if unknown:
            raise UsageError("unknown config keys: %s" % ", ".join(unknown))
        for key, kind in CONFIG_KEYS.items():
            if key not in cfg:
                continue
            if not isinstance(cfg[key], kind) or isinstance(cfg[key], bool):
                raise UsageError("config key %s must be %s, not %s" % (
                    key, "an integer" if kind is int else "a string",
                    json.dumps(cfg[key])))
            if getattr(args, key, None) is None:
                setattr(args, key, cfg[key])
    if getattr(args, "prime", None) is None:
        args.prime = 101


def _context(args: argparse.Namespace, facets: bool = False) -> TiltingContext:
    """The configuration's context, refused before it is built
    (_check_facets_fit) when the command collects the facets and they cannot fit."""
    for key in ("diagram", "rank", "d"):
        if getattr(args, key, None) is None:
            raise UsageError("--%s is required (flag or config file)" % key)
    orientation = None
    if args.orientation not in (None, "default"):
        orientation = _read_json("orientation", args.orientation)
        # a file holding null or "default" does not ask for the default
        if not isinstance(orientation, list):
            raise UsageError(ARROWS_SHAPE)
    try:
        q = parse_quiver(args.diagram, args.rank, orientation)
        if args.d < 1:
            raise ValueError("d must be >= 1")
        if facets:
            _check_facets_fit(q, args.d)
        return load_context(args.diagram, args.rank, args.d, prime=args.prime,
                            orientation=orientation)
    except ValueError as exc:
        raise UsageError(str(exc))


def _check_facets_fit(q: DynkinQuiver, d: int) -> None:
    """Raise MemoryError, which run reports as a configuration too large,
    when the facet masks alone exceed the memory budget: RLIMIT_AS when it is
    finite, else the physical memory.  Each of the fomin_reading_count facets
    (counted from h and the exponents alone) takes at least an 8-byte list
    slot and an int with n bits set (but for the few small ints Python
    shares), so a run that fits is never refused."""
    mask = sys.getsizeof((1 << q.rank) - 1) + 8
    need = fomin_reading_count(q, d) * mask
    budget = resource.getrlimit(resource.RLIMIT_AS)[0]
    if budget == resource.RLIM_INFINITY:
        budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > budget:
        raise MemoryError("%d bytes of facet masks exceed %d" % (need, budget))


def _parse_objs(ctx: TiltingContext, text: str) -> List:
    try:
        return [ctx.oc.parse_name(nm) for nm in text.split(",") if nm.strip()]
    except ValueError as exc:
        raise UsageError(str(exc))


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc))


def _write_out(args: argparse.Namespace, payload: dict) -> None:
    if getattr(args, "out", None):
        _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _line(oc, x) -> str:
    lab = cpxmod.gamma(oc, x)
    sign = "-" if lab[2] == "negative-simple" else "+"
    # one %-format of the label: faster than a str() per coordinate, joined
    return "%-12s dim=%s degree=%d color=%d label=%s(%s)^%d" % (
        oc.obj_name(x), list(x[0]), oc.degree(x), oc.color(x),
        sign, ",".join(["%d"] * len(lab[0])) % lab[0], lab[1])


# ---------------------------------------------------------------------------
# subcommands


def cmd_indecomposables(args) -> int:
    ctx = _context(args)
    oc = ctx.oc
    objs = ctx.objects
    for x in objs:
        print(_line(oc, x))
    print("%d objects" % len(objs))
    _write_out(args, {
        "schema": "indecomposables", "schema_version": 1,
        "objects": [{"name": oc.obj_name(x), "root": list(x[0]),
                     "shift": x[1], "degree": oc.degree(x),
                     "color": oc.color(x)} for x in objs]})
    return 0


def cmd_ext_table(args) -> int:
    ctx = _context(args)
    oc = ctx.oc
    objs = ctx.objects
    # Ext^1(X_i, X_j) = Hom(X_i, X_j[1]), built before anything is printed,
    # so a configuration too large for the table prints only the error line
    table = [[row[j] for j in oc.shifts[1]] for row in oc.hom_table]
    names = [oc.obj_name(x) for x in objs]
    width = max(len(nm) for nm in names)
    print(" " * width, " ".join(nm.rjust(width) for nm in names))
    for nm, row in zip(names, table):
        print(nm.rjust(width), " ".join(str(v).rjust(width) for v in row))
    _write_out(args, {"schema": "ext-table", "schema_version": 1,
                      "objects": names, "ext1": table})
    return 0


def cmd_tilting_enumerate(args) -> int:
    ctx = _context(args, facets=True)
    oc = ctx.oc
    facets = enumerate_tilting(ctx)
    for f in facets:
        print(" + ".join(oc.obj_name(x) for x in f))
    print("%d tilting sets" % len(facets))
    _write_out(args, {"schema": "tilting-sets", "schema_version": 1,
                      "facets": [[oc.obj_name(x) for x in f] for f in facets]})
    return 0


NOT_TILTING = "--facet is not a tilting set"


def _facet_and_drop(ctx: TiltingContext, args) -> Tuple[List, object]:
    """The --facet and its one summand --drop, as objects; the caller tests
    the facet for tilting."""
    facet = _parse_objs(ctx, args.facet)
    drop = _parse_objs(ctx, args.drop)
    if len(drop) != 1:
        raise UsageError("--drop takes exactly one object name")
    if drop[0] not in facet:
        raise UsageError("%s is not a summand of the given facet" % args.drop)
    return facet, drop[0]


def cmd_complements(args) -> int:
    ctx = _context(args)
    oc = ctx.oc
    facet, drop = _facet_and_drop(ctx, args)
    if not is_tilting(ctx, facet):
        raise UsageError(NOT_TILTING)
    almost = [x for x in facet if x != drop]
    try:
        tris = mut.triangles_of(ctx, almost)
    except ValueError as exc:
        raise UsageError(str(exc))
    # tris[k] runs from X_{k+1} to X_k along the fan; from the drop X_k on,
    # list the cycle and each member's triangle as source, tris[k-1] first
    fan = [tri["target"] for tri in tris]
    k = fan.index(drop)
    fan = fan[k:] + fan[:k]
    tris = tris[k - 1:] + tris[:k - 1]
    for x in fan:
        print("%-12s degree=%d" % (oc.obj_name(x), oc.degree(x)))
    for tri in tris:
        # the middle term lists its summands in index order
        mid = " + ".join("%d*%s" % (m, oc.obj_name(t)) for t, m in tri["mults"].items()) or "0"
        print("triangle: %s -> %s -> %s" % (oc.obj_name(tri["source"]), mid,
                                            oc.obj_name(tri["target"])))
    _write_out(args, {
        "schema": "complements", "schema_version": 1,
        "almost": sorted(oc.obj_name(x) for x in almost),
        "cycle": [oc.obj_name(x) for x in fan],
        "triangles": [{"source": oc.obj_name(tri["source"]),
                       "target": oc.obj_name(tri["target"]),
                       "middle": {oc.obj_name(t): m for t, m in tri["mults"].items()}}
                      for tri in tris]})
    return 0


def cmd_mutate(args) -> int:
    ctx = _context(args)
    oc = ctx.oc
    facet, drop = _facet_and_drop(ctx, args)
    try:
        new = mut.mutate(ctx, facet, drop, pick=args.pick)
    except mut.NotTiltingError:
        raise UsageError(NOT_TILTING)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(" + ".join(oc.obj_name(x) for x in new))
    _write_out(args, {"schema": "mutate", "schema_version": 1,
                      "facet": [oc.obj_name(x) for x in new]})
    return 0


def cmd_mutation_graph(args) -> int:
    ctx = _context(args, facets=True)
    res = mut.mutation_graph_checks(ctx)
    print("vertices=%d edges=%d degree=%d regular=%s connected=%s"
          % (res["vertices"], res["edges"], res["degree"],
             res["regular"], res["connected"]))
    if args.dot:
        dot = cpxmod.facet_graph_dot(cpxmod.build_complex(ctx), "mutation")
        _write(args.dot, dot)
        print("wrote %s" % args.dot)
    _write_out(args, {"schema": "mutation-graph", "schema_version": 1,
                      "vertices": res["vertices"], "edges": res["edges"],
                      "degree": res["degree"], "regular": res["regular"],
                      "connected": res["connected"]})
    if not (res["regular"] and res["connected"]):
        raise CheckFailure("mutation graph fails regularity/connectivity")
    return 0


def cmd_complex(args) -> int:
    ctx = _context(args, facets=True)
    cpx = cpxmod.build_complex(ctx, positive_only=args.positive)
    print(cpxmod.f_vector_text(cpx).strip())
    print("%d vertices, %d facets" % (len(cpx.vertices), len(cpx.facet_masks)))
    if not args.positive:
        stats = cpxmod.facet_stats(cpx)
        print("pure=%s codim1_faces=%d codim1_in_d_plus_1=%s colors_ok=%s"
              % (stats["pure"], stats["codim1_faces"],
                 stats["codim1_in_d_plus_1"], stats["colors_ok"]))
    if args.dot:
        _write(args.dot, cpxmod.to_dot(cpx))
        print("wrote %s" % args.dot)
    _write_out(args, cpxmod.to_json(cpx))
    return 0


# the checks that read the tables only; every other check collects the facets
TABLE_CHECKS = {"euler-identity", "fundamental-domain-size", "cy-duality",
                "degree-hom-constraints", "window-hom-reduction", "gamma-bijection"}


def _check_line(entry: dict, seconds: float) -> str:
    status = entry["status"]
    extra = ""
    if status == "n/a":
        extra = " (%s)" % entry["reason"]
    elif "complements_each" in entry:
        extra = " x %d complements each" % entry["complements_each"]
    elif "counterexample" in entry:
        extra = " counterexample=%s" % json.dumps(entry["counterexample"],
                                                  sort_keys=True)
    return "%-28s %-4s %6d instances%s  [%.2fs]" % (
        entry["id"], status, entry["instances"], extra, seconds)


def _run_checks(ctx: TiltingContext, only: Optional[List[str]]) -> dict:
    """Run the checks, printing each line as soon as its check returns, so a
    killed run still leaves the finished lines behind; returns the report.

    Check ids are validated by the caller.  A ValueError or ArithmeticError
    raised inside a check is a defect of the library, not of the input, so
    it becomes an internal error naming the check.
    """
    pending = [cid for cid in CHECK_IDS if only is None or cid in only]
    results = []
    try:
        for entry, seconds in iter_checks(ctx, only):
            print(_check_line(entry, seconds), flush=True)
            results.append(entry)
    except (ValueError, ArithmeticError) as exc:
        raise RuntimeError("check %s raised %s: %s" % (
            pending[len(results)], type(exc).__name__, exc)) from exc
    report = make_report(ctx, results)
    s = report["summary"]
    print("summary: %d pass, %d fail, %d n/a" % (s["pass"], s["fail"], s["n/a"]))
    return report


def cmd_fans(args) -> int:
    if args.out:
        raise UsageError("fans writes no --out file; its check report goes to "
                         "--json with --verify-all")
    if args.json_out and not args.verify_all:
        raise UsageError("--json needs --verify-all")
    ctx = _context(args, facets=True)
    oc, objs = ctx.oc, ctx.objects
    print("%d almost complete sets" % len(mut.face_table(ctx)))
    if args.list:
        for mask, fan in mut.fans(ctx):
            print("{%s}: %s" % (", ".join(oc.obj_name(x) for x in ctx.objs_of(mask)),
                                " -> ".join(oc.obj_name(objs[i]) for i in fan)))
    rc = 0
    if args.verify_all:
        report = _run_checks(ctx, FAN_CHECKS)
        if args.json_out:
            _write(args.json_out, report_to_json(report))
        if report["summary"]["fail"]:
            rc = 1
    return rc


def cmd_verify(args) -> int:
    if args.list_checks:
        for cid in CHECK_IDS:
            print(cid)
        return 0
    only: Optional[List[str]] = None
    if args.check is not None:
        only = [c.strip() for c in args.check.split(",") if c.strip()]
        if not only:
            raise UsageError("--check names no check id")
        unknown = [c for c in only if c not in CHECK_IDS]
        if unknown:
            raise UsageError("unknown check id: %s" % ", ".join(unknown))
    elif not args.all:
        raise UsageError("verify needs --all or --check <id,...>")
    facets = only is None or not TABLE_CHECKS.issuperset(only)
    report = _run_checks(_context(args, facets), only)
    if getattr(args, "out", None):
        _write(args.out, report_to_json(report))
        print("wrote %s" % args.out)
    return 1 if report["summary"]["fail"] else 0


# ---------------------------------------------------------------------------
# dispatch


COMMANDS = {"indecomposables": cmd_indecomposables, "ext-table": cmd_ext_table,
            "tilting": cmd_tilting_enumerate, "complements": cmd_complements,
            "mutate": cmd_mutate, "mutation-graph": cmd_mutation_graph,
            "complex": cmd_complex, "fans": cmd_fans, "verify": cmd_verify}


def run(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: %s is too large: its tables do not fit in memory"
              % _config_name(args), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("internal error (%s): %s" % (_config_name(args), exc), file=sys.stderr)
        return 3


def _config_name(args: argparse.Namespace) -> str:
    return "%s%s d=%s p=%s" % (args.diagram, args.rank, args.d, args.prime)


def main() -> None:
    """The console entry point.  A reader that closes stdout early (as in
    `dcluster verify --all ... | head`) ends the run with exit code 141, the
    shell's code for SIGPIPE, and no traceback."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that flush reach
        # devnull instead of the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
