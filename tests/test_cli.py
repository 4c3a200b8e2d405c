"""End-to-end tests of the command-line interface and its exit codes."""

from __future__ import annotations

import json

import pytest

from dcluster.cli import run

A2D1 = ["--diagram", "A", "--rank", "2", "--d", "1"]


def test_tilting_enumerate_a1_d3(capsys):
    assert run(["tilting", "enumerate", "--diagram", "A", "--rank", "1",
                "--d", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "4 tilting sets"
    assert len(out) == 5


def test_unknown_diagram_exits_2(capsys):
    assert run(["verify", "--diagram", "Z", "--rank", "2", "--d", "1",
                "--all"]) == 2
    assert "unknown diagram" in capsys.readouterr().err


def test_missing_required_flag_exits_2(capsys):
    assert run(["verify", "--diagram", "A", "--rank", "2", "--all"]) == 2
    assert "--d is required" in capsys.readouterr().err


def test_verify_all_passes(capsys):
    assert run(["verify", "--diagram", "A", "--rank", "2", "--d", "2",
                "--all"]) == 0
    out = capsys.readouterr().out
    assert "summary: 22 pass, 0 fail, 2 n/a" in out
    assert "complement-count" in out and "x 3 complements each" in out


def test_verify_check_subset(capsys):
    assert run(["verify", "--check", "cy-duality,euler-identity"] + A2D1) == 0
    out = capsys.readouterr().out
    assert "cy-duality" in out and "euler-identity" in out
    assert "facet-count-formula" not in out


def test_verify_unknown_check_exits_2(capsys):
    assert run(["verify", "--check", "nope"] + A2D1) == 2
    assert "unknown check id" in capsys.readouterr().err


def test_verify_needs_selection(capsys):
    assert run(["verify"] + A2D1) == 2
    assert "--all or --check" in capsys.readouterr().err
    for empty in (",", "", " , "):
        assert run(["verify", "--check", empty] + A2D1) == 2
        assert capsys.readouterr().err == "error: --check names no check id\n"


def test_verify_list_checks(capsys):
    assert run(["verify", "--list-checks"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 24 and "cy-duality" in out


def test_verify_out_reports_identical(tmp_path, capsys):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--all", "--out", str(pa)] + A2D1) == 0
    assert run(["verify", "--all", "--out", str(pb)] + A2D1) == 0
    capsys.readouterr()
    assert pa.read_bytes() == pb.read_bytes()
    rep = json.loads(pa.read_text())
    assert rep["schema"] == "verification-report"
    assert [c["id"] for c in rep["checks"]][:2] == ["euler-identity",
                                                    "fundamental-domain-size"]


def test_indecomposables(capsys):
    assert run(["indecomposables"] + A2D1) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("5 objects")
    assert "root#0[0]" in out and "degree=0" in out and "label=" in out


def test_ext_table(capsys):
    assert run(["ext-table"] + A2D1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[1].split()[0] == "root#0[0]"


# sha256 of the ext-table --out JSON, (diagram, rank, d, arrows or None): the
# verify grid in the default orientations and in perfbench's seed-1 ones, E6
# d=1, E7 d=1, and D4 d=2 in one more orientation
GOLDEN_EXT_TABLES = {
    ("A", 3, 2, None):
        "5669f1bdb015802a2ef2a6e12001aa7c89cce346d3ecfcd3b88843b753528ce7",
    ("A", 3, 2, ((0, 1), (2, 1))):
        "2fef252c677b13aaaf036489de8af2c57d067f354448e7b165f944bda43610e7",
    ("A", 4, 2, None):
        "d5d7f1a2b3e4b78cffe45ee36be818fd4f85b44476721edd49fd81ca04c0fc55",
    ("A", 4, 2, ((1, 0), (2, 1), (3, 2))):
        "25f366598396acd8a200bbbd209845ec4d43f504c5e3fa841d07da7a32dfafe9",
    ("D", 4, 2, None):
        "7a6ba79e3e47dd6fe7cbf9082b0548311fb675075740d939ff1b90e6f44e0e8b",
    ("D", 4, 2, ((1, 0), (1, 2), (1, 3))):
        "54e61a5462c4853d414e4ccb39f24050bb3c7da838c0b116bc66b6ad44e1446b",
    ("D", 4, 2, ((1, 0), (2, 1), (3, 1))):
        "09c117f9edacadc4519bef62187fdf688e58c18cbbbf4d4d149431d2d4b7b7c8",
    ("A", 3, 3, None):
        "c719c507eeae947a45766912aae194d93b6e8a36721d386009882cbc83bca538",
    ("A", 3, 3, ((0, 1), (2, 1))):
        "10659428c31a07bfb1525864975a50323e44b5f3d0278762082410b4b6af7724",
    ("D", 5, 1, None):
        "a3505216c783fd376219474bd83e4ce9571cd83b4c9a991d68f2c05f6c6a290b",
    ("D", 5, 1, ((0, 1), (2, 1), (2, 3), (2, 4))):
        "6542ea7b8a94ce4b607fa194d51cdcb26037f63f0a9ac9c8aae46904bbd7de3c",
    ("E", 6, 1, None):
        "5906d2943e421ba567276df752168b5c6d7514799ba85d1d24eedb035e7ee2d1",
    ("E", 7, 1, None):
        "2ff92880ce7823f7c595c75d154cbf25f7c225cb56809f449bac1ed894c27c98",
}


@pytest.mark.parametrize("config", sorted(GOLDEN_EXT_TABLES, key=str))
def test_ext_table_bytes_match_the_golden_digest(tmp_path, capsys, config):
    import hashlib

    diagram, rank, d, arrows = config
    orientation = "default"
    if arrows is not None:
        orientation = str(tmp_path / "ori.json")
        (tmp_path / "ori.json").write_text(json.dumps(arrows))
    out = tmp_path / "ext.json"
    assert run(["ext-table", "--diagram", diagram, "--rank", str(rank), "--d", str(d),
                "--orientation", orientation, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_EXT_TABLES[config]


# sha256 of the complements and mutate --out JSON, (diagram, rank, d, arrows or
# None, facet, drop) -> (complements, mutate): the first two (facet, drop)
# pairs of perfbench's D5 d=2 query sample at seeds 0 and 1, and two pairs
# each on E6 d=1 and A4 d=4.  The triangles' middle terms are read from the
# mesh category, so a knit that is consistent but wrong changes them.
GOLDEN_QUERIES = {
    ("D", 5, 2, None, "root#3[0],root#10[0],root#0[1],root#9[1],root#14[1]", "root#14[1]"):
        ("ce23194ecb2aae75b5bd3ebc12a05636c34ff94b499beb85b758b1066cc14817",
         "468560369052fadde744feacb9dd1deb3de41d88c2437dbccccefcd433390a3d"),
    ("D", 5, 2, None, "root#3[0],root#8[0],root#12[0],root#14[0],root#6[2]", "root#8[0]"):
        ("e3100e4a2932047f81b84055bb4fdfb410bc937a79c73a617669e3f7d003b155",
         "fe60fecb61a7dcdaf1a9f7c0182f48a0a4f38a14b5fb475a2bbb64ebaaeb4fe3"),
    ("D", 5, 2, ((1, 0), (2, 1), (3, 2), (2, 4)),
     "root#1[0],root#4[1],root#0[2],root#8[2],root#14[2]", "root#8[2]"):
        ("bb27573e1277824aed77d68632be2dd731ca594888ae80ea18f62128a1439d45",
         "421c79ebeba2f4501c93552cd3b66105e54e996c80bf688dcf13703932df48a9"),
    ("D", 5, 2, ((0, 1), (1, 2), (3, 2), (2, 4)),
     "root#0[0],root#14[0],root#3[1],root#8[1],root#9[2]", "root#8[1]"):
        ("57056a4ee6e41a85cf194baf52637b46a8d46a7f9c9b5f0c597ffc7c5edd515d",
         "edb11dede6d2d79c848d38b714bb68b760904989cb0c67972af78dc0ba399e87"),
    ("E", 6, 1, None, "root#1[0],root#5[0],root#10[0],root#3[1],root#7[1],root#8[1]",
     "root#5[0]"):
        ("363637c544d3f9beb49ccfe14b2757edf021b881f92aace179da1a1b58402f8d",
         "2a776b169e47c17003b04a6fda9c828ab5aa0406e68cada6c91e4da87aeaf871"),
    ("E", 6, 1, None, "root#8[0],root#12[0],root#14[0],root#15[0],root#20[0],root#27[0]",
     "root#20[0]"):
        ("24e0663b5b70038ec6ef90face90cd124c652bffc3325c682c79bae0132f1249",
         "19cd68943fb99bb2a8317c16c9d0a5582f365f4a6add9c340c855dd3cb87f022"),
    ("A", 4, 4, None, "root#2[0],root#9[1],root#1[2],root#8[3]", "root#9[1]"):
        ("0b0e175b1c9bc8c61bfe3d6cf3f0dafbfce6e9c4ed72ba7865ee91bb00ea2c65",
         "641d8f94406259467f529d09c5aa99727393b820597d31fa6a67228254e58672"),
    ("A", 4, 4, None, "root#0[2],root#3[2],root#2[3],root#4[4]", "root#0[2]"):
        ("ff3ab992600e747ba2aaade6e048ecbf1c9b49d19ba5ac28d9ad02642563cbef",
         "937c81ca7a7ee5a1975171c4965a811f24a8539c1852aa5a9453acaed30f4542"),
}


@pytest.mark.parametrize("config", sorted(GOLDEN_QUERIES, key=str))
def test_query_bytes_match_the_golden_digest(tmp_path, capsys, config):
    import hashlib

    diagram, rank, d, arrows, facet, drop = config
    orientation = "default"
    if arrows is not None:
        orientation = str(tmp_path / "ori.json")
        (tmp_path / "ori.json").write_text(json.dumps(arrows))
    out = tmp_path / "query.json"
    got = []
    for command in ("complements", "mutate"):
        assert run([command, "--diagram", diagram, "--rank", str(rank), "--d", str(d),
                    "--orientation", orientation, "--facet", facet, "--drop", drop,
                    "--out", str(out)]) == 0
        got.append(hashlib.sha256(out.read_bytes()).hexdigest())
    capsys.readouterr()
    assert tuple(got) == GOLDEN_QUERIES[config]


def test_complements_output(capsys):
    assert run(["complements", "--facet", "root#0[0],root#2[0]",
                "--drop", "root#0[0]"] + A2D1) == 0
    out = capsys.readouterr().out
    assert "triangle: root#0[0] -> 1*root#2[0] -> root#1[0]" in out
    assert "triangle: root#1[0] -> 0 -> root#0[0]" in out


def test_complements_rejects_non_tilting(capsys):
    assert run(["complements", "--facet", "root#0[0],root#1[0]",
                "--drop", "root#0[0]"] + A2D1) == 2
    assert "not a tilting set" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["complements", "mutate"])
@pytest.mark.parametrize("facet,drop,err", [
    ("root#0[0],root#1[0]", "root#2[0]", "root#2[0] is not a summand of the given facet"),
    ("root#0[0],root#2[0]", "root#0[0],root#2[0]", "--drop takes exactly one object name"),
    ("root#0[0],root#1[0]", "root#0[0]", "--facet is not a tilting set"),
])
def test_facet_and_drop_errors_are_shared(capsys, command, facet, drop, err):
    """complements and mutate check the facet and the drop alike: one line on
    stderr naming the drop by its name, exit 2, nothing on stdout."""
    assert run([command, "--facet", facet, "--drop", drop] + A2D1) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % err)


def _complements_rendering(c, facet, drop):
    """The complements output built from fan_of, rotate_to and a lookup of
    each triangle by its source: (stdout, --out text)."""
    from dcluster import mutation as mut

    name = c.oc.obj_name
    almost = [x for x in facet if x != drop]
    fan = mut.rotate_to(mut.fan_of(c, almost), drop)
    by_source = {tri["source"]: tri for tri in mut.triangles_of(c, almost)}
    tris = [by_source[x] for x in fan]
    lines = ["%-12s degree=%d" % (name(x), c.oc.degree(x)) for x in fan]
    for tri in tris:
        mid = " + ".join("%d*%s" % (m, name(t)) for t, m in tri["mults"].items()) or "0"
        lines.append("triangle: %s -> %s -> %s" % (name(tri["source"]), mid,
                                                   name(tri["target"])))
    payload = {"schema": "complements", "schema_version": 1,
               "almost": sorted(map(name, almost)), "cycle": list(map(name, fan)),
               "triangles": [{"source": name(tri["source"]), "target": name(tri["target"]),
                              "middle": {name(t): m for t, m in tri["mults"].items()}}
                             for tri in tris]}
    return "\n".join(lines) + "\n", json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("diagram,rank,d,arrows", [
    ("A", 3, 2, None), ("D", 4, 2, [[1, 0], [2, 1], [1, 3]]), ("A", 3, 3, [[1, 0], [1, 2]])])
def test_complements_match_a_rendering_from_fan_of(tmp_path, capsys, diagram, rank, d, arrows):
    """For every drop of sampled facets, given in either order, the cycle
    starts at the drop and lists each member's triangle as source."""
    from dcluster.tilting import enumerate_tilting
    from dcluster.verify import load_context

    c = load_context(diagram, rank, d, orientation=arrows)
    orientation = "default"
    if arrows is not None:
        orientation = str(tmp_path / "ori.json")
        (tmp_path / "ori.json").write_text(json.dumps(arrows))
    out = str(tmp_path / "out.json")
    facets = enumerate_tilting(c)
    for k, facet in enumerate(facets[::max(1, len(facets) // 6)]):
        given = facet[::-1] if k % 2 else facet
        for drop in facet:
            assert run(["complements", "--facet", ",".join(map(c.oc.obj_name, given)),
                        "--drop", c.oc.obj_name(drop), "--diagram", diagram,
                        "--rank", str(rank), "--d", str(d), "--orientation", orientation,
                        "--out", out]) == 0
            with open(out) as fh:
                got = capsys.readouterr().out, fh.read()
            assert got == _complements_rendering(c, given, drop)


def test_mutate(capsys):
    assert run(["mutate", "--facet", "root#0[0],root#2[0]",
                "--drop", "root#0[0]"] + A2D1) == 0
    assert capsys.readouterr().out.strip() == "root#1[0] + root#2[0]"


@pytest.mark.parametrize("diagram,rank,d", [("A", 2, 1), ("D", 5, 2)])
def test_one_mutate_query_tests_its_facet_once(monkeypatch, capsys, diagram, rank, d):
    """A mutate query tests its facet for tilting once, in mutation.mutate:
    one _closure pass over the whole facet, besides the fan's pass over the
    facet without the drop, and the same output as mutate called directly."""
    from dcluster import mutation as mut
    from dcluster import tilting
    from dcluster.verify import load_context

    c = load_context(diagram, rank, d)
    facet = tilting.enumerate_tilting(c)[-1]
    calls = []
    closure = tilting._closure
    counted = lambda c, mask: calls.append(mask) or closure(c, mask)  # noqa: E731
    monkeypatch.setattr(tilting, "_closure", counted)
    monkeypatch.setattr(mut, "_closure", counted)
    mask = c.mask_of(facet)
    argv = ["mutate", "--facet", ",".join(map(c.oc.obj_name, facet)), "--drop",
            c.oc.obj_name(facet[0]), "--diagram", diagram, "--rank", str(rank), "--d", str(d)]
    assert run(argv) == 0
    assert calls.count(mask) == 1 and calls.count(mask & ~(1 << c.index[facet[0]])) == 1
    want = capsys.readouterr().out
    calls.clear()
    assert " + ".join(map(c.oc.obj_name, mut.mutate(c, facet, facet[0]))) + "\n" == want
    assert calls.count(mask) == 1


def test_mutate_pick_wraps_around_the_cycle(capsys):
    """--pick counts steps mod the d+1 complements, as --help and README
    say: 0 and d+1 give the facet back, and a negative pick steps backwards."""
    argv = ["mutate", "--facet", "root#0[0],root#2[0],root#5[0]", "--drop", "root#0[0]",
            "--diagram", "A", "--rank", "3", "--d", "2", "--pick"]
    got = {}
    for pick in range(-1, 5):
        assert run(argv + [str(pick)]) == 0
        got[pick] = capsys.readouterr().out
    assert got[0] == got[3] == "root#0[0] + root#2[0] + root#5[0]\n"
    assert got[-1] == got[2] != got[1] == got[4] != got[0]


def test_mutate_rejects_bad_drop(capsys):
    assert run(["mutate", "--facet", "root#0[0],root#2[0]",
                "--drop", "root#1[0]"] + A2D1) == 2
    assert "not a summand" in capsys.readouterr().err


def test_mutation_graph_with_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert run(["mutation-graph", "--dot", str(dot)] + A2D1) == 0
    out = capsys.readouterr().out
    assert "vertices=5 edges=5 degree=2 regular=True connected=True" in out
    text = dot.read_text()
    assert text.startswith("graph mutation {")
    assert text.count(" -- ") == 5


def test_mutation_graph_counts_its_edges(monkeypatch, tmp_path, capsys):
    """The edge count is read from the graph, not derived from the expected
    degree, so a graph that is not regular reports the edges it has."""
    from dcluster import mutation

    build = mutation.face_table

    def drop_one_edge(ctx):
        # facet b leaves the face group it shares with facet 0
        fresh = ctx._face_table is None
        table = build(ctx)
        if fresh:
            f = next(f for f, members in enumerate(table.groups()) if 0 in members)
            del table.members[table.starts[f + 1] - 1]
            for k in range(f + 1, len(table.starts)):
                table.starts[k] -= 1
        return table

    monkeypatch.setattr(mutation, "face_table", drop_one_edge)
    outp = tmp_path / "g.json"
    assert run(["mutation-graph", "--out", str(outp)] + A2D1) == 1
    captured = capsys.readouterr()
    assert "vertices=5 edges=4 degree=2 regular=False connected=True" in captured.out
    assert "fails regularity" in captured.err
    data = json.loads(outp.read_text())
    assert (data["edges"], data["regular"], data["connected"]) == (4, False, True)


def test_complex_full(tmp_path, capsys):
    outp = tmp_path / "c.json"
    assert run(["complex", "--out", str(outp)] + A2D1) == 0
    out = capsys.readouterr().out
    assert "1 5 5" in out
    assert "pure=True" in out
    data = json.loads(outp.read_text())
    assert data["schema"] == "cluster-complex"
    assert data["f_vector"] == [1, 5, 5]


def test_complex_positive(capsys):
    assert run(["complex", "--positive", "--diagram", "A", "--rank", "2",
                "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "6 vertices, 7 facets" in out
    assert "pure=" not in out


def test_fans_verify_all(tmp_path, capsys):
    repp = tmp_path / "r.json"
    assert run(["fans", "--verify-all", "--json", str(repp), "--diagram", "A",
                "--rank", "2", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "8 almost complete sets" in out
    assert "summary: 8 pass, 0 fail, 1 n/a" in out
    rep = json.loads(repp.read_text())
    assert [c["id"] for c in rep["checks"]][0] == "complement-count"


def test_fans_list(capsys):
    from dcluster import mutation as mut
    from dcluster.verify import load_context

    assert run(["fans", "--list"] + A2D1) == 0
    out = capsys.readouterr().out
    assert "5 almost complete sets" in out
    assert out.count("->") == 5
    c = load_context("A", 2, 1)
    name = c.oc.obj_name
    assert out.splitlines()[1:] == [
        "{%s}: %s" % (", ".join(map(name, a)), " -> ".join(map(name, mut.fan_of(c, a))))
        for a in map(c.objs_of, (mask for mask, _ in mut.fans(c)))]


@pytest.mark.parametrize("argv,err", [
    (["--out", "x.json"], "fans writes no --out file"),
    (["--list", "--out", "x.json"], "fans writes no --out file"),
    (["--verify-all", "--json", "r.json", "--out", "x.json"], "fans writes no --out file"),
    (["--json", "r.json"], "--json needs --verify-all"),
    (["--list", "--json", "r.json"], "--json needs --verify-all")])
def test_fans_rejects_output_flags_it_would_ignore(tmp_path, monkeypatch, capsys, argv, err):
    monkeypatch.chdir(tmp_path)
    assert run(["fans"] + argv + ["--diagram", "A", "--rank", "2", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + err) and captured.err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_fans_rejects_out_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"diagram": "A", "rank": 2, "d": 2,
                               "out": str(tmp_path / "x.json")}))
    assert run(["fans", "--list", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: fans writes no --out file")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"diagram": "A", "rank": 2, "d": 1}))
    assert run(["verify", "--all", "--config", str(cfg)]) == 0
    assert "summary: 17 pass, 0 fail, 7 n/a" in capsys.readouterr().out


def test_config_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"diagram": "A", "rank": 2, "d": 1}))
    assert run(["verify", "--all", "--config", str(cfg), "--d", "2"]) == 0
    assert "summary: 22 pass, 0 fail, 2 n/a" in capsys.readouterr().out


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"diagram": "A", "rank": 2, "d": 1, "shape": 9}))
    assert run(["verify", "--all", "--config", str(cfg)]) == 2
    assert "unknown config keys: shape" in capsys.readouterr().err


def test_orientation_file(tmp_path, capsys):
    ori = tmp_path / "ori.json"
    ori.write_text(json.dumps([[1, 0], [1, 2]]))
    assert run(["tilting", "enumerate", "--diagram", "A", "--rank", "3",
                "--d", "1", "--orientation", str(ori)]) == 0
    assert "14 tilting sets" in capsys.readouterr().out


def test_config_cache_dir_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"diagram": "A", "rank": 2, "d": 1,
                               "cache_dir": str(tmp_path / "cache")}))
    assert run(["verify", "--all", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown config keys: cache_dir\n"
    assert not (tmp_path / "cache").exists()


def test_cache_dir_flag_is_a_usage_error(tmp_path, capsys):
    assert run(["verify", "--all", "--cache-dir", str(tmp_path)] + A2D1) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --cache-dir" in err
    assert "Traceback" not in err


def test_out_of_range_root_index_exits_2(capsys):
    for name, reason in (("root#99[0]", "root index"), ("root#-1[0]", "root index"),
                         ("root#1[2[3]", "bad object name 'root#1[2[3]'"),
                         ("root#x[0]", "bad object name 'root#x[0]'")):
        assert run(["complements", "--facet", name + ",root#2[0]",
                    "--drop", name] + A2D1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err


@pytest.mark.parametrize("prime,reason", [("4", "4 is not a prime"),
                                          ("6", "6 is not a prime"),
                                          ("4294967311", "is too large")])
def test_bad_prime_exits_2(prime, reason, tmp_path, capsys):
    assert run(["verify", "--all", "--prime", prime] + A2D1) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prime": int(prime)}))
    assert run(["verify", "--all", "--config", str(cfg)] + A2D1) == 2
    assert reason in capsys.readouterr().err


def test_malformed_json_files_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"diagram": "A",')
    for flag in ("--config", "--orientation"):
        assert run(["verify", "--all", flag, str(bad)] + A2D1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not readable JSON" in err


def test_orientation_of_wrong_shape_exits_2(tmp_path, capsys):
    ori = tmp_path / "ori.json"
    for text in ('[[0, null]]', '5', '{"a": 1}'):
        ori.write_text(text)
        assert run(["verify", "--all", "--orientation", str(ori)] + A2D1) == 2
        err = capsys.readouterr().err
        assert err == "error: arrows must be a list of [source, target] vertex pairs\n"


def test_orientation_with_bool_vertices_exits_2(tmp_path, capsys):
    ori = tmp_path / "f.json"
    ori.write_text("[[false, true], [true, 2]]")
    argv = ["indecomposables", "--diagram", "A", "--rank", "3", "--d", "1",
            "--orientation", str(ori)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: arrows must be a list of [source, target] vertex pairs\n"


@pytest.mark.parametrize("text", ["null", '"default"', "{}", "5"])
def test_orientation_file_that_is_not_a_list_exits_2(tmp_path, capsys, text):
    """Anything but a JSON list in an orientation file is refused, given by
    the flag or by a config's orientation key: null and "default" in the
    file do not fall back to the default orientation."""
    ori = tmp_path / "ori.json"
    ori.write_text(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"diagram": "A", "rank": 3, "d": 1, "orientation": str(ori)}))
    for argv in (["--diagram", "A", "--rank", "3", "--d", "1", "--orientation", str(ori)],
                 ["--config", str(cfg)]):
        assert run(["indecomposables"] + argv) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == "error: arrows must be a list of [source, target] vertex pairs\n"


def test_config_value_of_wrong_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for cfg_data, message in (
            ({"diagram": "A", "rank": "2", "d": 1},
             'config key rank must be an integer, not "2"'),
            ({"diagram": "A", "rank": 2, "d": True},
             "config key d must be an integer, not true"),
            ({"diagram": ["A"], "rank": 2, "d": 1},
             'config key diagram must be a string, not ["A"]')):
        cfg.write_text(json.dumps(cfg_data))
        assert run(["verify", "--all", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
    cfg.write_text("[1, 2]")
    assert run(["verify", "--all", "--config", str(cfg)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    bad = str(tmp_path / "missing" / "x.out")
    for argv in (["verify", "--all", "--out", bad],
                 ["indecomposables", "--out", bad],
                 ["mutation-graph", "--dot", bad],
                 ["complex", "--dot", bad],
                 ["fans", "--verify-all", "--json", bad]):
        assert run(argv + A2D1) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write %s: " % bad)
        assert err.count("\n") == 1


def test_verify_run_leaves_no_package_objects_in_cycles():
    import gc

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(["verify", "--all", "--diagram", "A", "--rank", "3",
                    "--d", "2"]) == 0
        gc.collect()
        left = sorted({type(o).__module__ + "." + type(o).__qualname__
                       for o in gc.garbage
                       if type(o).__module__.startswith("dcluster")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


def test_verify_run_leaves_no_reference_cycles():
    import gc

    # the parser is built once, on the first run
    assert run(["indecomposables"] + A2D1) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(["verify", "--all", "--diagram", "A", "--rank", "3",
                    "--d", "2"]) == 0
        gc.collect()
        left = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == 0


def test_incomplete_greedy_completion_fails(monkeypatch, capsys):
    from dcluster import verify

    complete = verify.complete_mask
    # drop the completion's first summand
    monkeypatch.setattr(verify, "complete_mask",
                        lambda ctx, mask: complete(ctx, mask) & (complete(ctx, mask) - 1))
    assert run(["verify", "--check", "rigid-extends-to-tilting",
                "--diagram", "A", "--rank", "3", "--d", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("rigid-extends-to-tilting     fail      1 instances "
                          'counterexample={"size": 2, "start": ["root#0[0]"]}')


def test_internal_error_exits_3(monkeypatch, capsys):
    from dcluster import mutation

    def broken(*args):
        raise RuntimeError("complement cycle does not close")

    monkeypatch.setattr(mutation, "_fan_cycle", broken)
    assert run(["verify", "--check", "complement-count", "--diagram", "A",
                "--rank", "3", "--d", "2"]) == 3
    assert capsys.readouterr().err == \
        "internal error (A3 d=2 p=101): complement cycle does not close\n"



@pytest.mark.parametrize("defect", ["self", "pair"])
def test_broken_dimension_table_exits_3(monkeypatch, capsys, defect):
    from dcluster.orbit import OrbitCategory
    from dcluster.verify import load_context

    ref = load_context("A", 3, 2)
    m = len(ref.objects)
    ext = [[[ref.oc.ext_dim(x, y, k) for k in (1, 2)] for y in ref.objects]
           for x in ref.objects]
    if defect == "self":
        i = j = 4
        want = "indecomposable %r is not rigid" % (ref.objects[i],)
    else:
        i, j = next((i, j) for i in range(m) for j in range(i + 1, m)
                    if not any(ext[i][j]) and not any(ext[j][i]))
        want = "compatibility is not symmetric for %r, %r" % (ref.objects[i],
                                                               ref.objects[j])
    build = OrbitCategory.hom_table.func

    def corrupted(self):
        out = build(self)
        out[self.shifts[1].index(i)][j] += 1    # Ext^1(X_i, X_j) = Hom(X_i[-1], X_j)
        return out

    monkeypatch.setattr(OrbitCategory, "hom_table", property(corrupted))
    assert run(["tilting", "enumerate", "--diagram", "A", "--rank", "3",
                "--d", "2"]) == 3
    assert capsys.readouterr().err == "internal error (A3 d=2 p=101): %s\n" % want


def test_hom_basis_disagreeing_with_the_table_exits_3(monkeypatch, capsys):
    from dcluster.orbit import OrbitCategory

    build = OrbitCategory.hom_table.func
    # A2 with the arrow 0 -> 1: Hom(P1, S1) is one-dimensional
    p1, s1 = ((1, 1), 0), ((1, 0), 0)

    def corrupted(self):
        out = build(self)
        out[self.index[p1]][self.index[s1]] = 2
        return out

    monkeypatch.setattr(OrbitCategory, "hom_table", property(corrupted))
    assert run(["verify", "--check", "middle-rigid"] + A2D1) == 3
    assert capsys.readouterr().err == (
        "internal error (A2 d=1 p=101): Hom(%r, %r) has 1 basis morphisms, "
        "but the dimension table gives 2\n" % (p1, s1))


def test_config_too_large_for_memory_exits_2(monkeypatch, capsys):
    from dcluster.orbit import OrbitCategory

    def out_of_memory(self):
        raise MemoryError("cannot allocate the 6003 x 6003 Hom table")

    monkeypatch.setattr(OrbitCategory, "hom_table", property(out_of_memory))
    assert run(["verify", "--all", "--diagram", "A", "--rank", "3",
                "--d", "1000"]) == 2
    assert capsys.readouterr().err == (
        "error: A3 d=1000 p=101 is too large: its tables do not fit in memory\n")


TOO_LARGE = "error: A3 d=1000 p=101 is too large: its tables do not fit in memory\n"


def _run_in_a_child(argv, seconds):
    """Run `python -m dcluster argv` under a 3 GB address-space limit, set on
    the child process only; assert that it ends within `seconds` and return
    (exit code, stdout, stderr)."""
    import os
    import resource
    import subprocess
    import sys
    import time

    import dcluster

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = os.path.dirname(os.path.dirname(dcluster.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "dcluster"] + argv,
                          capture_output=True, text=True, env=env, preexec_fn=limit,
                          timeout=60)
    assert time.monotonic() - start < seconds
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command", [["verify", "--all"], ["tilting", "enumerate"]],
                         ids=["verify", "tilting"])
def test_too_many_facets_are_refused_before_any_table(command):
    """A3 d=1000 has 2672671001 facets.  Under a 3 GB address-space limit,
    set on the child process only, the run is refused at once, with the
    one documented line and no traceback."""
    argv = command + ["--diagram", "A", "--rank", "3", "--d", "1000"]
    assert _run_in_a_child(argv, 2) == (2, "", TOO_LARGE)


def test_a200_d1_is_refused_before_its_module_category():
    """A200 d=1 has Catalan(201) facets.  The preflight reads only the rank,
    h and the exponents, so the run is refused within seconds, before the
    20100 roots' module category is built, under a 3 GB address-space limit
    set on the child process only."""
    argv = ["verify", "--all", "--diagram", "A", "--rank", "200", "--d", "1"]
    assert _run_in_a_child(argv, 5) == (
        2, "", "error: A200 d=1 p=101 is too large: its tables do not fit in memory\n")


def test_the_facet_preflight_builds_no_module_category(monkeypatch, capsys):
    """With the module category made to raise, A30 d=1 (Catalan(31) facets)
    is still refused with the one-line error and nothing on stdout: the
    preflight runs before the context is built."""
    from dcluster import reps

    def no_category(self, q, p=101):
        raise AssertionError("the preflight built the module category")

    monkeypatch.setattr(reps.ModuleCategory, "__init__", no_category)
    assert run(["verify", "--all", "--diagram", "A", "--rank", "30", "--d", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: A30 d=1 p=101 is too large: its tables do not fit in memory\n")


def test_the_facet_preflight_does_not_check_the_order_of_phi(monkeypatch, capsys):
    """The preflight counts the facets from h and the exponents alone: with
    the order check of Phi made to raise, A30 d=1 (Catalan(31) facets) is
    still refused at once with the one-line error."""
    from dcluster import quiver

    def no_order(phi, h):
        raise AssertionError("the preflight checked the order of Phi")

    monkeypatch.setattr(quiver, "_order_is", no_order)
    assert run(["verify", "--all", "--diagram", "A", "--rank", "30", "--d", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: A30 d=1 p=101 is too large: its tables do not fit in memory\n")


def test_a_memory_error_after_the_preflight_exits_2(monkeypatch, capsys):
    """The preflight lets A2 d=1 through; a MemoryError raised later in the
    run, here by the Hom table, is still a configuration too large."""
    from dcluster.orbit import OrbitCategory

    def out_of_memory(self):
        raise MemoryError("cannot allocate the Hom table")

    monkeypatch.setattr(OrbitCategory, "hom_table", property(out_of_memory))
    assert run(["verify", "--all"] + A2D1) == 2
    assert capsys.readouterr().err == (
        "error: A2 d=1 p=101 is too large: its tables do not fit in memory\n")


def test_ext_table_too_large_prints_only_the_error_line(monkeypatch, capsys):
    """ext-table builds its rows before it prints the header, so a Hom table
    that does not fit leaves stdout empty and one line on stderr."""
    from dcluster.orbit import OrbitCategory

    def out_of_memory(self):
        raise MemoryError("cannot allocate the Hom table")

    monkeypatch.setattr(OrbitCategory, "hom_table", property(out_of_memory))
    assert run(["ext-table"] + A2D1) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", "error: A2 d=1 p=101 is too large: its tables do not fit in memory\n")


def test_check_lines_print_before_a_later_check_fails(monkeypatch, capsys):
    from dcluster import verify

    k = verify.CHECK_IDS.index("facet-count-formula")
    cid, statement, min_d, _ = verify.CHECKS[k]

    def broken(ctx):
        raise RuntimeError("facet count check broke")

    checks = list(verify.CHECKS)
    checks[k] = (cid, statement, min_d, broken)
    monkeypatch.setattr(verify, "CHECKS", checks)
    assert run(["verify", "--all"] + A2D1) == 3
    captured = capsys.readouterr()
    assert [line.split()[0] for line in captured.out.splitlines()] == \
        verify.CHECK_IDS[:k]
    assert captured.err == "internal error (A2 d=1 p=101): facet count check broke\n"


@pytest.mark.parametrize("command", [["verify", "--all"], ["fans", "--verify-all"]])
@pytest.mark.parametrize("exc", [ValueError("bad coordinates"),
                                 ZeroDivisionError("inverse of 0 mod 101")])
def test_library_error_inside_a_check_exits_3(monkeypatch, capsys, command, exc):
    from dcluster import verify

    k = verify.CHECK_IDS.index("middle-rigid")
    cid, statement, min_d, _ = verify.CHECKS[k]

    def broken(ctx):
        raise exc

    checks = list(verify.CHECKS)
    checks[k] = (cid, statement, min_d, broken)
    monkeypatch.setattr(verify, "CHECKS", checks)
    assert run(command + A2D1) == 3
    captured = capsys.readouterr()
    assert "middle-rigid" not in captured.out
    assert captured.err == "internal error (A2 d=1 p=101): check middle-rigid " \
        "raised %s: %s\n" % (type(exc).__name__, exc)


def test_unknown_check_id_is_rejected_before_any_check_runs(capsys):
    assert run(["verify", "--check", "euler-identity,bogus"] + A2D1) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown check id: bogus\n"


def test_runs_as_a_module_from_a_checkout():
    import os
    import subprocess
    import sys

    import dcluster
    from dcluster.verify import CHECK_IDS

    src = os.path.dirname(os.path.dirname(dcluster.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "dcluster", "verify", "--list-checks"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.split() == CHECK_IDS
    assert len(CHECK_IDS) == 24


D4D2 = ["--diagram", "D", "--rank", "4", "--d", "2"]


def _facet_args(diagram, rank, d):
    """--facet and --drop for the first tilting set of a configuration."""
    from dcluster.tilting import enumerate_tilting
    from dcluster.verify import load_context

    ctx = load_context(diagram, rank, d)
    facet = enumerate_tilting(ctx)[0]
    return ["--facet", ",".join(ctx.oc.obj_name(x) for x in facet),
            "--drop", ctx.oc.obj_name(facet[0])]


@pytest.mark.parametrize("argv", [["mutate"], ["tilting", "enumerate"], ["ext-table"],
                                  ["complex"], ["mutation-graph"], ["indecomposables"]],
                         ids=" ".join)
def test_morphism_free_commands_never_knit(monkeypatch, capsys, argv):
    """Dimension-level commands read the Euler-form table and the Coxeter
    tau only, so they run, with the same output, when knitting raises."""
    from dcluster.reps import ModuleCategory

    if argv == ["mutate"]:
        argv = argv + _facet_args("D", 4, 2)
    assert run(argv + D4D2) == 0
    want = capsys.readouterr().out

    def no_knit(self):
        raise RuntimeError("knitting was not needed here")

    monkeypatch.setattr(ModuleCategory, "_knit", no_knit)
    assert run(argv + D4D2) == 0
    assert capsys.readouterr().out == want


QUERY_COMMANDS = [["complements"], ["mutate"], ["tilting", "enumerate"], ["complex"],
                  ["mutation-graph"]]


@pytest.mark.parametrize("argv", QUERY_COMMANDS, ids=" ".join)
def test_query_commands_knit_no_modules_and_only_complements_knits_the_mesh(
        monkeypatch, capsys, argv):
    """The commands of the cli-queries and complex-census benchmarks never knit
    a module.  Only complements composes morphisms, for its triangles, so only
    it knits the mesh category: once per vertex of Q.  The triangles' rank
    problems read their sizes from the dimension table."""
    from dcluster import orbit
    from dcluster.reps import ModuleCategory

    if argv[0] in ("complements", "mutate"):
        argv = argv + _facet_args("D", 5, 2)
    argv = argv + ["--diagram", "D", "--rank", "5", "--d", "2"]
    assert run(argv) == 0
    want = capsys.readouterr().out

    def no_knit(self):
        raise RuntimeError("knitting was not needed here")

    knits = []
    knit = orbit.knit_hom_from
    monkeypatch.setattr(ModuleCategory, "_knit", no_knit)
    monkeypatch.setattr(orbit, "knit_hom_from",
                        lambda cat, i, shared: knits.append(i) or knit(cat, i, shared))
    assert run(argv) == 0
    assert capsys.readouterr().out == want
    assert knits == (list(range(5)) if argv[0] == "complements" else [])


@pytest.mark.parametrize("argv,first", [
    # the reported pipeline: check lines are printed and flushed one by one
    (["verify", "--all", "--diagram", "A", "--rank", "4", "--d", "2"],
     [b"euler-identity", b"fundamental-domain-size"]),
    # 125 kB of facets, more than a pipe holds, so a write must fail however
    # slowly the reader closes
    (["tilting", "enumerate", "--diagram", "D", "--rank", "5", "--d", "2"],
     [b"root#0[0]", b"root#0[0]"]),
], ids=["verify", "tilting"])
def test_closed_stdout_exits_141_without_a_traceback(argv, first):
    import os
    import subprocess
    import sys

    import dcluster

    src = os.path.dirname(os.path.dirname(dcluster.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "dcluster"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # like `| head -2`: read two lines, then close the pipe while output remains
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert [line.split()[0] for line in lines] == first
    assert proc.stderr.read() == b""
    proc.stderr.close()
