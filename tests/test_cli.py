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


def test_mutate(capsys):
    assert run(["mutate", "--facet", "root#0[0],root#2[0]",
                "--drop", "root#0[0]"] + A2D1) == 0
    assert capsys.readouterr().out.strip() == "root#1[0] + root#2[0]"


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
    assert run(["fans", "--list"] + A2D1) == 0
    out = capsys.readouterr().out
    assert "5 almost complete sets" in out
    assert out.count("->") == 5


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


def test_internal_error_exits_3(monkeypatch, capsys):
    from dcluster import mutation

    def broken(ctx, almost):
        raise RuntimeError("complement cycle does not close")

    monkeypatch.setattr(mutation, "fan_of", broken)
    assert run(["verify", "--check", "complement-count", "--diagram", "A",
                "--rank", "3", "--d", "2"]) == 3
    assert capsys.readouterr().err == \
        "internal error (A3 d=2 p=101): complement cycle does not close\n"



@pytest.mark.parametrize("defect", ["self", "pair"])
def test_broken_dimension_table_exits_3(monkeypatch, capsys, defect):
    from dcluster.orbit import OrbitCategory
    from dcluster.verify import load_context

    ref = load_context("A", 3, 2)
    dims = ref.oc.dims()
    m = len(ref.objects)
    if defect == "self":
        i = j = 4
        want = "indecomposable %r is not rigid" % (ref.objects[i],)
    else:
        i, j = next((i, j) for i in range(m) for j in range(i + 1, m)
                    if not dims[i, j, 1:3].any() and not dims[j, i, 1:3].any())
        want = "compatibility is not symmetric for %r, %r" % (ref.objects[i],
                                                               ref.objects[j])
    build = OrbitCategory._build_dims

    def corrupted(self):
        out = build(self)
        out[i, j, 1] += 1
        return out

    monkeypatch.setattr(OrbitCategory, "_build_dims", corrupted)
    assert run(["tilting", "enumerate", "--diagram", "A", "--rank", "3",
                "--d", "2"]) == 3
    assert capsys.readouterr().err == "internal error (A3 d=2 p=101): %s\n" % want


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


def test_complements_solves_only_the_hom_systems_it_reads(monkeypatch, capsys):
    from dcluster import cli
    from dcluster.verify import load_context

    made = []

    def recording(*args, **kwargs):
        made.append(load_context(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "load_context", recording)
    argv = ["complements"] + _facet_args("D", 5, 2) + ["--diagram", "D", "--rank", "5",
                                                       "--d", "2"]
    assert run(argv) == 0
    assert "triangle:" in capsys.readouterr().out
    cat = made[0].oc.cat
    # it knits, for its triangles, but solves fewer than the 20 x 20 root pairs
    assert "_knitted" in vars(cat)
    assert 0 < len(cat._hom_cache) < 400
