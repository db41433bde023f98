"""Command-line front end: subcommands, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from fractalcut.cli import main
from fractalcut.serialize import MAX_VERTICES

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "--q", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 9
    assert len(doc["edges"]) == 15


def test_gen_dot_marks_terminals(capsys):
    code, out, _ = run(capsys, "gen", "--q", "1", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 3
    assert 'role="sigma"' in out and 'role="tau"' in out


def test_gen_dimacs_header(capsys):
    for q in (0, 2, 4):
        code, out, _ = run(capsys, "gen", "--q", str(q), "--format", "dimacs")
        assert code == 0
        assert out.splitlines()[0] == f"p edge {2 ** q + 1} {2 ** (q + 1) - 1}"


def test_solve_fpt_dag_instance(capsys, tmp_path):
    path = tmp_path / "dag.json"
    path.write_text(json.dumps({
        "problem": "dsct", "directed": True, "n": 3,
        "edges": [[0, 1], [1, 2]], "k": 1, "ell": 2}))
    code, out, _ = run(capsys, "solve", "--method", "fpt", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] is True and doc["witness"] == []


def test_solve_methods_agree_on_fixtures(capsys):
    for name in ("lbec_a.json", "lbec_b.json", "mded_c4.json", "dsct_c3.json"):
        answers = {}
        for method in ("fpt", "brute"):
            code, out, _ = run(capsys, "solve", "--method", method,
                               "--input", str(FIXTURES / name))
            assert code == 0
            answers[method] = json.loads(out)["answer"]
        assert answers["fpt"] == answers["brute"], name


def test_compose_pads_and_writes_sidecar(capsys, tmp_path):
    prefix = tmp_path / "composed"
    code, out, _ = run(capsys, "compose", "--problem", "lbec",
                       "--inputs",
                       str(FIXTURES / "lbec_a.json"),
                       str(FIXTURES / "lbec_b.json"),
                       str(FIXTURES / "lbec_c.json"),
                       "--out", str(prefix))
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"] == "lbec"
    sidecar = json.loads((tmp_path / "composed.sidecar.json").read_text())
    assert sidecar["params"]["p"] == 4  # padded from three inputs
    assert sidecar["selector"] == {str(i): i for i in range(1, 5)}
    assert (tmp_path / "composed.instance.json").read_text() == out


def test_compose_mded_requires_uncuttable_inputs(capsys):
    code, _, err = run(capsys, "compose", "--problem", "mded", "--inputs",
                       str(FIXTURES / "lbec_a.json"),
                       str(FIXTURES / "lbec_b.json"))
    assert code == 2 and "min-cut" in err
    code, out, _ = run(capsys, "compose", "--problem", "mded", "--inputs",
                       str(FIXTURES / "lbec_a.json"),
                       str(FIXTURES / "lbec_d.json"))
    assert code == 0
    assert json.loads(out)["problem"] == "mded"


@pytest.mark.parametrize("name", ["mded_c4.json", "dsct_c3.json"],
                         ids=["undirected", "directed"])
def test_compose_mded_names_inputs_without_terminals(capsys, name):
    path = str(FIXTURES / name)
    code, out, err = run(capsys, "compose", "--problem", "mded",
                         "--inputs", path, path)
    assert (code, out, err) == (2, "", "error: input 0 is not an lbec instance\n")


@pytest.mark.parametrize("problem", ["lbec", "mded"])
def test_compose_refuses_non_lbec_inputs_before_padding(capsys, problem):
    path = str(FIXTURES / "mded_c4.json")
    code, out, err = run(capsys, "compose", "--problem", problem,
                         "--inputs", path, path, path)
    assert (code, out, err) == (2, "", "error: input 0 is not an lbec instance\n")


def test_compose_mded_refuses_directed_inputs_with_costs(capsys, tmp_path):
    # Instance files carry no lengths, and no graph has another length.
    doc = json.loads((FIXTURES / "dag_a.json").read_text())
    doc["costs"] = [2, 1, 1, 1, 1]
    path = tmp_path / "costly.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compose", "--problem", "mded",
                         "--inputs", str(path), str(path))
    assert (code, out, err) == (
        2, "", "error: input 0 must be a simple unit graph\n")


def test_solve_refuses_graph_document_with_a_longer_edge(capsys, tmp_path):
    # Every edge is one hop: the graph is refused as it is parsed, before
    # solve could ask whether the document is an instance.
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"type": "graph", "directed": True, "n": 3,
                                "edges": [[0, 1], [1, 2, 1, 2], [2, 0]]}))
    code, out, err = run(capsys, "solve", "--method", "brute",
                         "--input", str(path))
    assert (code, out, err) == (2, "", "error: invalid graph: edge (1,2) has "
                                       "length 2; every edge is one hop\n")


def test_compose_dsct_from_dags(capsys):
    code, out, err = run(capsys, "compose", "--problem", "dsct",
                         "--inputs",
                         str(FIXTURES / "dag_a.json"),
                         str(FIXTURES / "dag_b.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"] == "dsct" and doc["directed"]
    assert "costs" in doc  # weighted mode keeps the cost annotations


def test_solve_brute_on_weighted_compose_output(capsys, tmp_path):
    prefix = tmp_path / "out"
    code, _, _ = run(capsys, "compose", "--problem", "lbec", "--inputs",
                     str(FIXTURES / "lbec_a.json"),
                     str(FIXTURES / "lbec_b.json"),
                     "--out", str(prefix))
    assert code == 0
    code, out, _ = run(capsys, "solve", "--method", "brute",
                       "--input", str(tmp_path / "out.instance.json"))
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["answer"], bool) and doc["nodes"] > 0


def test_solve_brute_negative_budget_weighted_matches_unit(capsys, tmp_path):
    # A negative budget fits no deletion set, not even the empty one: the
    # weighted route (the cost-aware oracle) must print the unit route's
    # bytes (subset enumeration) on the same document without costs.
    weighted = FIXTURES / "lbec_weighted_negative_k.json"
    doc = json.loads(weighted.read_text())
    del doc["costs"]
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps(doc))
    outs = []
    for path in (weighted, unit):
        code, out, _ = run(capsys, "solve", "--method", "brute",
                           "--input", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {"answer": False, "nodes": 0, "witness": None}


def test_reduce_cycle4(capsys):
    code, out, _ = run(capsys, "reduce",
                       "--vc", str(FIXTURES / "vc_cycle4.json"),
                       "--embedding", str(FIXTURES / "embedding_cycle4.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"] == "lbec"
    assert doc["k"] == 4 and doc["ell"] == 14


def test_verify_reductions_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "reductions")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_lemmas_suite_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--q-max", "2",
                       "--samples", "500")
    assert code == 0
    assert out.count("PASS") == 7 and "FAIL" not in out


def test_verify_compositions_suite_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "compositions",
                       "--trials", "2")
    assert code == 0
    assert "FAIL" not in out


def test_byte_identical_reruns(capsys, tmp_path):
    invocations = [
        ("gen", "--q", "4", "--format", "json"),
        ("gen", "--q", "3", "--format", "dot"),
        ("gen", "--q", "5", "--directed", "--cost", "3", "--format", "dimacs"),
        ("solve", "--method", "brute", "--input", str(FIXTURES / "lbec_a.json")),
        ("compose", "--problem", "lbec", "--inputs",
         str(FIXTURES / "lbec_a.json"), str(FIXTURES / "lbec_b.json")),
        ("reduce", "--vc", str(FIXTURES / "vc_cycle4.json"),
         "--embedding", str(FIXTURES / "embedding_cycle4.json")),
    ]
    for argv in invocations:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_usage_errors_exit_two(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", "--method", "fpt", "--input", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "solve", "--method", "fpt",
                       "--input", str(tmp_path / "missing.json"))
    assert code == 2
    gone = tmp_path / "notinstance.json"
    gone.write_text('{"type": "graph", "directed": false, "n": 1, "edges": []}')
    code, _, err = run(capsys, "solve", "--method", "fpt", "--input", str(gone))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("solve", "--method", "fpt", "--input", "{dir}"),
    ("reduce", "--vc", "{dir}",
     "--embedding", str(FIXTURES / "embedding_cycle4.json")),
])
def test_directory_as_input_exits_two(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_bool_for_int_field_exits_two(capsys, tmp_path):
    doc = json.loads((FIXTURES / "lbec_a.json").read_text())
    doc["k"] = True
    bad = tmp_path / "bool_k.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--method", "fpt", "--input", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'k'" in err
    assert err.count("\n") == 1


def test_reduce_bool_for_int_field_exits_two(capsys, tmp_path):
    doc = json.loads((FIXTURES / "vc_cycle4.json").read_text())
    doc["k"] = True
    bad = tmp_path / "bool_k.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "reduce", "--vc", str(bad),
                         "--embedding", str(FIXTURES / "embedding_cycle4.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'k'" in err
    assert err.count("\n") == 1


def test_deep_fpt_input_exits_two(capsys, tmp_path):
    # 1,200 disjoint two-hop s-t paths at k = 1,100: the LBEC brancher
    # passes the shipped search budget, MAX_SEARCHES, long before it ends.
    edges = [[0, 2 + j] for j in range(1200)] + [[2 + j, 1] for j in range(1200)]
    doc = {"problem": "lbec", "directed": False, "n": 1202, "edges": edges,
           "s": 0, "t": 1, "k": 1100, "ell": 3}
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--method", "fpt", "--input", str(deep))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    code, out, err = run(capsys, "solve", "--method", "fpt", "--input", str(nested))
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")


def _stdlib_text(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_solve_and_compose_payloads_match_stdlib(capsys):
    for method, name in (("fpt", "lbec_a"), ("brute", "mded_c4"),
                         ("brute", "dsct_c3"), ("fpt", "dag_a")):
        code, out, _ = run(capsys, "solve", "--method", method,
                           "--input", str(FIXTURES / f"{name}.json"))
        assert code == 0 and out == _stdlib_text(out), name
    for problem, names in (("lbec", ("lbec_a", "lbec_b", "lbec_c")),
                           ("mded", ("lbec_a", "lbec_d")),
                           ("dsct", ("dag_a", "dag_b"))):
        for mode in ("weighted", "simple"):
            code, out, err = run(capsys, "compose", "--problem", problem,
                                 "--mode", mode, "--inputs",
                                 *(str(FIXTURES / f"{n}.json") for n in names))
            assert code == 0, (problem, mode)
            assert out == _stdlib_text(out) and err == _stdlib_text(err)


@pytest.mark.parametrize("change", [
    {"order": [0, True, 2, 3]},
    {"order": [0, 1.0, 2, 3]},
    {"pages": [1]},
], ids=["order-bool", "order-float", "pages-list"])
def test_reduce_malformed_embedding_exits_two(capsys, tmp_path, change):
    doc = json.loads((FIXTURES / "embedding_cycle4.json").read_text())
    bad = tmp_path / "embedding.json"
    bad.write_text(json.dumps({**doc, **change}))
    code, out, err = run(capsys, "reduce", "--vc", str(FIXTURES / "vc_cycle4.json"),
                         "--embedding", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fractal_depth_over_cap_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "--q", "21")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "depth" in err and err.count("\n") == 1
    doc = {"type": "fractal", "q": 21, "directed": False, "cost": 1, "edges": []}
    deep = tmp_path / "fractal.json"
    deep.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--method", "fpt", "--input", str(deep))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "depth" in err and err.count("\n") == 1


def test_argparse_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # missing required --q
    assert exc.value.code == 2


def test_vertex_count_over_cap_exits_two(capsys, tmp_path):
    huge = MAX_VERTICES + 1
    inst = json.loads((FIXTURES / "lbec_a.json").read_text())
    vc = json.loads((FIXTURES / "vc_cycle4.json").read_text())
    (tmp_path / "inst.json").write_text(json.dumps({**inst, "n": huge}))
    (tmp_path / "vc.json").write_text(json.dumps({**vc, "n": huge}))
    for argv in (("solve", "--method", "fpt", "--input", str(tmp_path / "inst.json")),
                 ("reduce", "--vc", str(tmp_path / "vc.json"),
                  "--embedding", str(FIXTURES / "embedding_cycle4.json"))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: field 'n' is {huge}, above the cap of {MAX_VERTICES}\n"


@pytest.mark.parametrize("argv,message", [
    (("lemmas", "--q-max", "-3", "--samples", "5"), "--q-max must be in 0..12, got -3"),
    (("lemmas", "--q-max", "21"), "--q-max must be in 0..12, got 21"),
    (("lemmas", "--q-max", "2", "--samples", "-5"),
     "--samples must be non-negative, got -5"),
    (("compositions", "--trials", "-2"), "--trials must be at least 1, got -2"),
    (("compositions", "--trials", "0"), "--trials must be at least 1, got 0"),
    # the first depth whose distance-split check runs for over a minute
    (("lemmas", "--q-max", "13"), "--q-max must be in 0..12, got 13"),
])
def test_verify_refuses_ranges_that_check_nothing(capsys, argv, message):
    code, out, err = run(capsys, "verify", "--suite", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
