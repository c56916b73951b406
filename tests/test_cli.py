import json
from pathlib import Path

import pytest

import helpers
from passforest import MockBackend, save_mock_program
from passforest.cli import main
from passforest.skeletons import SKELETON_VARIANT_NAMES

AB_REGISTRY = "a=function\nb=function\n"
BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


@pytest.fixture
def ab_registry_file(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text(AB_REGISTRY)
    return str(path)


# ---------------------------------------------------------------------------
# validate / fmt
# ---------------------------------------------------------------------------

def test_validate_ok(capsys):
    assert main(["validate", "module(globalopt)"]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_top_level_cites_r1(capsys):
    assert main(["validate", "loop(licm)"]) == 1
    assert "R1" in capsys.readouterr().out


def test_validate_level_mismatch_cites_r7(capsys):
    assert main(["validate", "module(function(globalopt))"]) == 1
    assert "R7" in capsys.readouterr().out


def test_validate_json_output(capsys):
    assert main(["validate", "module(globalopt)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True


def test_fmt_canonicalizes(capsys):
    assert main(["fmt", " module( globalopt , function( gvn ) ) "]) == 0
    assert capsys.readouterr().out.strip() == "module(globalopt,function(gvn))"


def test_fmt_bad_pipeline_exit_code(capsys):
    assert main(["fmt", "module("]) == 1


def test_validate_hostile_nesting_is_invalid_input(capsys):
    deep = "module(" * 3000 + "globalopt" + ")" * 3000
    assert main(["validate", deep]) == 1
    assert "nested more than" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_mock(capsys, m1_file, ab_registry_file):
    code = main(
        [
            "evaluate",
            "--program", m1_file,
            "--pipeline", "module(function(a,b))",
            "--registry", ab_registry_file,
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "82"


def test_evaluate_unknown_pass_is_invalid_input(capsys, m1_file):
    code = main(
        ["evaluate", "--program", m1_file, "--pipeline", "module(zzz)"]
    )
    assert code == 1


def test_evaluate_missing_opt_input_is_evaluation_failure(capsys, tmp_path):
    code = main(
        [
            "evaluate",
            "--program", str(tmp_path / "missing.ll"),
            "--pipeline", "module(globalopt)",
            "--evaluator", "opt",
            "--opt-path", "/nonexistent/opt",
        ]
    )
    assert code == 3


def test_evaluate_deep_call_cycle_is_invalid_input(capsys, tmp_path):
    n = 3000
    spec = {
        "functions": [{"name": f"f{i}", "base_ic": 10} for i in range(n)],
        "calls": [[f"f{i}", f"f{(i + 1) % n}"] for i in range(n)],
    }
    program = tmp_path / "chain.json"
    program.write_text(json.dumps(spec))
    code = main(
        ["evaluate", "--program", str(program), "--pipeline", "module(globalopt)"]
    )
    assert code == 1
    assert "call graph has a cycle" in capsys.readouterr().err


def _assert_one_line_error(capsys, *files):
    """One line on stderr, no traceback, starting with the name of one of
    ``files`` when any are given."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    if files:
        assert err.startswith(tuple(f"error: {f}: " for f in files)), err


@pytest.mark.parametrize(
    "spec",
    [
        {"functions": [{"name": "f", "base_ic": 10}], "effects": [1]},
        {"functions": [{"name": "f", "base_ic": 10}], "calls": [["f"]]},
        {"functions": [{"name": [1], "base_ic": 10}]},
        {"functions": [{"name": "f", "base_ic": 10}], "calls": [["f", ["f"]]]},
        {"functions": [{"name": "f", "base_ic": "12"}]},
        {"functions": [{"name": "f", "base_ic": 7.9}]},
        {"functions": [{"name": "f", "base_ic": True}]},
        {"functions": [{"name": "f", "base_ic": 10}], "effects": {"gvn": True}},
        {"functions": [{"name": "f", "base_ic": 10}], "effects": {"gvn": 2.0}},
        {"functions": [{"name": "f", "base_ic": 10}], "effects": {"gvn": "3"}},
        {
            "functions": [{"name": "f", "base_ic": 10}],
            "pair_synergy": [{"p": "gvn", "q": "dce", "bonus": 1.5}],
        },
        {
            "functions": [{"name": "f", "base_ic": 10}],
            "coupling": [{"p": "gvn", "q": "dce", "bonus": "2"}],
        },
        {
            "functions": [{"name": "f", "base_ic": 10}],
            "pair_synergy": [{"p": 1, "q": "dce", "bonus": 1}],
        },
        {
            "functions": [{"name": "f", "base_ic": 10}],
            "coupling": [{"p": "gvn", "q": None, "bonus": 1}],
        },
        {
            "functions": [{"name": "f", "base_ic": 10}],
            "effects": {"gvn": 1},
            "pair_synergy": [{"p": "gvn", "q": "adce", "bonus": -50}],
        },
        {
            "functions": [{"name": "f", "base_ic": 10}, {"name": "g", "base_ic": 10}],
            "calls": [["f", "g"]],
            "coupling": [{"p": "gvn", "q": "adce", "bonus": -50}],
        },
        {
            "functions": [{"name": "a", "base_ic": 10}, {"name": "b", "base_ic": 10}],
            "calls": ["ab"],
        },
    ],
    ids=[
        "effects-not-object",
        "short-call-edge",
        "name-not-string",
        "edge-names-list",
        "base-ic-string",
        "base-ic-float",
        "base-ic-bool",
        "effect-bool",
        "effect-float",
        "effect-string",
        "synergy-bonus-float",
        "coupling-bonus-string",
        "synergy-pass-int",
        "coupling-pass-null",
        "synergy-bonus-negative",
        "coupling-bonus-negative",
        "call-edge-string",
    ],
)
def test_evaluate_malformed_mock_spec_is_invalid_input(capsys, tmp_path, spec):
    program = tmp_path / "bad.json"
    program.write_text(json.dumps(spec))
    code = main(
        ["evaluate", "--program", str(program), "--pipeline", "module(globalopt)"]
    )
    assert code == 1
    _assert_one_line_error(capsys, program)


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------

def test_mine_writes_graph(capsys, tmp_path, m1_file, ab_registry_file):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    save_mock_program_from(m1_file, dataset / "m1.json")
    out = tmp_path / "graph.json"
    code = main(
        [
            "mine",
            "--dataset", str(dataset),
            "--out", str(out),
            "--registry", ab_registry_file,
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["edges"] == [
        {"from": "a", "to": "b", "type": "intra", "weight": 1.0}
    ]


def save_mock_program_from(src, dst):
    dst.write_text(Path(src).read_text())


def test_mine_empty_dir_exit_2(tmp_path, capsys):
    dataset = tmp_path / "empty"
    dataset.mkdir()
    code = main(
        ["mine", "--dataset", str(dataset), "--out", str(tmp_path / "g.json")]
    )
    assert code == 2


def test_mine_missing_dir_exit_2(tmp_path):
    code = main(
        [
            "mine",
            "--dataset", str(tmp_path / "nope"),
            "--out", str(tmp_path / "g.json"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("flag", ["--out", "--checkpoint"])
def test_mine_into_a_missing_directory_evaluates_nothing(capsys, tmp_path, flag):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "p.ll").write_text("define void @f() {\n  ret void\n}\n")
    calls = tmp_path / "calls"
    fake = helpers.write_script(tmp_path / "opt", f'echo "$@" >> {calls}\ncat "$2"\n')
    missing = tmp_path / "missing"
    paths = {"--out": str(tmp_path / "g.json"), "--checkpoint": str(tmp_path / "g.ckpt")}
    paths[flag] = str(missing / "g.json")
    argv = ["mine", "--dataset", str(dataset), "--evaluator", "opt", "--opt-path", fake]
    for name, path in paths.items():
        argv += [name, path]
    assert main(argv) == 2
    assert str(missing) in capsys.readouterr().err
    assert not calls.exists()


def test_mine_prints_a_skipped_pass_on_stderr(capsys, tmp_path, ab_registry_file):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "p.ll").write_text("define void @f() {\n  ret void\n}\n")
    # fails every pipeline that runs pass b; no -passes prints the input
    fake = helpers.write_script(
        tmp_path / "opt",
        'case "$2" in -passes=*b*) echo boom >&2; exit 1;; -passes=*) shift;; esac\ncat "$2"\n',
    )
    argv = [
        "mine", "--dataset", str(dataset), "--out", str(tmp_path / "g.json"),
        "--registry", ab_registry_file, "--evaluator", "opt", "--opt-path", fake,
    ]
    assert main(argv) == 0
    assert capsys.readouterr().err == "skipping pass b: opt exited 1: boom\n"


def test_mine_bad_program_spec_names_the_file(capsys, tmp_path, m1_file, ab_registry_file):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    save_mock_program_from(m1_file, dataset / "a.json")
    bad = dataset / "b.json"
    bad.write_text(json.dumps({"calls": []}))
    argv = [
        "mine",
        "--dataset", str(dataset),
        "--out", str(tmp_path / "g.json"),
        "--registry", ab_registry_file,
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


def test_mine_resume_identical(capsys, tmp_path, m1_file, m2_file, ab_registry_file):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    save_mock_program_from(m1_file, dataset / "a.json")
    save_mock_program_from(m2_file, dataset / "b.json")
    out1 = tmp_path / "g1.json"
    out2 = tmp_path / "g2.json"
    args = ["mine", "--dataset", str(dataset), "--registry", ab_registry_file]
    assert main(args + ["--out", str(out1)]) == 0
    # rerun with the checkpoint present: all programs skip, same graph
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--checkpoint", str(tmp_path / "c")]) == 0
    g1 = json.loads(out1.read_text())
    g2 = json.loads(out2.read_text())
    assert g1["edges"] == g2["edges"]
    assert g1["start_weights"] == g2["start_weights"]


def _record(**fields):
    record = {"stamp": [10, 20], "pairs": [["a", "b"]]}
    record.update(fields)
    return {"programs": {"a.json": record}}


@pytest.mark.parametrize(
    "checkpoint",
    [
        [1],
        {},
        {"programs": [1]},
        {"programs": {"a.json": 1}},
        _record(stamp=10),
        _record(stamp=[10, "20"]),
        _record(stamp=[10, True]),
        _record(pairs={"a": "b"}),
        _record(pairs=[["a", "b", "a"]]),
        _record(pairs=[["a", 1]]),
        _record(pairs=[["a", "gvn"]]),
    ],
    ids=[
        "not-object", "programs-missing", "programs-list", "record-not-object",
        "stamp-not-list", "stamp-entry-not-int", "stamp-entry-bool",
        "pairs-not-list", "pair-not-two-passes", "pair-name-not-string",
        "pair-unknown-pass",
    ],
)
def test_mine_malformed_checkpoint_is_invalid_input(
    capsys, tmp_path, m1_file, ab_registry_file, checkpoint
):
    code = _mine_with_checkpoint(tmp_path, m1_file, ab_registry_file, checkpoint)
    assert code == 1
    _assert_one_line_error(capsys)


def _mine_with_checkpoint(tmp_path, m1_file, ab_registry_file, checkpoint):
    from passforest import load_registry

    dataset = tmp_path / "ds"
    dataset.mkdir()
    save_mock_program_from(m1_file, dataset / "a.json")
    if isinstance(checkpoint, dict):
        checkpoint["registry_hash"] = load_registry(AB_REGISTRY).content_hash()
    path = tmp_path / "mine.ckpt"
    path.write_text(json.dumps(checkpoint))
    return main([
        "mine",
        "--dataset", str(dataset),
        "--out", str(tmp_path / "g.json"),
        "--checkpoint", str(path),
        "--registry", ab_registry_file,
    ])


def test_mine_old_format_checkpoint_says_delete_it(
    capsys, tmp_path, m1_file, ab_registry_file
):
    old = {"counts": {"a": {"b": 1}}, "done": [str(tmp_path / "ds" / "a.json")]}
    assert _mine_with_checkpoint(tmp_path, m1_file, ab_registry_file, old) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(tmp_path / "mine.ckpt") in err and "delete it" in err


def _mine_edges(dataset, out) -> int:
    assert main(["mine", "--dataset", str(dataset), "--out", str(out)]) == 0
    return len(json.loads(out.read_text())["edges"])


def test_mine_another_dataset_into_same_out_sums_only_it(tmp_path):
    tune, wide = tmp_path / "tune", tmp_path / "wide"
    tune.mkdir()
    wide.mkdir()
    save_mock_program_from(BENCH_DATA / "mock_tune.json", tune / "mock_tune.json")
    save_mock_program_from(
        BENCH_DATA / "mock_refine_wide.json", wide / "mock_refine_wide.json"
    )
    out = tmp_path / "g.json"
    assert _mine_edges(tune, out) == 90
    assert _mine_edges(wide, out) == 150
    assert json.loads(out.read_text())["meta"]["dataset_size"] == 1
    fresh = tmp_path / "fresh.json"
    _mine_edges(wide, fresh)
    assert out.read_text() == fresh.read_text()


def test_mine_replaced_program_file_is_mined_again(tmp_path):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    program = dataset / "p.json"
    save_mock_program_from(BENCH_DATA / "mock_tune.json", program)
    out = tmp_path / "g.json"
    assert _mine_edges(dataset, out) == 90
    save_mock_program_from(BENCH_DATA / "mock_refine_wide.json", program)
    assert _mine_edges(dataset, out) == 150
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    save_mock_program_from(program, fresh / "p.json")
    assert _mine_edges(fresh, tmp_path / "fresh.json") == 150


# ---------------------------------------------------------------------------
# search / refine
# ---------------------------------------------------------------------------

def _mine_graph(tmp_path, m1_file, ab_registry_file):
    dataset = tmp_path / "searchds"
    dataset.mkdir(exist_ok=True)
    save_mock_program_from(m1_file, dataset / "m1.json")
    graph = tmp_path / "graph.json"
    assert (
        main(
            [
                "mine",
                "--dataset", str(dataset),
                "--out", str(graph),
                "--registry", ab_registry_file,
            ]
        )
        == 0
    )
    return str(graph)


def test_search_finds_optimum(capsys, tmp_path, m1_file, ab_registry_file):
    graph = _mine_graph(tmp_path, m1_file, ab_registry_file)
    capsys.readouterr()
    code = main(
        [
            "search",
            "--program", m1_file,
            "--graph", graph,
            "--registry", ab_registry_file,
            "--population", "8",
            "--generations", "5",
            "--max-len", "2",
            "--seed", "7",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_fitness"] == 18
    assert payload["best_pipeline"] == "module(function(a,b))"


def test_search_log_file(tmp_path, m1_file, ab_registry_file, capsys):
    graph = _mine_graph(tmp_path, m1_file, ab_registry_file)
    log_path = tmp_path / "search.jsonl"
    code = main(
        [
            "search",
            "--program", m1_file,
            "--graph", graph,
            "--registry", ab_registry_file,
            "--population", "4",
            "--generations", "3",
            "--seed", "1",
            "--log", str(log_path),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(records) == 4
    assert {"generation", "best_fitness", "mean_fitness", "best_pipeline_string"} == set(
        records[0]
    )


@pytest.mark.parametrize("command", ["search", "tune"])
def test_a_log_into_a_missing_directory_evaluates_nothing(
    capsys, monkeypatch, tmp_path, m1_file, command
):
    calls = []
    for method in ("evaluate", "original_count"):
        real = getattr(MockBackend, method)
        monkeypatch.setattr(
            MockBackend, method,
            lambda self, *args, _real=real: calls.append(args) or _real(self, *args),
        )
    missing = tmp_path / "missing"
    argv = [command, "--program", m1_file, "--log", str(missing / "log.jsonl")]
    assert main(argv) == 2
    assert str(missing) in capsys.readouterr().err
    assert calls == []
    assert main(argv[:-2] + ["--population", "4", "--generations", "1"]) == 0
    assert calls  # the spy sees a run that evaluates


def _graph(**overrides):
    graph = {
        "nodes": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "type": "intra", "weight": 1.0}],
        "start_weights": {"a": 1.0},
        "meta": {},
    }
    graph.update(overrides)
    return graph


def _edge(**overrides):
    return dict({"from": "a", "to": "b", "type": "intra", "weight": 1.0}, **overrides)


@pytest.mark.parametrize(
    "graph",
    [
        [1],
        _graph(start_weights=[1]),
        _graph(edges=[_edge(**{"from": 1})]),
        _graph(edges=[1]),
        _graph(nodes=1),
        _graph(nodes=[1]),
        _graph(meta=[1]),
        _graph(edges=[_edge(weight="nan")]),
        _graph(edges=[_edge(weight=float("inf"))]),
        _graph(start_weights={"a": 1.5, "b": -0.5}),
        _graph(edges=[_edge(weight="1")]),
        _graph(edges=[_edge(weight=True)]),
        _graph(start_weights={"a": "1"}),
    ],
    ids=[
        "not-object", "start-weights-list", "edge-from-int", "edge-not-object",
        "nodes-int", "node-not-string", "meta-list", "weight-nan-string",
        "weight-infinity", "start-weight-negative", "weight-string", "weight-bool",
        "start-weight-string",
    ],
)
def test_search_malformed_graph_is_invalid_input(
    capsys, tmp_path, m1_file, ab_registry_file, graph
):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    argv = [
        "search",
        "--program", m1_file,
        "--graph", str(path),
        "--registry", ab_registry_file,
        "--population", "4",
        "--generations", "1",
    ]
    assert main(argv) == 1
    _assert_one_line_error(capsys, path)


@pytest.mark.parametrize(
    "graph",
    [_graph(edges=[_edge(weight=-3)]), _graph(start_weights={"a": 0.5})],
    ids=["weight-negative", "start-weights-sum"],
)
def test_graph_invariant_errors_name_the_file(
    capsys, tmp_path, m1_file, ab_registry_file, graph
):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    argv = ["search", "--program", m1_file, "--graph", str(path),
            "--registry", ab_registry_file]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "graph",
    [
        {"edges": [], "start_weights": {"gvn": 0.0, "zzz": 1.0}},
        {
            "edges": [
                _edge(**{"from": "gvn", "to": "adce", "weight": 0.0}),
                _edge(**{"from": "gvn", "to": "zzz", "weight": 1.0}),
            ],
            "start_weights": {"gvn": 1.0},
        },
    ],
    ids=["start-weight-zero", "edge-weight-zero"],
)
def test_search_never_draws_a_weight_of_zero(capsys, tmp_path, graph):
    # zzz is not a registry pass, so every registry weight a draw sees is 0
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    argv = [
        "search",
        "--program", str(BENCH_DATA / "mock_tune.json"),
        "--graph", str(path),
        "--population", "4",
        "--generations", "2",
        "--json",
    ]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["best_pipeline"]


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--registry", b"\xff\xfe{"),
        ("--program", b"\xff\xfe{"),
        ("--graph", b"\xff\xfe{"),
        ("--registry", b"gvn\n"),
        ("--registry", b"gvn=function\ngvn=function\n"),
        ("--registry", b"gvn=nowhere\n"),
    ],
    ids=["--registry", "--program", "--graph",
         "--registry-no-level", "--registry-repeated-pass", "--registry-unknown-level"],
)
def test_a_file_that_is_not_utf8_names_itself(capsys, tmp_path, m1_file, flag, content):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(content)
    # the last --program given wins
    argv = ["search", "--program", m1_file, "--generations", "1", flag, str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["search", "evaluate"])
@pytest.mark.parametrize("timeout", ["0", "-1", "inf", "-inf", "nan"])
def test_timeout_must_be_finite_and_positive(capsys, tmp_path, command, timeout):
    argv = [
        command, "--program", str(tmp_path / "p.ll"), "--evaluator", "opt",
        "--opt-path", "/nonexistent/opt", f"--timeout={timeout}",
    ]
    if command == "evaluate":
        argv += ["--pipeline", "module(globalopt)"]
    assert main(argv) == 1
    _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "extra",
    [["--parallel", "0"], ["--parallel", "-3"], ["--generations", "-1"]],
    ids=["parallel-0", "parallel-negative", "generations-negative"],
)
def test_search_rejects_negative_sizes(capsys, m1_file, ab_registry_file, extra):
    argv = ["search", "--program", m1_file, "--registry", ab_registry_file, *extra]
    assert main(argv) == 1
    _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "budget, code", [("-1", 1), ("-4096", 1), ("0", 0)], ids=["-1", "-4096", "0"]
)
def test_refine_exhaustive_budget_range(capsys, m1_file, ab_registry_file, budget, code):
    argv = [
        "refine", "--program", m1_file, "--registry", ab_registry_file,
        "--pipeline", "module(function(a,b))", "--exhaustive-budget", budget,
    ]
    assert main(argv) == code
    if code:
        _assert_one_line_error(capsys)


def test_search_emitted_pipeline_validates(tmp_path, m1_file, ab_registry_file, capsys):
    graph = _mine_graph(tmp_path, m1_file, ab_registry_file)
    capsys.readouterr()
    main(
        [
            "search",
            "--program", m1_file,
            "--graph", graph,
            "--registry", ab_registry_file,
            "--population", "4",
            "--generations", "2",
            "--seed", "3",
            "--json",
        ]
    )
    best = json.loads(capsys.readouterr().out)["best_pipeline"]
    assert main(["validate", best, "--registry", ab_registry_file]) == 0


def test_refine_reports_improvement(capsys, m2_file, ab_registry_file):
    code = main(
        [
            "refine",
            "--program", m2_file,
            "--pipeline", "module(function(a,b))",
            "--registry", ab_registry_file,
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed_ic"] == 80
    assert payload["refined_ic"] == 73
    assert payload["refined_pipeline"] == "module(function(a),function(b))"
    assert payload["decision_point_count"] == 1


def test_seeded_commands_are_bit_reproducible(capsys, tmp_path, m1_file, ab_registry_file):
    graph = _mine_graph(tmp_path, m1_file, ab_registry_file)
    search_args = [
        "search",
        "--program", m1_file,
        "--graph", graph,
        "--registry", ab_registry_file,
        "--population", "10",
        "--generations", "4",
        "--seed", "99",
        "--json",
    ]
    outputs = []
    for extra in ([], [], ["--parallel", "4"]):
        capsys.readouterr()
        assert main(search_args + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_table_1_derived_means(capsys, tmp_path):
    results = tmp_path / "results.json"
    results.write_text(
        json.dumps(
            [
                {"program": "dijkstra", "ic_oz": 450, "ic_tuned": 372, "dataset": "da"},
                {"program": "qsort", "ic_oz": 638, "ic_tuned": 601, "dataset": "db"},
            ]
        )
    )
    assert main(["report", "--results", str(results), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["groups"]["da"]["mean_overoz_pct"] == pytest.approx(17.33, abs=0.01)
    assert payload["groups"]["db"]["mean_overoz_pct"] == pytest.approx(5.80, abs=0.01)


def test_report_manifest_labels(capsys, tmp_path):
    results = tmp_path / "results.json"
    results.write_text(
        json.dumps(
            [
                {"program": "p1", "ic_oz": 100, "ic_tuned": 90},
                {"program": "p2", "ic_oz": 100, "ic_tuned": 80},
            ]
        )
    )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"p1": "x", "p2": "y"}))
    assert (
        main(
            [
                "report",
                "--results", str(results),
                "--manifest", str(manifest),
                "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_of_group_means"] == 15.0


def test_report_missing_file_exit_2(tmp_path):
    assert main(["report", "--results", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize(
    "rows, manifest",
    [
        ([{}], None),
        ({}, None),
        ([1], None),
        ([{"program": "p", "ic_oz": None, "ic_tuned": 90}], None),
        ([{"program": "p", "ic_oz": float("inf"), "ic_tuned": 90}], None),
        ([{"program": "p", "ic_oz": 10.7, "ic_tuned": 9}], None),
        ([{"program": "p", "ic_oz": 100, "ic_tuned": True}], None),
        ([{"program": ["x"], "ic_oz": 100, "ic_tuned": 90}], None),
        ([{"program": "p", "ic_oz": 100, "ic_tuned": 90, "dataset": 5}], None),
        ([{"program": "p", "ic_oz": 100, "ic_tuned": 90}], [1]),
        ([{"program": "p", "ic_oz": 100, "ic_tuned": 90}], {"p": 5}),
        ([], None),
    ],
    ids=[
        "row-without-keys", "rows-not-list", "row-not-object", "count-null",
        "count-infinite", "count-float", "count-bool", "program-list", "dataset-int",
        "manifest-not-object", "manifest-label-int", "rows-empty",
    ],
)
def test_report_malformed_input_is_invalid_input(capsys, tmp_path, rows, manifest):
    """A case with a manifest is a fault of the manifest, the others of the
    results file."""
    bad = results = tmp_path / "results.json"
    results.write_text(json.dumps(rows))
    argv = ["report", "--results", str(results)]
    if manifest is not None:
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(manifest))
        argv += ["--manifest", str(bad)]
    assert main(argv) == 1
    _assert_one_line_error(capsys, bad)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("ic_oz", -5, "ic_oz -5 is negative"),
        ("ic_tuned", -5, "ic_tuned -5 is negative"),
        ("ic_oz", 0, "ic_oz 0 of program 'p' cannot anchor a percentage"),
    ],
    ids=["ic_oz", "ic_tuned", "ic_oz-zero"],
)
def test_report_refuses_negative_counts(capsys, tmp_path, key, value, message):
    row = dict({"program": "p", "ic_oz": 100, "ic_tuned": 90}, **{key: value})
    results = tmp_path / "results.json"
    results.write_text(json.dumps([row]))
    assert main(["report", "--results", str(results)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}: ") and err.count("\n") == 1
    assert message in err and "'p'" in err
    assert "each row needs" not in err


@pytest.mark.parametrize("bad", ["results", "manifest"])
def test_report_invalid_json_names_the_file(capsys, tmp_path, bad):
    files = {name: tmp_path / f"{name}.json" for name in ("results", "manifest")}
    files["results"].write_text('[{"program": "p", "ic_oz": 100, "ic_tuned": 90}]')
    files["manifest"].write_text('{"p": "x"}')
    files[bad].write_text("{not json")
    argv = ["report", "--results", str(files["results"])]
    assert main(argv + ["--manifest", str(files["manifest"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[bad]}: not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flag", ["--program", "--graph", "--checkpoint", "--results", "--manifest"]
)
def test_json_nested_too_deeply_names_the_file(capsys, tmp_path, m1_file, flag):
    deep = str(tmp_path / "deep.json")
    Path(deep).write_text("[" * 100_000 + "]" * 100_000)
    dataset = tmp_path / "ds"
    dataset.mkdir()
    save_mock_program_from(m1_file, dataset / "m1.json")
    results = tmp_path / "results.json"
    results.write_text('[{"program": "p", "ic_oz": 100, "ic_tuned": 90}]')
    argv = {
        "--program": ["evaluate", "--program", deep, "--pipeline", "module(globalopt)"],
        "--graph": ["search", "--program", m1_file, "--graph", deep],
        "--checkpoint": [
            "mine", "--dataset", str(dataset), "--out", str(tmp_path / "g.json"),
            "--checkpoint", deep,
        ],
        "--results": ["report", "--results", deep],
        "--manifest": ["report", "--results", str(results), "--manifest", deep],
    }[flag]
    assert main(argv) == 1
    _assert_one_line_error(capsys, deep)


# ---------------------------------------------------------------------------
# experiment structure
# ---------------------------------------------------------------------------

def test_skeleton_experiment_grouping(capsys, tmp_path):
    from passforest import MockFunction, MockProgram

    registry_file = tmp_path / "reg.txt"
    registry_file.write_text("m=module\nc=cgscc\nf=function\nl=loop\n")
    program = MockProgram(
        functions=(MockFunction("f1", 60), MockFunction("f2", 60)),
        call_edges=(("f1", "f2"),),
        pass_effects={"m": 1, "c": 2, "f": 3, "l": 4},
        coupling={("c", "f"): 9},
    )
    program_file = tmp_path / "prog.json"
    save_mock_program(program, program_file)
    payloads = []
    for extra in ([], ["--parallel", "4"]):
        code = main(
            [
                "experiment",
                "structure",
                "--program", str(program_file),
                "--passes", "m,c,f,l",
                "--registry", str(registry_file),
                "--json",
            ]
            + extra
        )
        assert code == 0
        payloads.append(json.loads(capsys.readouterr().out))
    payload, parallel_payload = payloads
    assert parallel_payload == payload
    (case,) = payload["cases"]
    assert [row["name"] for row in case["variants"]] == list(
        SKELETON_VARIANT_NAMES.values()
    )
    counts = [row["instruction_count"] for row in case["variants"]]
    assert counts[0] == counts[1] == counts[2]
    assert counts[3] == counts[4]
    assert counts[0] != counts[3]
    assert case["agree"] is False


@pytest.mark.parametrize(
    "group",
    [
        "gvn",
        "a,b,c",
        "gvn,inline,gvn,loop-deletion",
        "globalopt,inline,gvn,gvn",
        "invalidate<all>,gvn",
        "gvn,ghost",
        "gvn,adce;",
    ],
    ids=[
        "one-name", "three-names", "quartet-wrong-level", "quartet-no-loop",
        "polymorphic", "unknown-pass", "empty-group",
    ],
)
def test_experiment_structure_rejects_bad_group(capsys, m1_file, group):
    argv = ["experiment", "structure", "--program", m1_file, "--passes", group]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = group.split(";")[-1]
    assert captured.err.startswith(f"error: pass group {bad!r}")
    assert captured.err.count("\n") == 1
