import argparse
import json
import shutil
from pathlib import Path

import pytest

from helpers import save_mock_program
from passforest import (
    MockFunction,
    MockProgram,
    OptBackend,
    SearchConfig,
    default_registry,
    load_registry,
    mine_synergies,
    parse_pipeline,
    save_graph,
    tune,
)
from passforest.cli import main as cli_main
from passforest.evaluation import count_ir_instructions, resolve_opt_path
from passforest.experiments import run_structure_study
from passforest.search import failed_fitness
from passforest.synergy import SynergyGraph

import helpers

LOOPS_LL = str(Path(__file__).resolve().parent / "data" / "loops.ll")
LOOPS_LL_IC = count_ir_instructions(Path(LOOPS_LL).read_text(encoding="utf-8"))


def _counts(case) -> dict:
    return {row["name"]: row["instruction_count"] for row in case["variants"]}


def test_microstructure_agreement_without_coupling(m1, ab_registry, backend):
    result = run_structure_study([("a", "b")], m1, ab_registry, backend)
    case = result["cases"][0]
    assert _counts(case) == {"micro": 82, "meso": 82, "macro": 82}
    assert case["agree"] is True
    assert result["agreement_fraction"] == 1.0
    assert result["original_ic"] == 100


def test_experiments_cli_microstructure_without_pairs_exit_1(tmp_path, m1, capsys):
    program_file = tmp_path / "m1.json"
    save_mock_program(m1, program_file)
    code = cli_main(["experiment", "structure", "--program", str(program_file)])
    assert code == 1
    captured = capsys.readouterr()
    assert "structure study has no cases" in captured.err
    assert captured.out == ""


def test_microstructure_flags_coupling_disagreement(m2, ab_registry, backend):
    result = run_structure_study([("a", "b")], m2, ab_registry, backend)
    case = result["cases"][0]
    assert _counts(case) == {"micro": 80, "meso": 73, "macro": 73}
    assert case["agree"] is False
    assert result["agreement_fraction"] == 0.0


def test_microstructure_inter_level_pair(backend):
    registry = load_registry("m=module\nf=function\n")
    program = MockProgram(
        functions=(MockFunction("f1", 40), MockFunction("f2", 40)),
        call_edges=(("f1", "f2"),),
        pass_effects={"m": 2, "f": 3},
        pair_synergy={("m", "f"): 4},
    )
    result = run_structure_study([("m", "f")], program, registry, backend)
    counts = _counts(result["cases"][0])
    assert counts["nested"] == counts["phased"]


def test_microstructure_shallower_second_pass_is_phased_only(backend):
    registry = load_registry("m=module\nf=function\n")
    program = MockProgram(functions=(MockFunction("f1", 40),), pass_effects={"m": 2, "f": 3})
    result = run_structure_study([("f", "m")], program, registry, backend)
    assert _counts(result["cases"][0]) == {"phased": 35}


def test_structure_study_defaults_to_graph_edges(tmp_path, m1, ab_registry, backend, capsys):
    program_file = tmp_path / "m1.json"
    save_mock_program(m1, program_file)
    graph_file = tmp_path / "g.json"
    save_graph(mine_synergies([m1], ab_registry, backend), graph_file)
    registry_file = tmp_path / "reg.txt"
    registry_file.write_text("a=function\nb=function\n")
    argv = [
        "experiment", "structure", "--program", str(program_file),
        "--graph", str(graph_file), "--registry", str(registry_file), "--json",
    ]
    assert cli_main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [case["passes"] for case in payload["cases"]] == [["a", "b"]]


def test_rq3_identical_seeds_identical_trajectories(m1, ab_registry, backend):
    # RQ3 (does synergy guidance help?) compares tune with and without a
    # graph; RQ4 (does refinement help?) its search and refined counts.
    graph = mine_synergies([m1], ab_registry, backend)
    config = SearchConfig(
        population_size=6, generations=4, max_sequence_length=3, seed=5
    )
    for g in (graph, SynergyGraph.empty()):
        first = tune(m1, g, ab_registry, backend, config)
        second = tune(m1, g, ab_registry, backend, config)
        assert first == second


def test_rq3_guidance_helps_with_planted_synergy(backend):
    # many junk passes, one planted synergistic pair
    lines = ["a=function", "b=function"] + [
        f"junk{i}=function" for i in range(10)
    ]
    registry = load_registry("\n".join(lines) + "\n")
    program = MockProgram(
        functions=(MockFunction("f1", 100),),
        pass_effects={"a": 10, "b": 5},
        pair_synergy={("a", "b"): 3},
    )
    graph = mine_synergies([program], registry, backend)
    wins = 0
    for seed in range(50):
        config = SearchConfig(
            population_size=6, generations=2, max_sequence_length=4, seed=seed
        )
        guided = tune(program, graph, registry, backend, config)
        unguided = tune(program, SynergyGraph.empty(), registry, backend, config)
        wins += guided["search_ic"] <= unguided["search_ic"]
    assert wins >= 40


def test_rq3_zero_effect_program(ab_registry, backend):
    program = MockProgram(functions=(MockFunction("f1", 30),), pass_effects={})
    config = SearchConfig(
        population_size=4, generations=2, max_sequence_length=2, seed=1
    )
    for graph in (SynergyGraph.empty(), mine_synergies([program], ab_registry, backend)):
        result = tune(program, graph, ab_registry, backend, config)
        assert result["search_ic"] == result["refined_ic"] == 30
        assert result["generations"][-1]["best_fitness"] == 0


def test_rq4_positive_gain_on_coupling(m2, ab_registry, backend):
    graph = mine_synergies([m2], ab_registry, backend)
    config = SearchConfig(
        population_size=8, generations=6, max_sequence_length=4, seed=3
    )
    result = tune(m2, graph, ab_registry, backend, config)
    assert result["refined_ic"] <= result["search_ic"]
    assert result["gain_pct"] > 0


def test_rq4_zero_gain_on_structure_insensitive_mock(m1, ab_registry, backend):
    graph = mine_synergies([m1], ab_registry, backend)
    config = SearchConfig(
        population_size=8, generations=6, max_sequence_length=2, seed=3
    )
    result = tune(m1, graph, ab_registry, backend, config)
    assert result["gain_pct"] == 0.0


def test_rq4_zero_gain_without_decision_points(backend):
    registry = load_registry("m=module\n")
    program = MockProgram(
        functions=(MockFunction("f1", 30),), pass_effects={"m": 5}
    )
    config = SearchConfig(
        population_size=4, generations=2, max_sequence_length=1, seed=1
    )
    result = tune(program, SynergyGraph.empty(), registry, backend, config)
    assert result["decision_point_count"] == 0
    assert result["gain_pct"] == 0.0


def test_structure_study_cli_json_and_text(tmp_path, m1, capsys):
    program_file = tmp_path / "m1.json"
    save_mock_program(m1, program_file)
    registry_file = tmp_path / "reg.txt"
    registry_file.write_text("a=function\nb=function\n")
    argv = [
        "experiment", "structure", "--program", str(program_file),
        "--registry", str(registry_file), "--passes", "a,b",
    ]
    assert cli_main(argv + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agreement_fraction"] == 1.0
    assert data["cases"][0]["variants"][0] == {
        "name": "micro",
        "pipeline": "module(function(a,b))",
        "instruction_count": 82,
        "detail": "",
    }
    assert cli_main(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith("structure\n")
    assert "agreement fraction: 1.0000" in text


def test_experiments_cli_rq4(tmp_path, m2_file, capsys):
    registry_file = tmp_path / "reg.txt"
    registry_file.write_text("a=function\nb=function\n")
    argv = [
        "tune", "--program", m2_file, "--registry", str(registry_file),
        "--seed", "3", "--json",
    ]
    assert cli_main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["refined_ic"] <= data["search_ic"]


def _assert_tune_is_the_hand_chain(common, search_only, seed, capsys) -> str:
    """``tune`` gives what ``search --json`` then ``refine --pipeline
    <best>`` give with the same flags; returns tune's output."""
    seeded = common + ["--seed", str(seed), "--json"]
    assert cli_main(["search"] + search_only + seeded) == 0
    searched = json.loads(capsys.readouterr().out)
    argv = ["refine", "--pipeline", searched["best_pipeline"]] + seeded
    assert cli_main(argv) == 0
    refined = json.loads(capsys.readouterr().out)
    assert cli_main(["tune"] + search_only + seeded) == 0
    out = capsys.readouterr().out
    tuned = json.loads(out)
    assert tuned["search_pipeline"] == searched["best_pipeline"] == refined["seed_pipeline"]
    assert tuned["search_ic"] == refined["seed_ic"]
    assert tuned["refined_pipeline"] == refined["refined_pipeline"]
    assert tuned["refined_ic"] == refined["refined_ic"]
    assert tuned["decision_point_count"] == refined["decision_point_count"]
    assert tuned["refine_evaluations"] == refined["evaluations_used"]
    assert tuned["generations"] == searched["generations"]
    return out


@pytest.mark.parametrize("seed", range(4))
def test_tune_is_search_then_refine_on_the_mock(tmp_path, m2_file, capsys, seed):
    registry_file = tmp_path / "reg.txt"
    registry_file.write_text("a=function\nb=function\n")
    common = ["--program", m2_file, "--registry", str(registry_file)]
    _assert_tune_is_the_hand_chain(common, [], seed, capsys)


@pytest.mark.parametrize("seed", range(4))
def test_tune_is_search_then_refine_on_opt(capsys, seed):
    if shutil.which(resolve_opt_path()) is None:
        pytest.skip("no opt found")
    common = ["--program", LOOPS_LL, "--evaluator", "opt"]
    search_only = ["--population", "6", "--generations", "2", "--max-len", "6"]
    out = _assert_tune_is_the_hand_chain(common, search_only, seed, capsys)
    argv = ["tune"] + search_only + common + ["--seed", str(seed), "--json"]
    assert cli_main(argv + ["--parallel", "2"]) == 0
    assert capsys.readouterr().out == out


def _options(command: str) -> set:
    from passforest.cli import build_parser

    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        option for action in sub.choices[command]._actions
        for option in action.option_strings
    }


def test_tune_takes_only_flags_search_or_refine_have():
    assert _options("tune") <= _options("search") | _options("refine")


@pytest.mark.parametrize(
    "argv",
    [["rq3"], ["rq4"], ["structure", "--population", "4"], ["structure", "--seed", "1"]],
)
def test_experiment_runs_only_structure(m1_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["experiment"] + argv + ["--program", m1_file])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_tune_log_is_its_search_log(tmp_path, m1_file, capsys):
    log = tmp_path / "tune.jsonl"
    argv = ["tune", "--program", m1_file, "--log", str(log), "--json",
            "--population", "4", "--generations", "2"]
    assert cli_main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    lines = log.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == payload["generations"]
    assert len(lines) == 3


def test_rq4_reports_a_failed_winner_as_failed(tmp_path, capsys):
    # Every evaluation fails, so the search's winner has no count; tune
    # must not turn its failure fitness into one.
    fake = helpers.write_script(tmp_path / "opt", helpers.FAIL_EVERY_PIPELINE)
    argv = [
        "tune",
        "--program", LOOPS_LL,
        "--evaluator", "opt",
        "--opt-path", fake,
        "--population", "3",
        "--generations", "1",
        "--max-len", "3",
    ]
    assert cli_main(argv + ["--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["search_ic"] is data["refined_ic"] is data["gain_pct"] is None
    assert cli_main(argv) == 3
    out = capsys.readouterr().out
    assert "(ic failed)" in out.splitlines()[0]
    assert "(ic failed)" in out.splitlines()[1]
    assert "gain:    failed" in out


@pytest.mark.parametrize(
    "command, reported",
    [
        (["refine", "--pipeline", "module(function(gvn,adce))"],
         lambda data: data["refined_ic"]),
        (["search"], lambda data: data["best_fitness"]),
        (["tune"], lambda data: data["search_ic"]),
    ],
    ids=["refine", "search", "tune"],
)
def test_failed_reported_pipeline_exits_3(tmp_path, capsys, command, reported):
    # An opt that fails every pipeline leaves the reported pipeline
    # without a count; the payload is still printed, with exit code 3.
    fake = helpers.write_script(tmp_path / "opt", helpers.FAIL_EVERY_PIPELINE)
    argv = command + [
        "--program", LOOPS_LL, "--evaluator", "opt", "--opt-path", fake, "--json",
    ]
    if command[0] != "refine":
        argv += ["--population", "3", "--generations", "1", "--max-len", "3"]
    assert cli_main(argv) == 3
    failed = failed_fitness(LOOPS_LL_IC) if command[0] == "search" else None
    assert reported(json.loads(capsys.readouterr().out)) == failed


def test_experiments_cli_missing_program_exit_2(tmp_path, capsys):
    code = cli_main(
        [
            "experiment",
            "structure",
            "--program", str(tmp_path / "missing.json"),
            "--passes", "gvn,adce",
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_structure_study_on_opt_matches_direct_evaluation(capsys):
    if shutil.which(resolve_opt_path()) is None:
        pytest.skip("no opt found")
    argv = [
        "experiment", "structure", "--program", LOOPS_LL, "--evaluator", "opt",
        "--passes", "globalopt,inline,gvn,loop-deletion;gvn,adce", "--json",
    ]
    outputs = []
    for parallel in ("1", "2"):
        assert cli_main(argv + ["--parallel", parallel]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert [len(case["variants"]) for case in payload["cases"]] == [5, 3]
    backend, registry = OptBackend(), default_registry()
    for case in payload["cases"]:
        for row in case["variants"]:
            expected = backend.evaluate(
                LOOPS_LL, parse_pipeline(row["pipeline"], registry)
            )
            assert expected.ok
            assert row["instruction_count"] == expected.instruction_count
