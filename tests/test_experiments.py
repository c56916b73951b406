import json
import shutil
from pathlib import Path

import pytest

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
    save_mock_program,
)
from passforest.cli import main as cli_main
from passforest.evaluation import count_ir_instructions, resolve_opt_path
from passforest.experiments import (
    run_rq3_ablation,
    run_rq4_ablation,
    run_structure_study,
)
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
    graph = mine_synergies([m1], ab_registry, backend)
    config = SearchConfig(
        population_size=6, generations=4, max_sequence_length=3, seed=5
    )
    first = run_rq3_ablation(m1, graph, ab_registry, backend, config)
    second = run_rq3_ablation(m1, graph, ab_registry, backend, config)
    assert first["guided"] == second["guided"]
    assert first["unguided"] == second["unguided"]


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
        result = run_rq3_ablation(program, graph, registry, backend, config)
        wins += (
            result["guided"]["best_fitness"] >= result["unguided"]["best_fitness"]
        )
    assert wins >= 40


def test_rq3_zero_effect_program(ab_registry, backend):
    program = MockProgram(functions=(MockFunction("f1", 30),), pass_effects={})
    config = SearchConfig(
        population_size=4, generations=2, max_sequence_length=2, seed=1
    )
    result = run_rq3_ablation(
        program, SynergyGraph.empty(), ab_registry, backend, config
    )
    assert result["guided"]["best_fitness"] == 0
    assert result["unguided"]["best_fitness"] == 0


def test_rq4_positive_gain_on_coupling(m2, ab_registry, backend):
    graph = mine_synergies([m2], ab_registry, backend)
    config = SearchConfig(
        population_size=8, generations=6, max_sequence_length=4, seed=3
    )
    result = run_rq4_ablation(m2, graph, ab_registry, backend, config)
    assert result["refined_ic"] <= result["main_ga_ic"]
    assert result["gain_pct"] > 0


def test_rq4_zero_gain_on_structure_insensitive_mock(m1, ab_registry, backend):
    graph = mine_synergies([m1], ab_registry, backend)
    config = SearchConfig(
        population_size=8, generations=6, max_sequence_length=2, seed=3
    )
    result = run_rq4_ablation(m1, graph, ab_registry, backend, config)
    assert result["gain_pct"] == 0.0


def test_rq4_zero_gain_without_decision_points(backend):
    registry = load_registry("m=module\n")
    program = MockProgram(
        functions=(MockFunction("f1", 30),), pass_effects={"m": 5}
    )
    config = SearchConfig(
        population_size=4, generations=2, max_sequence_length=1, seed=1
    )
    result = run_rq4_ablation(
        program, SynergyGraph.empty(), registry, backend, config
    )
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


def test_experiments_cli_rq4(tmp_path, m2, capsys):
    registry_file = tmp_path / "reg.txt"
    registry_file.write_text("a=function\nb=function\n")
    program_file = tmp_path / "m2.json"
    save_mock_program(m2, program_file)
    code = cli_main(
        [
            "experiment",
            "rq4",
            "--program", str(program_file),
            "--registry", str(registry_file),
            "--seed", "3",
            "--json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["study"] == "rq4_refinement"


def test_rq4_reports_a_failed_winner_as_failed(tmp_path, capsys):
    # Every evaluation fails, so the search's winner has no count; the
    # study must not turn its failure fitness into one.
    fake = helpers.write_script(tmp_path / "opt", helpers.FAIL_EVERY_PIPELINE)
    argv = [
        "experiment",
        "rq4",
        "--program", LOOPS_LL,
        "--evaluator", "opt",
        "--opt-path", fake,
        "--population", "3",
        "--generations", "1",
        "--max-len", "3",
    ]
    assert cli_main(argv + ["--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["main_ga_ic"] is data["refined_ic"] is data["gain_pct"] is None
    assert cli_main(argv) == 3
    out = capsys.readouterr().out
    assert "main GA ic:  failed" in out
    assert "refined ic:  failed" in out
    assert "gain:        failed" in out


@pytest.mark.parametrize(
    "command, reported",
    [
        (["refine", "--pipeline", "module(function(gvn,adce))"],
         lambda data: data["refined_ic"]),
        (["search"], lambda data: data["best_fitness"]),
        (["experiment", "rq3"], lambda data: data["unguided"]["best_fitness"]),
    ],
    ids=["refine", "search", "rq3"],
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
    failed = None if command[0] == "refine" else failed_fitness(LOOPS_LL_IC)
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
