import json

import pytest

from passforest import (
    MockFunction,
    MockProgram,
    SearchConfig,
    load_registry,
    mine_synergies,
    save_mock_program,
)
from passforest.cli import main as cli_main
from passforest.experiments import (
    run_microstructure_study,
    run_rq3_ablation,
    run_rq4_ablation,
    write_report,
)
from passforest.synergy import SynergyGraph


@pytest.fixture
def ab_infos(ab_registry):
    return ab_registry.lookup("a"), ab_registry.lookup("b")


def test_microstructure_agreement_without_coupling(m1, ab_infos, backend):
    result = run_microstructure_study([ab_infos], [m1], backend)
    case = result["cases"][0]
    assert case["counts"] == {"micro": 82, "meso": 82, "macro": 82}
    assert case["agree"] is True
    assert result["agreement_fraction"] == 1.0


def test_experiments_cli_microstructure_without_pairs_exit_1(tmp_path, m1, capsys):
    program_file = tmp_path / "m1.json"
    save_mock_program(m1, program_file)
    code = cli_main(
        [
            "experiment",
            "microstructure",
            "--program", str(program_file),
            "--out-dir", str(tmp_path / "run"),
        ]
    )
    assert code == 1
    assert "no (pair, program) cases" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_microstructure_flags_coupling_disagreement(m2, ab_infos, backend):
    result = run_microstructure_study([ab_infos], [m2], backend)
    case = result["cases"][0]
    assert case["counts"]["micro"] == 80
    assert case["counts"]["meso"] == 73
    assert case["counts"]["macro"] == 73
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
    pair = (registry.lookup("m"), registry.lookup("f"))
    result = run_microstructure_study([pair], [program], backend)
    counts = result["cases"][0]["counts"]
    assert counts["nested"] == counts["phased"]


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


def test_write_report_files(tmp_path, m1, ab_infos, backend):
    result = run_microstructure_study([ab_infos], [m1], backend)
    write_report(result, tmp_path / "out")
    data = json.loads((tmp_path / "out" / "results.json").read_text())
    assert data["agreement_fraction"] == 1.0
    assert (tmp_path / "out" / "table.txt").read_text().startswith("microstructure")


def test_experiments_cli_rq4(tmp_path, m2, capsys):
    registry_file = tmp_path / "reg.txt"
    registry_file.write_text("a=function\nb=function\n")
    program_file = tmp_path / "m2.json"
    save_mock_program(m2, program_file)
    out_dir = tmp_path / "run"
    code = cli_main(
        [
            "experiment",
            "rq4",
            "--program", str(program_file),
            "--registry", str(registry_file),
            "--out-dir", str(out_dir),
            "--seed", "3",
        ]
    )
    assert code == 0
    data = json.loads((out_dir / "results.json").read_text())
    assert data["study"] == "rq4_refinement"


def test_experiments_cli_missing_program_exit_2(tmp_path, capsys):
    code = cli_main(
        [
            "experiment",
            "microstructure",
            "--program", str(tmp_path / "missing.json"),
            "--out-dir", str(tmp_path / "run"),
        ]
    )
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
