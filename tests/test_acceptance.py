"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Criterion 9 needs a real LLVM opt plus a benchmark IR file and is
skipped unless PASSFOREST_OPT/opt and PASSFOREST_DIJKSTRA_IR are usable;
when it runs, divergence from the published counts warns, never fails.
"""

import json
import os
import random
import shutil
import time

import pytest

import helpers
from passforest import (
    MockBackend,
    MockFunction,
    MockProgram,
    PartitionChromosome,
    PassLevel,
    ProgramResult,
    aggregate,
    crossover,
    decision_points,
    decode,
    default_registry,
    is_valid,
    leaf_sequence,
    load_registry,
    mine_synergies,
    mutate,
    overoz,
    parse_pipeline,
    print_pipeline,
    random_forest,
    refine,
    schedule_of,
    validate,
    weighted_walk_init,
)
from passforest.cli import main as cli_main
from passforest.forest import Manager, PipelineForest
from passforest.refine import _all_chromosomes
from passforest.search import SearchConfig
from passforest.skeletons import SKELETON_VARIANT_NAMES
from passforest.synergy import SynergyGraph, mine_program_pairs
from test_synergy import brute_force_edges


def _report(number: int, description: str):
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_grammar_soundness():
    registry = default_registry()
    rng = random.Random(2024)
    started = time.monotonic()
    for _ in range(1000):
        forest = random_forest(rng, registry, max_leaves=10)
        assert not validate(forest, registry)
        assert parse_pipeline(print_pipeline(forest), registry) == forest
    for _ in range(1000):
        forest = random_forest(rng, registry, max_leaves=8)
        mutant, rule = helpers.make_single_rule_mutant(forest, registry, rng)
        violations = validate(mutant)
        assert violations
        assert any(v.rule == rule for v in violations), (rule, violations)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"1000 round-trips + 1000 rule mutants in {elapsed:.1f}s")


def test_criterion_2_validity_by_construction():
    registry = default_registry()
    rng = random.Random(99)
    config = SearchConfig(max_sequence_length=12, seed=0)
    graph = SynergyGraph.empty()
    started = time.monotonic()
    produced = 0
    pool = [
        weighted_walk_init(graph, registry, config, rng).forest
        for _ in range(200)
    ]
    for forest in pool:
        assert is_valid(forest, registry)
        produced += 1
    from passforest import Individual

    individuals = [Individual(f) for f in pool]
    while produced < 10_000:
        a = rng.choice(individuals)
        b = rng.choice(individuals)
        swapped = crossover(a, b, rng, max_sequence_length=12)
        if swapped is not None:
            for child in swapped:
                assert is_valid(child.forest, registry)
                produced += 1
        mutated = mutate(rng.choice(individuals), graph, registry, rng)
        assert is_valid(mutated.forest, registry)
        produced += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(2, f"{produced} init/crossover/mutate products all valid in {elapsed:.1f}s")


def test_criterion_3_mining_oracle_equivalence():
    rng = random.Random(333)
    backend = MockBackend()
    for case in range(20):
        registry = helpers.synthetic_registry(rng.randint(2, 6), rng)
        program = helpers.random_mock_program(registry, rng)
        mined = mine_program_pairs(program, registry, backend)
        oracle = brute_force_edges(program, registry, backend)
        assert set(mined) == oracle, f"case {case}"
        graph = mine_synergies([program], registry, backend)
        assert set(graph.start_weights) == {p1 for p1, _ in oracle}
        outgoing = {}
        for edge in graph.edges:
            outgoing[edge.src] = outgoing.get(edge.src, 0.0) + edge.weight
        for total in outgoing.values():
            assert abs(total - 1.0) <= 1e-9
        if graph.start_weights:
            assert abs(sum(graph.start_weights.values()) - 1.0) <= 1e-9
    _report(3, "20 mock programs: mined edges/start support match brute force")


def test_criterion_4_refinement_exactness():
    rng = random.Random(444)
    backend = MockBackend()
    for case in range(20):
        registry = helpers.synthetic_registry(rng.randint(3, 6), rng)
        program = helpers.random_mock_program(
            registry, rng, n_functions=rng.randint(2, 4), coupling_density=0.5
        )
        while True:
            seq = helpers.random_typed_sequence(registry, rng, rng.randint(2, 11))
            problem = decision_points(seq)
            if 1 <= len(problem.decision_points) <= 10:
                break
        bits = tuple(rng.randint(0, 1) for _ in problem.decision_points)
        seed = decode(problem, PartitionChromosome(bits))
        seed_count = backend.evaluate(program, seed).instruction_count
        result = refine(seed, program, backend)
        exhaustive_best = min(
            backend.evaluate(
                program, decode(problem, chromosome)
            ).instruction_count
            for chromosome in _all_chromosomes(len(problem.decision_points))
        )
        assert result.refined_ic == exhaustive_best, f"case {case}"
        assert result.refined_ic <= seed_count, f"case {case}: regression"
    _report(4, "20 planted-coupling programs: refine == exhaustive, no regression")


def test_criterion_5_heterogeneous_boundary_equivalence():
    rng = random.Random(555)
    backend = MockBackend()
    checked = 0
    while checked < 100:
        registry = helpers.synthetic_registry(rng.randint(4, 6), rng)
        program = helpers.random_mock_program(
            registry, rng, n_functions=rng.randint(2, 4)
        )
        seq = helpers.random_typed_sequence(registry, rng, rng.randint(2, 8))
        problem = decision_points(seq)
        bits = tuple(rng.randint(0, 1) for _ in problem.decision_points)
        base = decode(problem, PartitionChromosome(bits))
        reference = backend.evaluate(program, base).instruction_count
        # the same partition with every block in its own module tree, and
        # with a random tree assignment: cut placement must not matter
        for variant in (_all_macro(base), _random_tree_split(base, rng)):
            assert is_valid(variant, registry)
            assert leaf_sequence(variant) == leaf_sequence(base)
            count = backend.evaluate(program, variant).instruction_count
            assert count == reference
        checked += 1
    _report(5, "100 random cases: splits at heterogeneous boundaries are neutral")


def _blocks_of(forest):
    # top-level blocks: each manager child alone, runs of module leaves merged
    blocks = []
    for tree in forest.trees:
        run = []
        for child in tree.children:
            if isinstance(child, Manager):
                if run:
                    blocks.append(tuple(run))
                    run = []
                blocks.append((child,))
            else:
                run.append(child)
        if run:
            blocks.append(tuple(run))
    return blocks


def _all_macro(forest):
    trees = [
        Manager(PassLevel.MODULE, block) for block in _blocks_of(forest)
    ]
    return PipelineForest(tuple(trees))


def _random_tree_split(forest, rng):
    trees = [[]]
    for block in _blocks_of(forest):
        if trees[-1] and rng.random() < 0.5:
            trees.append([])
        trees[-1].extend(block)
    return PipelineForest(
        tuple(Manager(PassLevel.MODULE, tuple(children)) for children in trees)
    )


def test_criterion_6_execution_interleavings():
    registry = load_registry("a=function\nb=function\n")
    joined = parse_pipeline("module(function(a,b))", registry)
    split = parse_pipeline("module(function(a),function(b))", registry)
    for k in (1, 2, 5):
        program = MockProgram(
            functions=tuple(MockFunction(f"f{i}", 10) for i in range(k))
        )
        names = [f.name for f in program.functions]
        expected_joined = [
            (p, f) for f in names for p in ("a", "b")
        ]
        expected_split = [("a", f) for f in names] + [("b", f) for f in names]
        assert schedule_of(joined, program) == expected_joined, f"k={k}"
        assert schedule_of(split, program) == expected_split, f"k={k}"
    _report(6, "canonical interleavings exact for k in {1, 2, 5}")


def test_criterion_7_metric_arithmetic():
    assert overoz(450, 372) == pytest.approx(17.333333333333332, abs=1e-9)
    rows = [11.84, 6.86, 8.02, 7.99, 21.03, 8.05, 31.58]
    results = [
        ProgramResult(f"p{i}", 1_000_000, round(1_000_000 * (1 - pct / 100)), f"d{i}")
        for i, pct in enumerate(rows)
    ]
    report = aggregate(results)
    assert report["mean_of_group_means"] == pytest.approx(13.62, abs=0.01)
    _report(7, "overoz(450,372)=17.333..., mean of dataset means = 13.62")


def test_criterion_8_command_determinism(tmp_path, capsys, m1):
    from passforest import save_mock_program

    registry_file = tmp_path / "reg.txt"
    registry_file.write_text("a=function\nb=function\n")
    program_file = tmp_path / "m1.json"
    save_mock_program(m1, program_file)
    dataset = tmp_path / "ds"
    dataset.mkdir()
    save_mock_program(m1, dataset / "m1.json")
    graph_file = tmp_path / "graph.json"
    assert (
        cli_main(
            [
                "mine",
                "--dataset", str(dataset),
                "--out", str(graph_file),
                "--registry", str(registry_file),
            ]
        )
        == 0
    )
    capsys.readouterr()

    search_args = [
        "search",
        "--program", str(program_file),
        "--graph", str(graph_file),
        "--registry", str(registry_file),
        "--population", "12",
        "--generations", "5",
        "--seed", "17",
        "--json",
    ]
    refine_args = [
        "refine",
        "--program", str(program_file),
        "--pipeline", "module(function(a,b,a))",
        "--registry", str(registry_file),
        "--seed", "17",
        "--json",
    ]
    for args in (search_args, refine_args):
        outputs = []
        for extra in ([], [], ["--parallel", "4"]):
            assert cli_main(args + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2], args[0]
        json.loads(outputs[0])  # stays machine-readable
    _report(8, "search and refine byte-identical across 3 runs incl --parallel 4")


DIJKSTRA_EXPECTED = {1: 372, 2: 372, 3: 372, 4: 481, 5: 481}


def test_criterion_9_optional_opt_integration(capsys):
    opt = os.environ.get("PASSFOREST_OPT") or shutil.which("opt")
    ir = os.environ.get("PASSFOREST_DIJKSTRA_IR")
    if not opt or not ir or not os.path.exists(ir):
        pytest.skip(
            "optional: set PASSFOREST_OPT and PASSFOREST_DIJKSTRA_IR to run"
        )
    code = cli_main(
        [
            "experiment",
            "structure",
            "--program", ir,
            "--passes", "globalopt,inline,gvn,loop-deletion",
            "--evaluator", "opt",
            "--opt-path", opt,
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    counts = {
        row["name"]: row["instruction_count"]
        for row in payload["cases"][0]["variants"]
    }
    observed = {
        variant: counts[name] for variant, name in SKELETON_VARIANT_NAMES.items()
    }
    if observed != DIJKSTRA_EXPECTED:
        print(
            "ACCEPTANCE 9: WARN - observed counts "
            f"{observed} differ from published {DIJKSTRA_EXPECTED} "
            "(count extraction method is environment-dependent)"
        )
    else:
        _report(9, "dijkstra skeleton counts match the published row")


def test_criterion_10_corpus_scale_results_not_asserted():
    # Corpus-wide numbers (13.62% overall, ablation means, npb gain) need
    # the full training corpus and compute; criteria 3-6 stand in for them
    # at desk scale. Reference values are display-only in experiment tables.
    from passforest.experiments import CORPUS_REFERENCE

    assert set(CORPUS_REFERENCE) >= {
        "main_ga_overoz_pct",
        "full_framework_overoz_pct",
    }
    _report(10, "corpus-scale figures are reference-only (criteria 3-6 gate instead)")
