import random

import pytest

import helpers
from helpers import is_valid
from passforest import (
    DrawTables,
    EvaluationResult,
    MockBackend,
    RefineConfig,
    SearchConfig,
    crossover,
    leaf_sequence,
    load_registry,
    mine_synergies,
    mutate,
    parse_pipeline,
    print_pipeline,
    refine,
    run_search,
    weighted_walk_init,
)
import passforest.search as search_module
from passforest.forest import leaf_count
from passforest.synergy import SynergyEdge, SynergyGraph


@pytest.fixture
def ab_graph(m1, ab_registry, backend):
    return mine_synergies([m1], ab_registry, backend)


# ---------------------------------------------------------------------------
# Weighted random walk initialization.
# ---------------------------------------------------------------------------

def test_walk_intra_degenerate(ab_graph, ab_registry):
    forest = weighted_walk_init(DrawTables(ab_graph, ab_registry), 2, random.Random(1))
    assert print_pipeline(forest) == "module(function(a,b))"


def test_walk_inter_degenerate():
    registry = load_registry("m=module\nf=function\n")
    graph = SynergyGraph([SynergyEdge("m", "f", "inter", 1.0)], {"m": 1.0})
    forest = weighted_walk_init(DrawTables(graph, registry), 2, random.Random(1))
    assert print_pipeline(forest) == "module(m,function(f))"


def test_walk_upward_edge_starts_new_tree():
    registry = load_registry("m=module\nf=function\n")
    graph = SynergyGraph([SynergyEdge("f", "m", "inter", 1.0)], {"f": 1.0})
    forest = weighted_walk_init(DrawTables(graph, registry), 2, random.Random(1))
    assert print_pipeline(forest) == "module(function(f)),module(m)"


def test_walk_deeper_chain_from_module_to_loop():
    registry = load_registry("m=module\nl=loop\n")
    graph = SynergyGraph([SynergyEdge("m", "l", "inter", 1.0)], {"m": 1.0})
    forest = weighted_walk_init(DrawTables(graph, registry), 2, random.Random(1))
    assert print_pipeline(forest) == "module(m,function(loop(l)))"


def test_walk_halts_without_successors(ab_graph, ab_registry):
    forest = weighted_walk_init(DrawTables(ab_graph, ab_registry), 10, random.Random(1))
    # a -> b, then b has no outgoing edges
    assert [name for name, _ in leaf_sequence(forest)] == ["a", "b"]


def test_walk_respects_max_length(ab_registry):
    graph = SynergyGraph(
        [SynergyEdge("a", "a", "intra", 1.0)], {"a": 1.0}
    )
    forest = weighted_walk_init(DrawTables(graph, ab_registry), 5, random.Random(1))
    assert leaf_count(forest) == 5


def test_walk_empty_graph_fallback(registry):
    tables = DrawTables(SynergyGraph.empty(), registry)
    rng = random.Random(3)
    for _ in range(50):
        forest = weighted_walk_init(tables, 6, rng)
        assert is_valid(forest, registry)
        assert 1 <= leaf_count(forest) <= 6


def test_walk_start_distribution():
    registry = load_registry("a=function\nb=function\n")
    tables = DrawTables(SynergyGraph([], {"a": 0.7, "b": 0.3}), registry)
    rng = random.Random(0)
    draws = {"a": 0, "b": 0}
    for _ in range(10_000):
        forest = weighted_walk_init(tables, 1, rng)
        draws[leaf_sequence(forest)[0][0]] += 1
    assert abs(draws["a"] / 10_000 - 0.7) <= 0.02
    assert abs(draws["b"] / 10_000 - 0.3) <= 0.02


# ---------------------------------------------------------------------------
# Crossover.
# ---------------------------------------------------------------------------

class ScriptedRng:
    """Stand-in rng whose choice() follows a script of indices."""

    def __init__(self, picks):
        self._picks = list(picks)

    def choice(self, seq):
        return seq[self._picks.pop(0)]


def test_crossover_identical_subtrees_identity(registry):
    a = parse_pipeline("module(globalopt)", registry)
    b = parse_pipeline("module(globalopt)", registry)
    result = crossover(a, b, ScriptedRng([0, 0]))
    assert result == (a, b)


def test_crossover_swaps_function_managers(ab_registry):
    a = parse_pipeline("module(function(a))", ab_registry)
    b = parse_pipeline("module(function(b))", ab_registry)
    # manager paths per parent: [(0,) module, (0,0) function]; pick index 1
    result = crossover(a, b, ScriptedRng([1, 1]))
    assert result is not None
    child_a, child_b = result
    assert print_pipeline(child_a) == "module(function(b))"
    assert print_pipeline(child_b) == "module(function(a))"


def test_crossover_invalid_swap_discarded(registry):
    a = parse_pipeline("module(function(loop(loop(licm))))", registry)
    b = parse_pipeline("module(function(gvn))", registry)
    # a: managers [(0,), (0,0), (0,0,0), (0,0,0,0)] -> pick inner loop (index 3)
    # b: managers [(0,), (0,0)] -> pick the function manager (index 1)
    result = crossover(a, b, ScriptedRng([3, 1]))
    assert result is None


def test_search_trims_offspring_to_max_length(registry, monkeypatch):
    # Crossover may return offspring longer than the bound; run_search
    # trims each child before scoring it.
    longest = []

    def recording_crossover(forest_a, forest_b, rng):
        swapped = crossover(forest_a, forest_b, rng)
        if swapped is not None:
            longest.append(max(map(leaf_count, swapped)))
        return swapped

    evaluated = []

    class Recording(MockBackend):
        def evaluate(self, program, forest):
            evaluated.append(leaf_count(forest))
            return super().evaluate(program, forest)

    rng = random.Random(5)
    program = helpers.random_mock_program(registry, rng)
    config = SearchConfig(population_size=12, generations=6, max_sequence_length=4, seed=5)
    monkeypatch.setattr(search_module, "crossover", recording_crossover)
    run_search(program, SynergyGraph.empty(), registry, Recording(), config)
    assert max(longest) > 4
    assert 1 <= min(evaluated) and max(evaluated) <= 4


# ---------------------------------------------------------------------------
# Mutation.
# ---------------------------------------------------------------------------

def test_mutate_intra_partner_inserted_after_anchor(ab_registry):
    graph = SynergyGraph([SynergyEdge("a", "b", "intra", 1.0)], {"a": 1.0})
    tables = DrawTables(graph, ab_registry)
    forest = parse_pipeline("module(function(a))", ab_registry)
    for seed in range(10):
        mutated = mutate(forest, tables, random.Random(seed))
        assert print_pipeline(mutated) == "module(function(a,b))"


def test_mutate_inter_partner_opens_manager():
    registry = load_registry("globalopt=module\ngvn=function\n")
    graph = SynergyGraph(
        [SynergyEdge("globalopt", "gvn", "inter", 1.0)], {"globalopt": 1.0}
    )
    tables = DrawTables(graph, registry)
    forest = parse_pipeline("module(globalopt)", registry)
    for seed in range(10):
        mutated = mutate(forest, tables, random.Random(seed))
        assert print_pipeline(mutated) == "module(globalopt,function(gvn))"


def test_mutate_empty_graph_fallback(registry):
    tables = DrawTables(SynergyGraph.empty(), registry)
    forest = parse_pipeline("module(globalopt,function(gvn))", registry)
    rng = random.Random(9)
    for _ in range(100):
        assert is_valid(mutate(forest, tables, rng), registry)


def test_mutate_replacement_keeps_level(ab_registry):
    graph = SynergyGraph([SynergyEdge("a", "b", "intra", 1.0)], {"a": 1.0})
    tables = DrawTables(graph, ab_registry)
    forest = parse_pipeline("module(function(a,a))", ab_registry)
    rng = random.Random(2)
    seen = set()
    for _ in range(50):
        mutated = mutate(forest, tables, rng)
        assert is_valid(mutated, ab_registry)
        seen.add(print_pipeline(mutated))
    # both insertion and replacement outcomes appear
    assert "module(function(a,b))" in seen      # replaced the sibling
    assert "module(function(a,b,a))" in seen    # inserted after anchor


# ---------------------------------------------------------------------------
# run_search.
# ---------------------------------------------------------------------------

def test_search_finds_m1_optimum(m1, ab_registry, ab_graph, backend):
    config = SearchConfig(
        population_size=8, generations=10, max_sequence_length=2, seed=7
    )
    best, log = run_search(m1, ab_graph, ab_registry, backend, config)
    assert best.fitness == 18
    assert log[-1]["best_fitness"] == 18


def test_search_zero_generations(m1, ab_registry, ab_graph, backend):
    config = SearchConfig(
        population_size=6, generations=0, max_sequence_length=2, seed=5
    )
    best, log = run_search(m1, ab_graph, ab_registry, backend, config)
    assert len(log) == 1
    assert best.fitness is not None


class _FailingBackend(MockBackend):
    def evaluate(self, program, forest):
        return EvaluationResult(None, "failed", "boom")


def test_search_survives_all_failing_backend(m1, ab_registry, ab_graph):
    config = SearchConfig(
        population_size=6, generations=3, max_sequence_length=3, seed=5
    )
    best, log = run_search(m1, ab_graph, ab_registry, _FailingBackend(), config)
    assert best.fitness == -(100) - 1
    assert len(log) == 4


def test_search_is_deterministic(m1, ab_registry, ab_graph, backend):
    config = SearchConfig(
        population_size=10, generations=6, max_sequence_length=4, seed=123
    )
    runs = [
        run_search(m1, ab_graph, ab_registry, MockBackend(), config)
        for _ in range(2)
    ]
    assert print_pipeline(runs[0][0].forest) == print_pipeline(runs[1][0].forest)
    assert runs[0][1] == runs[1][1]


def test_search_parallel_matches_serial(m1, ab_registry, ab_graph):
    config = SearchConfig(
        population_size=10, generations=5, max_sequence_length=4, seed=321
    )
    serial = run_search(m1, ab_graph, ab_registry, MockBackend(), config)
    parallel = run_search(
        m1, ab_graph, ab_registry, MockBackend(), config, parallel=4
    )
    assert serial[1] == parallel[1]


def test_search_best_fitness_is_monotone(ab_registry, backend):
    rng = random.Random(17)
    registry = helpers.synthetic_registry(6, rng)
    program = helpers.random_mock_program(registry, rng)
    graph = mine_synergies([program], registry, backend)
    config = SearchConfig(
        population_size=12, generations=8, max_sequence_length=6, seed=17
    )
    _, log = run_search(program, graph, registry, backend, config)
    best_values = [record["best_fitness"] for record in log]
    assert best_values == sorted(best_values)


def test_operations_valid_by_construction(registry, backend):
    rng = random.Random(1234)
    tables = DrawTables(SynergyGraph.empty(), registry)
    population = [weighted_walk_init(tables, 10, rng) for _ in range(60)]
    checked = 0
    for forest in population:
        assert is_valid(forest, registry)
        checked += 1
    for _ in range(300):
        a, b = rng.choice(population), rng.choice(population)
        swapped = crossover(a, b, rng)
        if swapped is not None:
            for child in swapped:
                assert is_valid(child, registry)
                checked += 1
        mutated = mutate(rng.choice(population), tables, rng)
        assert is_valid(mutated, registry)
        checked += 1
    assert checked >= 300


def test_search_config_rejects_negative_generations():
    with pytest.raises(ValueError, match="generations"):
        SearchConfig(generations=-1)
    assert SearchConfig(generations=0).generations == 0


# ---------------------------------------------------------------------------
# Seeded stream: the exact outputs of one seeded search and refinement.
# ---------------------------------------------------------------------------

def test_seeded_search_and_refine_outputs_are_pinned(m2, backend):
    # Every level has a pass and the mined graph is empty, so the run
    # goes through random_forest, trim_to_length, every crossover case
    # and the random-pass mutation. Any change to how these consume the
    # seeded stream changes the strings below.
    registry = load_registry("m=module\nc=cgscc\na=function\nb=function\nl=loop\n")
    graph = mine_synergies([m2], registry, backend)
    config = SearchConfig(
        population_size=12, generations=8, max_sequence_length=6, seed=2024
    )
    best, log = run_search(m2, graph, registry, backend, config)
    assert print_pipeline(best.forest) == (
        "module(function(a,function(b),function(b),function(a,b,function(b))))"
    )
    assert [record["mean_fitness"] * 12 for record in log] == [
        140, 300, 470, 610, 620, 660, 630, 710, 650
    ]
    assert log[0]["best_pipeline_string"] == (
        "module(function(a,function(b),function(b),"
        "function(a,b,function(loop(loop(l))))))"
    )
    refined = (
        "module(function(a),function(b),function(b),"
        "function(a),function(b),function(b))"
    )
    exhaustive = refine(best.forest, m2, backend)
    assert (exhaustive.refined_pipeline, exhaustive.evaluations_used) == (refined, 33)
    genetic = refine(best.forest, m2, backend, RefineConfig(exhaustive_budget=1, seed=4))
    assert (genetic.refined_pipeline, genetic.evaluations_used) == (refined, 32)
