import logging
import os
import random
import subprocess
import sys
import textwrap

import pytest

import helpers
from helpers import save_mock_program
from passforest import (
    EvaluationResult,
    MockBackend,
    MockFunction,
    MockProgram,
    SchemaError,
    classify_synergy_type,
    leaf_sequence,
    load_graph,
    load_registry,
    mine_synergies,
    print_pipeline,
    representative_skeleton,
    save_graph,
)
from passforest import synergy
from passforest.synergy import (
    INTER_LEVEL,
    INTRA_LEVEL,
    SynergyEdge,
    SynergyGraph,
    graph_from_counts,
    mine_program_pairs,
)


def test_classify_examples(registry):
    f1 = registry.lookup("instcombine")
    f2 = registry.lookup("gvn")
    m = registry.lookup("globalopt")
    loop = registry.lookup("licm")
    strip = registry.lookup("strip")
    assert classify_synergy_type(f1, f2) == INTRA_LEVEL
    assert classify_synergy_type(m, loop) == INTER_LEVEL
    assert classify_synergy_type(m, strip) == INTRA_LEVEL


@pytest.mark.parametrize(
    "p1,p2,expected",
    [
        ("globalopt", "gvn", "module(globalopt,function(gvn))"),
        ("instcombine", "gvn", "module(function(instcombine,gvn))"),
        ("gvn", "globalopt", "module(function(gvn)),module(globalopt)"),
        ("inline", "gvn", "module(cgscc(inline,function(gvn)))"),
        ("gvn", "loop-deletion", "module(function(gvn,loop(loop-deletion)))"),
        ("globalopt", "strip", "module(globalopt,strip)"),
        ("licm", "loop-deletion", "module(function(loop(licm,loop-deletion)))"),
        ("globalopt", "licm", "module(globalopt,function(loop(licm)))"),
        ("loop-deletion", "inline",
         "module(function(loop(loop-deletion))),module(cgscc(inline))"),
    ],
)
def test_representative_skeletons(p1, p2, expected, registry):
    forest = representative_skeleton(registry.lookup(p1), registry.lookup(p2))
    assert print_pipeline(forest) == expected


def test_mine_on_m1(m1, ab_registry, backend):
    graph = mine_synergies([m1], ab_registry, backend)
    assert graph.edges == (SynergyEdge("a", "b", INTRA_LEVEL, 1.0),)
    assert graph.start_weights == {"a": 1.0}


def test_mine_two_copies_normalizes_identically(m1, ab_registry, backend):
    one = mine_synergies([m1], ab_registry, backend)
    two = mine_synergies([m1, m1], ab_registry, backend)
    assert one.edges == two.edges
    assert one.start_weights == two.start_weights


def test_mine_all_zero_effects(ab_registry, backend):
    program = MockProgram(functions=(MockFunction("f1", 50),), pass_effects={})
    graph = mine_synergies([program], ab_registry, backend)
    assert graph.edges == ()
    assert graph.start_weights == {}


def test_mining_is_asymmetric(m1, ab_registry, backend):
    graph = mine_synergies([m1], ab_registry, backend)
    pairs = {(e.src, e.dst) for e in graph.edges}
    assert ("a", "b") in pairs and ("b", "a") not in pairs


class FailsOnB(MockBackend):
    """Mock backend on which every pipeline that runs pass ``b`` fails."""

    def evaluate(self, program, forest):
        if any(name == "b" for name, _ in leaf_sequence(forest)):
            return EvaluationResult(None, "failed", "crash")
        return super().evaluate(program, forest)


def test_failed_baseline_excludes_pass(m1, ab_registry):
    graph = mine_synergies([m1], ab_registry, FailsOnB())
    assert all("b" not in (e.src, e.dst) for e in graph.edges)


def test_failed_single_pass_is_logged(m1, ab_registry, caplog):
    with caplog.at_level(logging.WARNING, logger="passforest.synergy"):
        mine_program_pairs(m1, ab_registry, FailsOnB())
    assert [r.getMessage() for r in caplog.records] == ["skipping pass b: crash"]


class FailsOnPairAB(MockBackend):
    """Mock backend on which only the pipeline running ``a`` then ``b`` fails."""

    def evaluate(self, program, forest):
        if [name for name, _ in leaf_sequence(forest)] == ["a", "b"]:
            return EvaluationResult(None, "failed", "crash")
        return super().evaluate(program, forest)


def test_failed_pair_is_logged(m1, ab_registry, caplog):
    with caplog.at_level(logging.WARNING, logger="passforest.synergy"):
        pairs = mine_program_pairs(m1, ab_registry, FailsOnPairAB())
    assert [r.getMessage() for r in caplog.records] == ["skipping pair (a, b): crash"]
    assert ("a", "b") not in pairs


def test_mining_writes_nothing_to_stderr_without_logging_configured():
    # The package logs to a NullHandler: Python's last-resort handler
    # must not print the failed pass to a library caller's stderr.
    code = textwrap.dedent("""\
        import sys
        sys.path.insert(0, sys.argv[1])
        from passforest import (EvaluationResult, MockBackend, MockFunction,
                                MockProgram, leaf_sequence, load_registry)
        from passforest.synergy import mine_program_pairs

        class FailsOnB(MockBackend):
            def evaluate(self, program, forest):
                if any(name == "b" for name, _ in leaf_sequence(forest)):
                    return EvaluationResult(None, "failed", "crash")
                return super().evaluate(program, forest)

        m1 = MockProgram(functions=(MockFunction("f1", 100),),
                         pass_effects={"a": 10, "b": 5}, pair_synergy={("a", "b"): 3})
        print(mine_program_pairs(m1, load_registry("a=function\\nb=function\\n"), FailsOnB()))
        """)
    src = os.path.dirname(os.path.dirname(synergy.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "set()\n", "")


def test_pair_count_budget(m1, ab_registry):
    class CountingBackend(MockBackend):
        def __init__(self):
            super().__init__()
            self.evaluations = 0
            self.original_counts = 0

        def evaluate(self, program, forest):
            self.evaluations += 1
            return super().evaluate(program, forest)

        def original_count(self, program):
            self.original_counts += 1
            return super().original_count(program)

    backend = CountingBackend()
    mine_synergies([m1], ab_registry, backend)
    n = len(ab_registry.concrete_passes())
    assert backend.evaluations == n + n * n
    assert backend.original_counts == 1


# ---------------------------------------------------------------------------
# Brute-force oracle equivalence.
# ---------------------------------------------------------------------------

def brute_force_edges(program, registry, backend):
    """Independent pairwise oracle: enumerate, apply the strict test."""
    ic_orig = backend.original_count(program)
    passes = registry.concrete_passes()
    perf = {}
    for p in passes:
        from passforest import PipelineForest, minimal_wrap

        res = backend.evaluate(
            program, PipelineForest((minimal_wrap(p.name, p.level),))
        )
        perf[p.name] = ic_orig - res.instruction_count if res.ok else None
    edges = set()
    for p1 in passes:
        for p2 in passes:
            if perf[p1.name] is None or perf[p2.name] is None:
                continue
            res = backend.evaluate(program, representative_skeleton(p1, p2))
            if not res.ok:
                continue
            if ic_orig - res.instruction_count > perf[p1.name] + perf[p2.name]:
                edges.add((p1.name, p2.name))
    return edges


def test_mining_matches_brute_force_oracle(backend):
    rng = random.Random(11)
    for _ in range(6):
        registry = helpers.synthetic_registry(rng.randint(2, 6), rng)
        program = helpers.random_mock_program(registry, rng)
        mined = mine_program_pairs(program, registry, backend)
        assert set(mined) == brute_force_edges(program, registry, backend)


def test_parallel_mining_matches_serial(backend):
    rng = random.Random(3)
    registry = helpers.synthetic_registry(5, rng)
    program = helpers.random_mock_program(registry, rng)
    serial = mine_synergies([program], registry, backend)
    parallel = mine_synergies([program], registry, backend, parallel=4)
    assert serial == parallel


# ---------------------------------------------------------------------------
# Normalization and serialization.
# ---------------------------------------------------------------------------

def test_graph_normalization_invariants(backend):
    rng = random.Random(5)
    registry = helpers.synthetic_registry(6, rng)
    programs = [helpers.random_mock_program(registry, rng) for _ in range(3)]
    graph = mine_synergies(programs, registry, backend)
    outgoing = {}
    for edge in graph.edges:
        outgoing.setdefault(edge.src, 0.0)
        outgoing[edge.src] += edge.weight
    for total in outgoing.values():
        assert abs(total - 1.0) <= 1e-9
    if graph.start_weights:
        assert abs(sum(graph.start_weights.values()) - 1.0) <= 1e-9


def test_graph_round_trip(m1, ab_registry, backend, tmp_path):
    graph = mine_synergies([m1], ab_registry, backend)
    path = tmp_path / "graph.json"
    save_graph(graph, path)
    assert load_graph(path) == graph


def test_empty_graph_round_trip(tmp_path):
    path = tmp_path / "empty.json"
    save_graph(SynergyGraph.empty(), path)
    assert load_graph(path) == SynergyGraph.empty()


def test_load_rejects_unnormalized_weights(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        """
        {"nodes": ["a", "b"],
         "edges": [{"from": "a", "to": "b", "type": "intra", "weight": 0.9}],
         "start_weights": {"a": 1.0},
         "meta": {}}
        """
    )
    with pytest.raises(SchemaError):
        load_graph(path)


def test_load_rejects_bad_start_weights(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        """
        {"nodes": ["a"], "edges": [], "start_weights": {"a": 0.5}, "meta": {}}
        """
    )
    with pytest.raises(SchemaError):
        load_graph(path)


@pytest.mark.parametrize(
    "weights",
    [
        ('"nan"', "1.0"), ("NaN", "1.0"), ("1.5", "-0.5"), ("1.0", "Infinity"),
        ('"1"', "0"), ("true", "0"),
    ],
    ids=["nan-string", "nan-literal", "negative", "infinity", "string", "bool"],
)
def test_load_rejects_weights_not_finite_or_negative(tmp_path, weights):
    ab, ac = weights
    path = tmp_path / "bad.json"
    path.write_text(
        '{"nodes": ["a", "b", "c"], "edges": ['
        f'{{"from": "a", "to": "b", "type": "intra", "weight": {ab}}}, '
        f'{{"from": "a", "to": "c", "type": "intra", "weight": {ac}}}], '
        '"start_weights": {"a": 1.0}, "meta": {}}'
    )
    with pytest.raises(SchemaError, match="finite"):
        load_graph(path)


def test_load_rejects_unknown_edge_type(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        """
        {"nodes": ["a", "b"],
         "edges": [{"from": "a", "to": "b", "type": "diagonal", "weight": 1.0}],
         "start_weights": {"a": 1.0},
         "meta": {}}
        """
    )
    with pytest.raises(SchemaError):
        load_graph(path)


def test_graph_from_counts_weights():
    registry = load_registry("a=function\nb=function\nc=module\n")
    graph = graph_from_counts(
        {("a", "b"): 3, ("a", "c"): 1, ("c", "a"): 2}, registry
    )
    weights = {(e.src, e.dst): e.weight for e in graph.edges}
    assert weights[("a", "b")] == 0.75
    assert weights[("a", "c")] == 0.25
    assert weights[("c", "a")] == 1.0
    assert graph.start_weights == {"a": 4 / 6, "c": 2 / 6}
    types = {(e.src, e.dst): e.edge_type for e in graph.edges}
    assert types[("a", "b")] == INTRA_LEVEL
    assert types[("a", "c")] == INTER_LEVEL


# ---------------------------------------------------------------------------
# Checkpointing.
# ---------------------------------------------------------------------------

def test_checkpoint_resume_matches_uninterrupted(ab_registry, backend, tmp_path, m1, m2):
    dataset_a = tmp_path / "a.json"
    dataset_b = tmp_path / "b.json"
    save_mock_program(m1, dataset_a)
    save_mock_program(m2, dataset_b)
    programs = [str(dataset_a), str(dataset_b)]

    uninterrupted = mine_synergies(programs, ab_registry, backend)
    checkpoint = tmp_path / "mine.ckpt"
    mine_synergies(programs[:1], ab_registry, backend, checkpoint_path=checkpoint)
    resumed = mine_synergies(
        programs, ab_registry, backend, checkpoint_path=checkpoint
    )
    assert resumed.edges == uninterrupted.edges
    assert resumed.start_weights == uninterrupted.start_weights


def test_program_listed_twice_counts_once(backend, tmp_path):
    rng = random.Random(0)
    registry = helpers.synthetic_registry(3, rng)
    paths = [str(tmp_path / "p1.json"), str(tmp_path / "p2.json")]
    programs = [helpers.random_mock_program(registry, rng) for _ in paths]
    for program, path in zip(programs, paths):
        save_mock_program(program, path)
    once = mine_synergies(paths, registry, backend)
    twice = mine_synergies(paths + paths[:1], registry, backend)
    assert (twice.edges, twice.start_weights) == (once.edges, once.start_weights)
    # in-memory programs have no shared id, so a repeat is a second program
    doubled = mine_synergies(programs + programs[:1], registry, backend)
    assert doubled.start_weights != once.start_weights


def test_checkpoint_never_serves_another_in_memory_program(ab_registry, backend, tmp_path, m1, m2):
    checkpoint = tmp_path / "mine.ckpt"
    fresh = mine_synergies([m2], ab_registry, backend)
    assert fresh.edges == ()
    mine_synergies([m1], ab_registry, backend, checkpoint_path=checkpoint)
    resumed = mine_synergies([m2], ab_registry, backend, checkpoint_path=checkpoint)
    assert (resumed.edges, resumed.start_weights) == (fresh.edges, fresh.start_weights)
    # an equal program at the same position reuses its record
    again = mine_synergies([m1], ab_registry, FailsOnB(), checkpoint_path=checkpoint)
    assert again.edges == (SynergyEdge("a", "b", INTRA_LEVEL, 1.0),)


def test_checkpoint_registry_mismatch(ab_registry, backend, tmp_path, m1):
    checkpoint = tmp_path / "mine.ckpt"
    mine_synergies([m1], ab_registry, backend, checkpoint_path=checkpoint)
    other = load_registry("a=function\nb=loop\n")
    with pytest.raises(SchemaError):
        mine_synergies([m1], other, backend, checkpoint_path=checkpoint)


def test_mine_empty_dataset_rejected(ab_registry, backend):
    with pytest.raises(ValueError):
        mine_synergies([], ab_registry, backend)
