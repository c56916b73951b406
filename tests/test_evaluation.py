import dataclasses
import os
import shutil
import threading
from collections import Counter

import pytest

import helpers
from passforest import (
    BackendUnavailable,
    Leaf,
    MalformedIR,
    Manager,
    MockBackend,
    MockFunction,
    MockProgram,
    OptBackend,
    PassLevel,
    PipelineForest,
    SchemaError,
    count_ir_instructions,
    load_mock_program,
    load_registry,
    mock_evaluate,
    parse_pipeline,
    print_pipeline,
    refine,
    save_mock_program,
    schedule_of,
)
from passforest.evaluation import Evaluator, EvaluationResult, module_units, resolve_opt_path
from passforest.refine import _all_chromosomes, decision_points, decode

SAMPLE_IR = """\
; ModuleID = 'demo'
target triple = "x86_64-unknown-linux-gnu"

declare i32 @puts(i8*)

define i32 @add(i32 %a, i32 %b) {
entry:
  %1 = add i32 %a, %b
  ret i32 %1
}
"""


# ---------------------------------------------------------------------------
# count_ir_instructions
# ---------------------------------------------------------------------------

def test_count_simple_body():
    assert count_ir_instructions(SAMPLE_IR) == 2


def test_count_declarations_only():
    assert count_ir_instructions("declare i32 @puts(i8*)\n") == 0


def test_count_is_additive_over_functions():
    two = """\
define void @a() {
  %1 = add i32 1, 2
  %2 = add i32 %1, 3
  ret void
}

define void @b() {
bb:
  %1 = mul i32 2, 2
  %2 = mul i32 %1, 2
  br label %done

done:                       ; preds = %bb
  ret void
}
"""
    assert count_ir_instructions(two) == 3 + 4


def test_count_skips_labels_comments_blanks():
    body = """\
define void @f() {
entry:
  ; a comment
  %1 = add i32 1, 1  ; trailing comment

42:                  ; preds = %entry
  ret void
}
"""
    assert count_ir_instructions(body) == 2


def test_count_unbalanced_raises():
    with pytest.raises(MalformedIR):
        count_ir_instructions("define void @f() {\n  ret void\n")
    with pytest.raises(MalformedIR):
        count_ir_instructions("}\n")
    with pytest.raises(MalformedIR):
        count_ir_instructions(
            "define void @f() {\ndefine void @g() {\n}\n}\n"
        )


# ---------------------------------------------------------------------------
# schedule_of (hierarchical execution semantics)
# ---------------------------------------------------------------------------

@pytest.fixture
def two_functions():
    return MockProgram(
        functions=(MockFunction("f1", 10), MockFunction("f2", 10)),
        pass_effects={},
    )


def test_schedule_interleaved(two_functions, ab_registry):
    forest = parse_pipeline("module(function(a,b))", ab_registry)
    assert schedule_of(forest, two_functions) == [
        ("a", "f1"), ("b", "f1"), ("a", "f2"), ("b", "f2"),
    ]


def test_schedule_sibling_managers(two_functions, ab_registry):
    forest = parse_pipeline("module(function(a),function(b))", ab_registry)
    assert schedule_of(forest, two_functions) == [
        ("a", "f1"), ("a", "f2"), ("b", "f1"), ("b", "f2"),
    ]


def test_schedule_module_pass_module_wide(two_functions):
    forest = PipelineForest(
        (Manager(PassLevel.MODULE, (Leaf("m", PassLevel.MODULE),)),)
    )
    assert schedule_of(forest, two_functions) == [("m", "f1"), ("m", "f2")]


def test_schedule_separate_trees_match_siblings(two_functions, ab_registry):
    siblings = parse_pipeline("module(function(a),function(b))", ab_registry)
    trees = parse_pipeline("module(function(a)),module(function(b))", ab_registry)
    assert schedule_of(siblings, two_functions) == schedule_of(trees, two_functions)


def test_schedule_loop_manager_inherits_traversal(two_functions):
    reg_lines = "f=function\nl=loop\n"
    from passforest import load_registry

    registry = load_registry(reg_lines)
    forest = parse_pipeline("module(function(f,loop(l)))", registry)
    assert schedule_of(forest, two_functions) == [
        ("f", "f1"), ("l", "f1"), ("f", "f2"), ("l", "f2"),
    ]


def test_schedule_cgscc_manager_function_at_a_time(two_functions):
    from passforest import load_registry

    registry = load_registry("c=cgscc\nf=function\n")
    nested = parse_pipeline("module(cgscc(c,function(f)))", registry)
    assert schedule_of(nested, two_functions) == [
        ("c", "f1"), ("f", "f1"), ("c", "f2"), ("f", "f2"),
    ]
    staged = parse_pipeline("module(cgscc(c)),module(function(f))", registry)
    assert schedule_of(staged, two_functions) == [
        ("c", "f1"), ("c", "f2"), ("f", "f1"), ("f", "f2"),
    ]


# ---------------------------------------------------------------------------
# mock evaluation
# ---------------------------------------------------------------------------

def test_mock_m1_pair_synergy(m1, ab_registry, backend):
    joined = parse_pipeline("module(function(a,b))", ab_registry)
    reversed_ = parse_pipeline("module(function(b,a))", ab_registry)
    assert backend.evaluate(m1, joined).instruction_count == 82
    assert backend.evaluate(m1, reversed_).instruction_count == 85


def test_mock_m2_coupling(m2, ab_registry, backend):
    split = parse_pipeline("module(function(a),function(b))", ab_registry)
    joined = parse_pipeline("module(function(a,b))", ab_registry)
    assert backend.evaluate(m2, split).instruction_count == 50 + 50 - 20 - 7
    assert backend.evaluate(m2, joined).instruction_count == 80


def test_mock_m2_coupling_within_one_block_when_callee_is_listed_first(
    m2, ab_registry, backend
):
    # f2 receives the whole block before f1's turn, so a ran on f1's
    # only callee by the time b runs on f1, whatever the order inside.
    program = dataclasses.replace(m2, functions=m2.functions[::-1])
    for text in ("module(function(a,b))", "module(function(b,a))"):
        forest = parse_pipeline(text, ab_registry)
        assert backend.evaluate(program, forest).instruction_count == 50 + 50 - 20 - 7


def test_mock_clamps_at_zero(ab_registry):
    program = MockProgram(
        functions=(MockFunction("f1", 3),), pass_effects={"a": 100}
    )
    forest = parse_pipeline("module(function(a))", ab_registry)
    assert mock_evaluate(program, forest).instruction_count == 0


def test_mock_zero_effect_pass_is_neutral(m1, ab_registry, backend):
    zreg = helpers.load_registry("a=function\nb=function\nz=function\n")
    base = backend.evaluate(m1, parse_pipeline("module(function(a,b))", zreg))
    with_z = backend.evaluate(m1, parse_pipeline("module(function(a,b,z))", zreg))
    assert base.instruction_count == with_z.instruction_count


def test_mock_determinism(m2, ab_registry, backend):
    forest = parse_pipeline("module(function(a),function(b))", ab_registry)
    results = {backend.evaluate(m2, forest).instruction_count for _ in range(5)}
    assert len(results) == 1


def test_heterogeneous_boundary_equivalence_examples(backend):
    from passforest import load_registry

    registry = load_registry("m=module\nf=function\n")
    program = MockProgram(
        functions=(MockFunction("f1", 40), MockFunction("f2", 40)),
        call_edges=(("f1", "f2"),),
        pass_effects={"m": 2, "f": 3},
        pair_synergy={("m", "f"): 4},
        coupling={("m", "f"): 5},
    )
    joined = parse_pipeline("module(m,function(f))", registry)
    split = parse_pipeline("module(m),module(function(f))", registry)
    assert (
        backend.evaluate(program, joined).instruction_count
        == backend.evaluate(program, split).instruction_count
    )


# ---------------------------------------------------------------------------
# MockProgram schema and JSON round trip
# ---------------------------------------------------------------------------

def test_mock_rejects_call_cycle():
    with pytest.raises(SchemaError):
        MockProgram(
            functions=(MockFunction("f1", 1), MockFunction("f2", 1)),
            call_edges=(("f1", "f2"), ("f2", "f1")),
        )


def test_mock_rejects_unknown_edge_name():
    with pytest.raises(SchemaError):
        MockProgram(
            functions=(MockFunction("f1", 1),), call_edges=(("f1", "zz"),)
        )


def test_mock_rejects_negative_effect():
    with pytest.raises(SchemaError):
        MockProgram(functions=(MockFunction("f1", 1),), pass_effects={"a": -1})


@pytest.mark.parametrize("table", ["pair_synergy", "coupling"])
def test_mock_rejects_negative_bonus(table):
    with pytest.raises(SchemaError):
        MockProgram(
            functions=(MockFunction("f1", 10), MockFunction("f2", 10)),
            call_edges=(("f1", "f2"),),
            **{table: {("a", "b"): -1}},
        )


def test_mock_json_round_trip(m2, tmp_path):
    path = tmp_path / "m2.json"
    save_mock_program(m2, path)
    assert load_mock_program(path) == m2


def test_mock_backend_loads_spec_files(m1, tmp_path, ab_registry):
    path = tmp_path / "m1.json"
    save_mock_program(m1, path)
    backend = MockBackend()
    forest = parse_pipeline("module(function(a,b))", ab_registry)
    assert backend.evaluate(str(path), forest).instruction_count == 82
    assert backend.original_count(str(path)) == 100


def test_mock_backend_reloads_a_spec_file_rewritten_in_place(m1, m2, tmp_path, ab_registry):
    path = tmp_path / "program.json"
    save_mock_program(m1, path)
    backend = MockBackend()
    forest = parse_pipeline("module(function(a,b))", ab_registry)
    assert backend.evaluate(str(path), forest) == mock_evaluate(m1, forest)
    save_mock_program(m2, path)
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    assert backend.evaluate(str(path), forest) == mock_evaluate(m2, forest)
    assert backend.original_count(str(path)) == 100


def test_mock_backend_plan_never_serves_another_program(m1, m2, ab_registry):
    # m1 and m2 share the passes a and b; a plan compiled for one program
    # must not score the other's forests with the same leaf sequence.
    backend = MockBackend()
    joined = parse_pipeline("module(function(a,b))", ab_registry)
    split = parse_pipeline("module(function(a),function(b))", ab_registry)
    for forest in (joined, split, split, joined):
        for program in (m1, m2, m2, m1):
            expected = mock_evaluate(program, forest)
            assert backend.evaluate(program, forest) == expected
    assert backend.evaluate(m2, split).instruction_count == 73
    assert backend.evaluate(m2, joined).instruction_count == 80
    assert backend._last[2] is not None  # the repeated sequence has a plan
    assert backend.evaluate(m1, joined).instruction_count == 82
    assert backend._last[2] is None


def _three_class_program(with_class_2: bool) -> MockProgram:
    # Coupling classes: f0 and f2 have no callees (0); f1 and f5 call f2,
    # listed after them (1); f3 and f4 call f0, listed before them (2).
    # Each class has a base below and one above the reductions, so the
    # clamp cuts inside every class.
    functions = [("f0", 10), ("f1", 40), ("f5", 30), ("f2", 200), ("f3", 45), ("f4", 300)]
    calls = [("f1", "f2"), ("f5", "f2"), ("f3", "f0"), ("f4", "f0")]
    if not with_class_2:
        functions, calls = functions[:4], calls[:2]
    return MockProgram(
        functions=tuple(MockFunction(name, base) for name, base in functions),
        call_edges=tuple(calls),
        pass_effects={"a": 4, "b": 3, "m": 2},
        pair_synergy={("a", "b"): 2, ("b", "a"): 1},
        coupling={("a", "b"): 5, ("b", "a"): 4, ("m", "b"): 3, ("b", "b"): 2},
    )


@pytest.mark.parametrize("with_class_2", [True, False], ids=["three-classes", "class-2-empty"])
def test_mock_backend_plan_scores_nested_module_managers(with_class_2):
    # One leaf sequence m,a,b,a,b in every flat partition and in shapes
    # that nest module managers in module trees; from the second call on,
    # the backend scores them all through one sequence plan.
    registry = load_registry("a=function\nb=function\nm=module\n")
    program = _three_class_program(with_class_2)
    problem = decision_points([(n, registry.level_of(n)) for n in "mabab"])
    flat = [decode(problem, chromosome) for chromosome in _all_chromosomes(3)]
    nested = [
        parse_pipeline(text, registry)
        for text in (
            "module(module(m,function(a)),function(b,a,b))",
            "module(module(m,function(a),function(b)),function(a,b))",
            "module(m,module(function(a,b),module(function(a))),function(b))",
            "module(m,function(a)),module(function(b,a),module(function(b)))",
        )
    ]
    backend = MockBackend()
    counts = set()
    for forest in flat + nested + flat[::-1]:
        expected = helpers.reference_mock_evaluate(program, forest)
        assert backend.evaluate(program, forest) == expected
        counts.add(expected.instruction_count)
    assert backend._last[2] is not None  # scored by the plan
    assert len(counts) > 2  # the shapes do not all score alike


# ---------------------------------------------------------------------------
# opt subprocess backend (via fake opt executables)
# ---------------------------------------------------------------------------

def test_module_units_cut_every_module_manager(registry):
    forest = parse_pipeline(
        "module(globalopt,function(gvn),module(cgscc(inline),module(function(adce)))),"
        "module(function(adce,loop(loop-deletion)))",
        registry,
    )
    assert module_units(forest) == [
        "globalopt", "function(gvn)", "cgscc(inline)", "function(adce)",
        "function(adce,loop(loop-deletion))",
    ]


@pytest.fixture
def ir_file(tmp_path):
    path = tmp_path / "input.ll"
    path.write_text(SAMPLE_IR)
    return path


@pytest.fixture
def globalopt(registry):
    return parse_pipeline("module(globalopt)", registry)


def test_opt_backend_counts_output(tmp_path, ir_file, globalopt):
    fake = helpers.write_script(tmp_path / "opt", f"cat {ir_file}\nexit 0\n")
    result = OptBackend(opt_path=fake).evaluate(ir_file, globalopt)
    assert result.ok and result.instruction_count == 2


def test_opt_backend_nonzero_exit(tmp_path, ir_file, globalopt):
    cases = [
        ("echo 'unknown pass' >&2\nexit 1\n", "opt exited 1: unknown pass"),
        # an abort: the diagnostic line, then a stack dump
        (
            "echo 'LLVM ERROR: LICM requires MemorySSA (loop-mssa)' >&2\n"
            + "".join(f"echo ' #{i} 0x0 llvm::frame{i}' >&2\n" for i in range(8))
            + "exit 134\n",
            "opt exited 134: LLVM ERROR: LICM requires MemorySSA (loop-mssa)",
        ),
    ]
    for body, detail in cases:
        fake = helpers.write_script(tmp_path / "opt", body)
        result = OptBackend(opt_path=fake).evaluate(ir_file, globalopt)
        assert not result.ok
        assert result.detail == detail


def test_opt_backend_empty_pipeline_fails(tmp_path, ir_file):
    fake = helpers.write_script(
        tmp_path / "opt", "echo 'usage: opt' >&2\nexit 1\n"
    )
    result = OptBackend(opt_path=fake).evaluate(ir_file, PipelineForest(()))
    assert not result.ok


def test_opt_backend_timeout(tmp_path, ir_file, globalopt):
    fake = helpers.write_script(tmp_path / "opt", "sleep 5\n")
    result = OptBackend(opt_path=fake, timeout=0.2).evaluate(ir_file, globalopt)
    assert not result.ok
    assert "timeout" in result.detail


def test_opt_backend_timeout_detail_keeps_fractional_seconds(tmp_path, ir_file, globalopt):
    fake = helpers.write_script(tmp_path / "opt", "exec sleep 5\n")
    result = OptBackend(opt_path=fake, timeout=0.3).evaluate(ir_file, globalopt)
    assert result.detail.startswith("timeout after 0.3s")


def test_opt_backend_missing_binary(ir_file, globalopt):
    with pytest.raises(BackendUnavailable):
        OptBackend(opt_path="/does/not/exist/opt").evaluate(ir_file, globalopt)


def test_opt_backend_missing_input(tmp_path, registry):
    backend = OptBackend(opt_path=str(tmp_path / "opt"))
    forest = parse_pipeline("module(globalopt)", registry)
    result = backend.evaluate(tmp_path / "missing.ll", forest)
    assert not result.ok
    with pytest.raises(BackendUnavailable):
        backend.original_count(tmp_path / "missing.ll")


def test_opt_backend_original_count(tmp_path, ir_file):
    fake = helpers.write_script(tmp_path / "opt", f'[ "$2" = "{ir_file}" ] && cat {ir_file}\n')
    assert OptBackend(opt_path=fake).original_count(ir_file) == 2


# Two layouts of one function that count 0 and MalformedIR on their raw
# text; ``opt -S`` prints both with 2 instructions.
COMMENTED_IR = """\
define i32 @f(i32 %x) { ; adds one
  %y = add i32 %x, 1
  ret i32 %y
} ; end
"""
BRACE_ON_ITS_OWN_LINE_IR = """\
define i32 @f(i32 %x)
{
  %y = add i32 %x, 1
  ret i32 %y
}
"""


@pytest.mark.parametrize(
    "text", [COMMENTED_IR, BRACE_ON_ITS_OWN_LINE_IR], ids=["comments", "brace-line"]
)
def test_opt_backend_original_count_reads_opt_printing(tmp_path, ir_file, text):
    # The input is counted on what opt prints for it, never on its raw text.
    source = tmp_path / "hand.ll"
    source.write_text(text)
    fake = helpers.write_script(tmp_path / "opt", f'[ "$2" = "{source}" ] && cat {ir_file}\n')
    assert OptBackend(opt_path=fake).original_count(source) == 2
    opt = shutil.which(resolve_opt_path())
    if opt is not None:
        assert OptBackend(opt_path=opt).original_count(source) == 2


def test_opt_backend_original_count_is_memoized_per_file_state(tmp_path, ir_file):
    log = tmp_path / "calls"
    fake = helpers.write_script(tmp_path / "opt", f"echo x >> {log}\ncat {ir_file}\n")
    backend = OptBackend(opt_path=fake)
    source = tmp_path / "input2.ll"
    source.write_text(SAMPLE_IR)
    assert [backend.original_count(source) for _ in range(3)] == [2, 2, 2]
    assert log.read_text().count("x") == 1
    source.write_text(SAMPLE_IR + "\n")  # a new size: read again
    assert backend.original_count(source) == 2
    assert log.read_text().count("x") == 2
    assert OptBackend(opt_path=fake).original_count(source) == 2  # per backend
    assert log.read_text().count("x") == 3


def test_opt_backend_original_count_unreadable_ll(tmp_path, ir_file):
    fake = helpers.write_script(tmp_path / "opt", "echo 'bad input' >&2\nexit 1\n")
    with pytest.raises(BackendUnavailable, match="opt exited 1 reading"):
        OptBackend(opt_path=fake).original_count(ir_file)


def test_opt_backend_original_count_disassembles_bc(tmp_path, ir_file):
    bitcode = tmp_path / "input.bc"
    bitcode.write_bytes(b"BC\xc0\xde")
    fake = helpers.write_script(tmp_path / "opt", f'[ "$2" = "{bitcode}" ] && cat {ir_file}\n')
    assert OptBackend(opt_path=fake).original_count(bitcode) == 2


@pytest.mark.parametrize(
    "body, timeout",
    [("echo 'bad bitcode' >&2\nexit 1\n", 60.0), ("sleep 5\n", 0.2)],
    ids=["nonzero-exit", "timeout"],
)
def test_opt_backend_original_count_bc_failure(tmp_path, body, timeout):
    bitcode = tmp_path / "input.bc"
    bitcode.write_bytes(b"BC\xc0\xde")
    fake = helpers.write_script(tmp_path / "opt", body)
    backend = OptBackend(opt_path=fake, timeout=timeout)
    with pytest.raises(BackendUnavailable, match="disassembling"):
        backend.original_count(bitcode)


def test_opt_path_env_var(tmp_path, ir_file, monkeypatch, globalopt):
    fake = helpers.write_script(tmp_path / "opt-env", f"cat {ir_file}\n")
    monkeypatch.setenv("PASSFOREST_OPT", fake)
    result = OptBackend().evaluate(ir_file, globalopt)
    assert result.ok and result.instruction_count == 2


# ---------------------------------------------------------------------------
# Evaluator (memo plus fan-out shared by mining, search and refinement)
# ---------------------------------------------------------------------------

class CountingBackend:
    """Scores a pipeline by its string length and counts calls per string."""

    name = "counting"

    def __init__(self):
        self.calls = Counter()
        self._lock = threading.Lock()

    def evaluate(self, program, forest):
        key = print_pipeline(forest)
        with self._lock:
            self.calls[key] += 1
        return EvaluationResult(len(key), "ok")

    def original_count(self, program):
        return 1000


@pytest.fixture
def ab_forests(ab_registry):
    texts = ["module(function(a))", "module(function(b))", "module(function(a,b))"]
    return [parse_pipeline(text, ab_registry) for text in texts]


def test_evaluator_results_follow_input_order_with_duplicates(ab_forests):
    a, b, ab = ab_forests
    backend = CountingBackend()
    results = Evaluator(backend, "prog").map([ab, a, ab, b, a])
    expected = [len(print_pipeline(f)) for f in (ab, a, ab, b, a)]
    assert [r.instruction_count for r in results] == expected
    assert sorted(backend.calls.values()) == [1, 1, 1]


def test_evaluator_calls_backend_once_per_pipeline_across_maps(ab_forests):
    a, b, ab = ab_forests
    backend = CountingBackend()
    evaluator = Evaluator(backend, "prog")
    evaluator.map([a, b])
    evaluator.map([b, ab, a])
    evaluator.map([ab])
    assert set(backend.calls.values()) == {1}
    assert len(backend.calls) == len(evaluator.results) == 3


def test_evaluator_parallel_matches_serial(ab_forests):
    forests = ab_forests * 3
    serial = Evaluator(CountingBackend(), "prog", parallel=1).map(forests)
    backend = CountingBackend()
    threaded = Evaluator(backend, "prog", parallel=4).map(forests)
    assert threaded == serial
    assert set(backend.calls.values()) == {1}


@pytest.mark.parametrize("parallel", [0, -3])
def test_evaluator_rejects_parallel_below_one(parallel):
    with pytest.raises(ValueError, match="parallel"):
        Evaluator(CountingBackend(), "p", parallel=parallel)


def test_evaluator_runs_the_mock_serially(m1, ab_registry):
    class ThreadRecordingBackend(MockBackend):
        def __init__(self):
            super().__init__()
            self.threads = []

        def evaluate(self, program, forest):
            self.threads.append(threading.get_ident())
            return super().evaluate(program, forest)

    texts = [
        "module(function(a))",
        "module(function(b))",
        "module(function(a,b))",
        "module(function(b,a))",
        "module(function(a),function(b))",
    ]
    forests = [parse_pipeline(text, ab_registry) for text in texts]
    backend = ThreadRecordingBackend()
    results = Evaluator(backend, m1, parallel=4).map(forests)
    assert backend.threads == [threading.get_ident()] * len(forests)
    assert results == Evaluator(MockBackend(), m1).map(forests)


def test_refine_exhaustive_evaluates_each_partition_once():
    names = [f"p{i}" for i in range(13)]
    registry = load_registry("".join(f"{n}=function\n" for n in names))
    seed = parse_pipeline(f"module(function({','.join(names)}))", registry)
    backend = CountingBackend()
    result = refine(seed, "prog", backend)
    assert result.decision_point_count == 12
    assert sum(backend.calls.values()) == len(backend.calls) == 4096
    assert result.evaluations_used == 4096
