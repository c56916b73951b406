"""The libLLVM worker path of OptBackend, against the real ``opt`` it links.

Tests that need LLVM skip when no ``opt`` is found (``PASSFOREST_OPT``,
then PATH) or when its libLLVM lacks ``LLVMRunPasses``. The rest run
everywhere and pin when the subprocess path is chosen.
"""

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from passforest import (
    OptBackend,
    PipelineForest,
    SearchConfig,
    SynergyGraph,
    default_registry,
    load_registry,
    parse_pipeline,
    print_pipeline,
    random_forest,
    run_search,
)
from passforest import evaluation, opt_pool
from passforest.evaluation import file_stamp, module_units, resolve_opt_path, result_of
from passforest.opt_pool import StateIndex, linked_libllvm

DATA = Path(__file__).resolve().parent / "data"
NO_TRIPLE = str(DATA / "loops.ll")
X86_TRIPLE = str(DATA / "vector_x86.ll")
SRC = str(Path(evaluation.__file__).resolve().parent.parent)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _pids(backend):
    return {worker.proc.pid for worker in backend._pool._live}


@pytest.fixture(scope="module")
def real_opt():
    """A backend on the real opt whose workers load its libLLVM."""
    if linked_libllvm(resolve_opt_path()) is None:
        pytest.skip("no opt linking a shared libLLVM found")
    backend = OptBackend()
    if _apply(backend, "module(function(instcombine))", NO_TRIPLE) is None:
        pytest.skip("the libLLVM that opt links has no LLVMRunPasses")
    return backend


def _apply(backend, pipeline: str, path: str):
    """The whole pipeline run from the input in one worker request, saving nothing."""
    return backend._workers().run(path, file_stamp(path), pipeline, [], backend.timeout)


def _reference(pipeline: str, path: str) -> subprocess.CompletedProcess:
    return OptBackend()._run(f"-passes={pipeline}", path)


def _first_line(text: str) -> str:
    return next((line.strip() for line in text.splitlines() if line.strip()), "")


# ---------------------------------------------------------------------------
# Parity with opt -S
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", [NO_TRIPLE, X86_TRIPLE], ids=["no-triple", "x86-triple"])
def test_worker_prints_what_opt_prints(real_opt, path):
    registry = default_registry()
    rng = random.Random(2024)
    pipelines = [print_pipeline(random_forest(rng, registry, max_leaves=10)) for _ in range(24)]
    # slp-vectorizer keeps @div4 scalar only with an x86-64 TargetMachine
    pipelines.append("module(function(slp-vectorizer))")
    for pipeline in pipelines:
        got = _apply(real_opt, pipeline, path)
        want = _reference(pipeline, path)
        assert got.returncode == want.returncode, pipeline
        assert got.stdout == want.stdout, pipeline
        assert _first_line(got.stderr) == _first_line(want.stderr), pipeline


def test_worker_builds_the_target_machine_from_the_triple(real_opt):
    printed = _apply(real_opt, "module(function(slp-vectorizer))", X86_TRIPLE).stdout
    assert printed.count("sdiv i32") == 4 and "add <4 x i32>" in printed


def _subprocess_only(monkeypatch):
    monkeypatch.setattr(opt_pool, "linked_libllvm", lambda opt: None)
    return OptBackend()


@pytest.mark.parametrize(
    "registry_text, pipeline",
    [
        (None, "module(function(loop(licm)))"),
        ("nosuchpass=function\n", "module(function(nosuchpass))"),
        # opt parses the whole pipeline before any pass runs
        ("licm=loop\nnosuchpass=function\n",
         "module(function(loop(licm))),module(function(nosuchpass))"),
    ],
    ids=["licm-abort", "pass-opt-lacks", "pass-opt-lacks-after-an-abort"],
)
def test_failures_read_the_same_on_both_paths(real_opt, monkeypatch, registry_text, pipeline):
    registry = load_registry(registry_text) if registry_text else default_registry()
    forest = parse_pipeline(pipeline, registry)
    worker = real_opt.evaluate(NO_TRIPLE, forest)
    subprocess_result = _subprocess_only(monkeypatch).evaluate(NO_TRIPLE, forest)
    assert worker == subprocess_result
    assert not worker.ok and worker.detail.startswith("opt exited ")


# ---------------------------------------------------------------------------
# Worker lifecycle
# ---------------------------------------------------------------------------

@pytest.fixture
def gvn(registry):
    return parse_pipeline("module(function(gvn))", registry)


def test_timeout_kills_the_worker_and_the_next_call_succeeds(real_opt, gvn):
    backend = OptBackend()
    assert backend.evaluate(NO_TRIPLE, gvn).ok
    (pid,) = _pids(backend)
    backend.timeout = 1e-6
    result = backend.evaluate(NO_TRIPLE, gvn)
    assert result.detail.startswith("timeout after ")
    assert not _alive(pid) and not _pids(backend)
    backend.timeout = 60.0
    assert backend.evaluate(NO_TRIPLE, gvn) == real_opt.evaluate(NO_TRIPLE, gvn)


def test_abort_kills_one_worker_and_the_next_call_gets_a_fresh_one(real_opt, registry, gvn):
    backend = OptBackend()
    assert backend.evaluate(NO_TRIPLE, gvn).ok
    (pid,) = _pids(backend)
    licm = parse_pipeline("module(function(loop(licm)))", registry)
    assert backend.evaluate(NO_TRIPLE, licm).detail.startswith("opt exited -6: ")
    assert not _alive(pid)
    assert backend.evaluate(NO_TRIPLE, gvn).ok
    assert _pids(backend) and pid not in _pids(backend)


def test_worker_exits_on_end_of_file(real_opt, gvn):
    backend = OptBackend()
    backend.evaluate(NO_TRIPLE, gvn)
    (worker,) = backend._pool._live
    worker.proc.stdin.close()
    assert worker.proc.wait(timeout=30) == 0


def test_collecting_the_backend_reaps_its_workers(real_opt, gvn):
    backend = OptBackend()
    backend.evaluate(NO_TRIPLE, gvn)
    workers = list(backend._pool._live)
    del backend
    assert all(worker.proc.returncode is not None for worker in workers)


def test_no_worker_outlives_its_interpreter(real_opt):
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from passforest import OptBackend, default_registry, parse_pipeline\n"
        "backend = OptBackend()\n"
        "forest = parse_pipeline('module(function(gvn))', default_registry())\n"
        f"assert backend.evaluate({NO_TRIPLE!r}, forest).ok\n"
        f"assert backend.evaluate({NO_TRIPLE!r}, forest).ok\n"
        "assert os.listdir(backend._pool.states.directory)\n"
        "print(backend._pool.states.directory)\n"
        "print(' '.join(str(w.proc.pid) for w in backend._pool._live))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    directory, pids = proc.stdout.splitlines()
    pids = [int(pid) for pid in pids.split()]
    assert pids and not any(_alive(pid) for pid in pids)
    assert not os.path.exists(directory)


def test_parallel_requests_use_at_most_that_many_workers(real_opt, registry):
    backend = OptBackend()
    rng = random.Random(5)
    forests = [random_forest(rng, registry, max_leaves=6) for _ in range(12)]
    serial = [real_opt.evaluate(NO_TRIPLE, forest) for forest in forests]
    assert evaluation.Evaluator(backend, NO_TRIPLE, parallel=2).map(forests) == serial
    assert len(_pids(backend)) <= 2


# ---------------------------------------------------------------------------
# Resuming from saved module states
# ---------------------------------------------------------------------------

def _whole(real_opt, forest, path) -> evaluation.EvaluationResult:
    """The result of the whole pipeline run from the input in one call."""
    return result_of(_apply(real_opt, print_pipeline(forest), path))


def _restored_from(backend, monkeypatch) -> list:
    """The state file each later request of ``backend`` resumes from ("" for none)."""
    states = []
    request = backend._pool._request

    def spy(cmd, fields, timeout):
        states.append(fields[2])  # path, pipeline, state, then the steps
        return request(cmd, fields, timeout)

    monkeypatch.setattr(backend._pool, "_request", spy)
    return states


def _saved(backend, path, forest) -> int:
    """How many leading units of ``forest`` have a saved state."""
    keys = StateIndex.keys(path, file_stamp(path), module_units(forest))
    return max((i + 1 for i, key in enumerate(keys) if key in backend._pool.states._files),
               default=0)


@pytest.mark.parametrize("path", [NO_TRIPLE, X86_TRIPLE], ids=["no-triple", "x86-triple"])
def test_resumed_evaluations_match_whole_pipelines(real_opt, registry, path):
    rng = random.Random(18)
    heads = [random_forest(rng, registry, max_leaves=6) for _ in range(8)]
    forests = heads + [
        PipelineForest(head.trees + random_forest(rng, registry, max_leaves=6).trees)
        for head in heads for _ in range(2)
    ]
    wanted = [_whole(real_opt, forest, path) for forest in forests]
    backend = OptBackend()
    # A state is saved when its prefix is reached the second time, so the
    # third round resumes every forest from its own state.
    for _ in range(3):
        for forest, want in zip(forests, wanted):
            assert backend.evaluate(path, forest) == want, print_pipeline(forest)
    assert all(_saved(backend, path, forest) == len(module_units(forest))
               for forest, want in zip(forests, wanted) if want.ok)


def test_search_results_do_not_depend_on_parallelism(real_opt, registry):
    config = SearchConfig(population_size=8, generations=3, max_sequence_length=6, seed=3)
    outcomes = []
    for parallel in (1, 2):
        best, log = run_search(NO_TRIPLE, SynergyGraph.empty(), registry, OptBackend(),
                               config, parallel=parallel)
        outcomes.append((print_pipeline(best.forest), best.fitness, log))
    assert outcomes[0] == outcomes[1]


def test_an_abort_mid_pipeline_keeps_the_states_saved_before_it(real_opt, registry, monkeypatch):
    backend = OptBackend()
    head = "module(function(gvn),cgscc(inline))"
    licm = parse_pipeline(f"{head},module(function(loop(licm)))", registry)
    assert backend.evaluate(NO_TRIPLE, licm) == _whole(real_opt, licm, NO_TRIPLE)
    assert backend.evaluate(NO_TRIPLE, licm).detail.startswith("opt exited -6: ")
    assert _saved(backend, NO_TRIPLE, licm) == 2
    restored = _restored_from(backend, monkeypatch)
    after = parse_pipeline(f"{head},module(function(instcombine))", registry)
    assert backend.evaluate(NO_TRIPLE, after) == _whole(real_opt, after, NO_TRIPLE)
    assert len(restored) == 1 and restored[0]


@pytest.mark.parametrize(
    "damage",
    # a deleted state is what an eviction racing another request leaves
    [lambda state: state.write_text("not IR\n"), Path.unlink],
    ids=["corrupted", "deleted"],
)
def test_a_state_that_does_not_parse_falls_back_to_the_input(
        real_opt, registry, monkeypatch, damage):
    backend = OptBackend()
    for _ in range(2):
        backend.evaluate(NO_TRIPLE, parse_pipeline("module(function(gvn))", registry))
    states = backend._pool.states
    ((number, _),) = states._files.values()
    state = Path(states.file(number))
    damage(state)
    restored = _restored_from(backend, monkeypatch)
    longer = parse_pipeline("module(function(gvn),function(instcombine))", registry)
    assert backend.evaluate(NO_TRIPLE, longer) == _whole(real_opt, longer, NO_TRIPLE)
    assert not state.exists() and not states._files
    assert restored == [str(state), ""]  # the pool itself runs it again from the input


def test_a_file_changed_in_place_is_never_resumed_from_old_states(
        real_opt, registry, tmp_path, monkeypatch):
    path = tmp_path / "input.ll"
    shutil.copy(NO_TRIPLE, path)
    backend = OptBackend()
    forest = parse_pipeline("module(function(gvn),function(instcombine))", registry)
    for _ in range(2):
        assert backend.evaluate(str(path), forest) == _whole(real_opt, forest, NO_TRIPLE)
    assert _saved(backend, str(path), forest) == 2
    restored = _restored_from(backend, monkeypatch)
    shutil.copy(X86_TRIPLE, path)
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    assert backend.evaluate(str(path), forest) == _whole(real_opt, forest, str(path))
    assert restored == [""]


def test_collecting_the_backend_deletes_its_states(real_opt, gvn):
    backend = OptBackend()
    backend.evaluate(NO_TRIPLE, gvn)
    backend.evaluate(NO_TRIPLE, gvn)
    directory = backend._pool.states.directory
    assert os.listdir(directory)
    del backend
    assert not os.path.exists(directory)


def test_state_index_saves_on_the_second_sighting_and_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(opt_pool, "STATE_BUDGET_BYTES", 250)
    states = StateIndex()
    a, ab = StateIndex.keys("in.ll", (1, 2), ["globalopt", "function(gvn)"])
    ac = StateIndex.keys("in.ll", (1, 2), ["globalopt", "cgscc(inline)"])[1]

    def write(number, size=100):
        Path(states.file(number)).write_bytes(b"x" * size)

    assert states.plan([a, ab]) == (0, "", [None, None])
    done, state, (first, second) = states.plan([a, ab])
    write(first), write(second)
    states.add([(a, first), (ab, second)])
    assert states.plan([a]) == (1, states.file(first), [])  # a is now the most recent
    assert states.plan([a, ac]) == (1, states.file(first), [None])
    (third,) = states.plan([a, ac])[2]
    write(third)
    states.add([(ac, third)])  # 300 bytes: evicts ab
    assert not os.path.exists(states.file(second))
    assert states.plan([a, ab]) == (1, states.file(first), [None])
    assert states.plan([a, ac]) == (2, states.file(third), [])
    (loser,) = states.plan([a, ab])[2]
    write(loser)
    states.add([(a, loser), (ab, 12345)])  # a lost a race; no file was written for ab
    assert not os.path.exists(states.file(loser))
    assert states.plan([a, ab]) == (1, states.file(first), [None])
    states.close()
    assert not os.path.exists(states.directory)


def test_state_index_keeps_at_most_key_limit_keys_per_table(monkeypatch):
    monkeypatch.setattr(opt_pool, "KEY_LIMIT", 1)
    states = StateIndex()
    a, b = (StateIndex.keys("in.ll", (1, 2), [unit])[0] for unit in ("globalopt", "strip"))
    for key in (a, b, a):  # seeing b forgets a
        assert states.plan([key]) == (0, "", [None])
    numbers = []
    for key in (a, b, b):
        (number,) = states.plan([key])[2]
        if number is not None:
            Path(states.file(number)).write_bytes(b"x")
            states.add([(key, number)])  # b's state evicts a's
            numbers.append(number)
    assert len(numbers) == 2 and not os.path.exists(states.file(numbers[0]))
    assert states.plan([b])[:2] == (1, states.file(numbers[1]))
    assert states.plan([a]) == (0, "", [None])
    states.close()


def test_state_keys_name_the_input_its_stamp_and_each_prefix():
    units = ["globalopt", "function(gvn)"]
    keys = StateIndex.keys("in.ll", (1, 2), units)
    assert len(set(keys)) == 2
    assert StateIndex.keys("in.ll", (1, 2), units[:1]) == keys[:1]
    for path, stamp in (("other.ll", (1, 2)), ("in.ll", (1, 3)), ("in.ll", (2, 2))):
        assert not set(StateIndex.keys(path, stamp, units)) & set(keys)
    assert StateIndex.keys("in.ll", (1, 2), ["function(gvn)", "globalopt"])[1] != keys[1]


# ---------------------------------------------------------------------------
# Choosing the subprocess path
# ---------------------------------------------------------------------------

def test_no_library_for_scripts_and_missing_binaries(tmp_path):
    assert linked_libllvm(helpers.write_script(tmp_path / "opt", "exit 0\n")) is None
    assert linked_libllvm(str(tmp_path / "missing")) is None
    assert linked_libllvm(sys.executable) is None


@pytest.mark.parametrize(
    "listing, library",
    [
        ("\tlinux-vdso.so.1 (0x00007ffd5a1f2000)\n"
         "\tlibLLVM-18.so.1 => /opt/llvm/lib/libLLVM-18.so.1 (0x00007f131d600000)\n"
         "\tlibc.so.6 => /lib/x86_64-linux-gnu/libc.so.6 (0x00007f131d41e000)\n",
         "/opt/llvm/lib/libLLVM-18.so.1"),
        ("\tlibLLVM-18.so.1 => not found\n"
         "\tlibc.so.6 => /lib/x86_64-linux-gnu/libc.so.6 (0x00007f131d41e000)\n",
         None),
    ],
    ids=["resolved", "not-found"],
)
def test_the_library_is_the_libllvm_line_that_ldd_resolves(
        tmp_path, monkeypatch, listing, library):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    helpers.write_script(bin_dir / "ldd", f"cat <<'EOF'\n{listing}EOF\n")
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    assert linked_libllvm(helpers.write_script(tmp_path / "opt", "exit 0\n")) == library


def test_no_ldd_on_path_gives_no_library(tmp_path, monkeypatch):
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert linked_libllvm(sys.executable) is None


def test_the_real_opt_links_an_existing_absolute_libllvm():
    opt = resolve_opt_path()
    if shutil.which(opt) is None:
        pytest.skip("no opt found")
    library = linked_libllvm(opt)
    assert library is not None and os.path.isabs(library) and os.path.exists(library)


def test_a_fake_opt_runs_as_a_subprocess(tmp_path, registry):
    ir = tmp_path / "in.ll"
    ir.write_text("define void @f() {\n  ret void\n}\n")
    fake = helpers.write_script(tmp_path / "opt", f"cat {ir}\n")
    backend = OptBackend(opt_path=fake)
    result = backend.evaluate(ir, parse_pipeline("module(globalopt)", registry))
    assert result.ok and result.instruction_count == 1
    assert backend._workers() is None


def test_an_unusable_library_falls_back_to_the_subprocess(tmp_path, registry, monkeypatch):
    ir = tmp_path / "in.ll"
    ir.write_text("define void @f() {\n  ret void\n}\n")
    fake = helpers.write_script(tmp_path / "opt", f"cat {ir}\n")
    # libc loads but exports no LLVM function, so the worker replies U
    monkeypatch.setattr(opt_pool, "linked_libllvm", lambda opt: "libc.so.6")
    backend = OptBackend(opt_path=fake)
    forest = parse_pipeline("module(globalopt)", registry)
    assert backend.evaluate(ir, forest).instruction_count == 1
    assert backend._pool is not None and not backend._pool.usable
    assert backend._workers() is None and not backend._pool._live
    assert backend.evaluate(ir, forest).instruction_count == 1


@pytest.mark.parametrize("timeout", [0, -1.0, float("inf"), float("nan"), True])
def test_backend_rejects_a_timeout_that_is_not_a_finite_positive_number(timeout):
    with pytest.raises(ValueError, match="timeout"):
        OptBackend(timeout=timeout)
