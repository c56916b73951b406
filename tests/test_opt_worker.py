"""The libLLVM worker path of OptBackend, against the real ``opt`` it links.

Tests that need LLVM skip when no ``opt`` is found (``PASSFOREST_OPT``,
then PATH) or when its libLLVM lacks ``LLVMRunPasses``. The rest run
everywhere and pin when the subprocess path is chosen.
"""

import hashlib
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
from passforest.evaluation import file_stamp, resolve_opt_path, result_of
from passforest.forest import module_steps
from passforest.opt_pool import StateIndex, linked_libllvm
from passforest.opt_worker import instruction_count

DATA = Path(__file__).resolve().parent / "data"
NO_TRIPLE = str(DATA / "loops.ll")
X86_TRIPLE = str(DATA / "vector_x86.ll")
CHECKSUM = str(DATA.parents[1] / "bench" / "data" / "checksum.ll")
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
    backend.evaluate(NO_TRIPLE, parse_pipeline("module(function(instcombine))", default_registry()))
    if not backend._pool.usable:
        pytest.skip("the libLLVM that opt links has no LLVMRunPasses")
    return backend


def _apply(backend, forest, path: str) -> subprocess.CompletedProcess:
    """The whole pipeline run from the input in one worker request, as ``opt -S`` output.

    The request saves only the final module, to a file read back here;
    the reply's digest and count must be those of that file.
    """
    pool = backend._workers()
    pipeline = print_pipeline(forest)
    cmd = [pool.opt, "-S", f"-passes={pipeline}", path, "-o", "-"]
    save = os.path.join(pool.states.directory, "whole")
    fields = [path, ""]
    for step in module_steps(forest):
        fields += [step.text, ""]
    fields[-1] = save
    kind, payload = pool._request(fields, backend.timeout)
    if kind == b"E":
        code, _, stderr = payload.decode("utf-8").partition("\n")
        return subprocess.CompletedProcess(cmd, int(code), "", stderr)
    assert kind == b"O"
    printed = Path(save).read_bytes()
    os.unlink(save)
    assert payload[:16] == hashlib.blake2b(printed, digest_size=16).digest()
    text = printed.decode("utf-8")
    assert payload[16:].decode("utf-8") == str(instruction_count(text))
    return subprocess.CompletedProcess(cmd, 0, text, "")


def _reference(pipeline: str, path: str) -> subprocess.CompletedProcess:
    """One ``opt`` process that runs the printed pipeline, not its steps."""
    return OptBackend()._run([resolve_opt_path(), "-S", f"-passes={pipeline}", path, "-o", "-"])


def _first_line(text: str) -> str:
    return next((line.strip() for line in text.splitlines() if line.strip()), "")


# ---------------------------------------------------------------------------
# Parity with opt -S
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", [NO_TRIPLE, X86_TRIPLE], ids=["no-triple", "x86-triple"])
def test_worker_prints_what_opt_prints(real_opt, path):
    registry = default_registry()
    rng = random.Random(2024)
    forests = [random_forest(rng, registry, max_leaves=10) for _ in range(24)]
    # slp-vectorizer keeps @div4 scalar only with an x86-64 TargetMachine
    forests.append(parse_pipeline("module(function(slp-vectorizer))", registry))
    # the worker runs module(<steps>), opt the printed pipeline
    forests += [parse_pipeline(pipeline, registry) for pipeline in (
        "module(globalopt,function(gvn),module(cgscc(inline),module(function(adce)))),"
        "module(function(adce,loop(loop-deletion)))",
        "module(globalopt),module(strip)",
    )]
    for forest in forests:
        pipeline = print_pipeline(forest)
        got = _apply(real_opt, forest, path)
        want = _reference(pipeline, path)
        assert got.returncode == want.returncode, pipeline
        assert got.stdout == want.stdout, pipeline
        assert _first_line(got.stderr) == _first_line(want.stderr), pipeline


def test_worker_builds_the_target_machine_from_the_triple(real_opt, registry):
    forest = parse_pipeline("module(function(slp-vectorizer))", registry)
    printed = _apply(real_opt, forest, X86_TRIPLE).stdout
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


def test_an_input_name_that_is_not_utf8_evaluates_on_both_paths(real_opt, monkeypatch, tmp_path):
    # opt takes any file name and prints it raw on its "; ModuleID" line.
    data = Path(NO_TRIPLE).read_bytes()
    plain = tmp_path / "loops.ll"
    plain.write_bytes(data)
    odd = os.path.join(os.fsencode(tmp_path), b"\xff-loops.ll")
    with open(odd, "wb") as fh:
        fh.write(data)
    odd = os.fsdecode(odd)
    forest = parse_pipeline("module(function(instcombine,loop(loop-deletion)))", default_registry())
    for backend in (real_opt, _subprocess_only(monkeypatch)):
        want = backend.evaluate(str(plain), forest)
        assert want.ok
        assert backend.evaluate(odd, forest) == want
        assert backend.original_count(odd) == backend.original_count(str(plain))


@pytest.fixture(scope="module")
def loops_bc(real_opt, tmp_path_factory):
    """``loops.ll`` as bitcode, written by the real opt."""
    path = tmp_path_factory.mktemp("bitcode") / "loops.bc"
    subprocess.run([resolve_opt_path(), NO_TRIPLE, "-o", str(path)], check=True, timeout=60)
    return str(path)


def _no_process(cmd):
    raise AssertionError(f"an opt process started: {cmd}")


def test_a_new_backend_counts_its_input_in_a_worker(real_opt, loops_bc, monkeypatch):
    paths = [NO_TRIPLE, CHECKSUM, X86_TRIPLE, loops_bc]
    backend = OptBackend()
    assert backend._workers() is not None  # resolved before the process path is forced
    processes = _subprocess_only(monkeypatch)
    want = [processes.original_count(path) for path in paths]
    monkeypatch.setattr(OptBackend, "_run", staticmethod(_no_process))
    assert [backend.original_count(path) for path in paths] == want
    assert want[3] == want[0]  # the bitcode counts as its text does


def test_an_empty_forest_prints_the_input_on_both_paths(real_opt, monkeypatch):
    # neither path runs a step: a worker gets none, opt gets no -passes
    empty = PipelineForest(())
    worker = OptBackend().evaluate(NO_TRIPLE, empty)
    processes = _subprocess_only(monkeypatch)
    assert worker.ok and worker == processes.evaluate(NO_TRIPLE, empty)
    assert worker.instruction_count == processes.original_count(NO_TRIPLE)


def test_bitcode_counts_as_its_text_on_both_paths(real_opt, registry, loops_bc, monkeypatch):
    forest = parse_pipeline("module(function(gvn,adce))", registry)
    backends = [OptBackend()]
    assert backends[0]._workers() is not None
    backends.append(_subprocess_only(monkeypatch))
    for backend in backends:
        assert backend.original_count(loops_bc) == backend.original_count(NO_TRIPLE)
        result = backend.evaluate(loops_bc, forest)
        assert result.ok and result == backend.evaluate(NO_TRIPLE, forest)
        assert result.instruction_count < backend.original_count(NO_TRIPLE)


# ---------------------------------------------------------------------------
# Worker lifecycle
# ---------------------------------------------------------------------------

@pytest.fixture
def gvn(registry):
    return parse_pipeline("module(function(gvn))", registry)


@pytest.fixture
def reassociate(registry):
    return parse_pipeline("module(function(reassociate))", registry)


def test_timeout_kills_the_worker_and_the_next_call_succeeds(real_opt, gvn, reassociate):
    backend = OptBackend()
    assert backend.evaluate(NO_TRIPLE, gvn).ok
    (pid,) = _pids(backend)
    backend.timeout = 1e-6
    result = backend.evaluate(NO_TRIPLE, reassociate)  # the index knows gvn's result
    assert result.detail.startswith("timeout after ")
    assert not _alive(pid) and not _pids(backend)
    backend.timeout = 60.0
    assert backend.evaluate(NO_TRIPLE, reassociate) == real_opt.evaluate(NO_TRIPLE, reassociate)


def test_abort_kills_one_worker_and_the_next_call_gets_a_fresh_one(
        real_opt, registry, gvn, reassociate):
    backend = OptBackend()
    assert backend.evaluate(NO_TRIPLE, gvn).ok
    (pid,) = _pids(backend)
    licm = parse_pipeline("module(function(loop(licm)))", registry)
    assert backend.evaluate(NO_TRIPLE, licm).detail.startswith("opt exited -6: ")
    assert not _alive(pid)
    assert backend.evaluate(NO_TRIPLE, reassociate).ok
    assert _pids(backend) and pid not in _pids(backend)


def test_a_repeated_abort_is_answered_and_a_timeout_is_retried(
        real_opt, registry, reassociate, monkeypatch):
    backend = OptBackend()
    licm = parse_pipeline("module(function(loop(licm)))", registry)
    aborted = backend.evaluate(NO_TRIPLE, licm)
    assert aborted.detail.startswith("opt exited -6: ") and not _pids(backend)
    requests = _restored_from(backend, monkeypatch)
    assert backend.evaluate(NO_TRIPLE, licm) == aborted
    assert requests == [] and not _pids(backend)  # no worker was started
    backend.timeout = 1e-6
    assert backend.evaluate(NO_TRIPLE, reassociate).detail.startswith("timeout after ")
    backend.timeout = 60.0
    assert backend.evaluate(NO_TRIPLE, reassociate) == _whole(real_opt, reassociate, NO_TRIPLE)
    assert requests == ["", ""]


def test_a_forest_evaluated_twice_makes_one_worker_request(real_opt, registry, monkeypatch):
    backend = OptBackend()
    requests = _restored_from(backend, monkeypatch)
    forest = parse_pipeline("module(function(gvn),cgscc(inline))", registry)
    first = backend.evaluate(NO_TRIPLE, forest)
    assert first.ok and backend.evaluate(NO_TRIPLE, forest) == first
    assert first == _whole(real_opt, forest, NO_TRIPLE)
    assert requests == [""]


def test_the_parent_receives_a_digest_and_a_count_not_the_module(
        real_opt, registry, monkeypatch):
    forest = parse_pipeline("module(function(gvn),cgscc(inline))", registry)
    want = _whole(real_opt, forest, NO_TRIPLE)
    backend = OptBackend()
    replies = []
    request = backend._workers()._request

    def spy(fields, timeout):
        replies.append(request(fields, timeout))
        return replies[-1]

    def no_count(text):
        raise AssertionError("the parent counted module text")

    monkeypatch.setattr(backend._pool, "_request", spy)
    monkeypatch.setattr(evaluation, "count_ir_instructions", no_count)
    assert backend.evaluate(NO_TRIPLE, forest) == want
    ((kind, payload),) = replies
    assert kind == b"O" and payload[16:] == str(want.instruction_count).encode("utf-8")


def _requests(backend, monkeypatch) -> list:
    """The fields of each later request of ``backend``."""
    requests = []
    request = backend._workers()._request

    def spy(fields, timeout):
        requests.append(fields)
        return request(fields, timeout)

    monkeypatch.setattr(backend._pool, "_request", spy)
    return requests


def test_a_request_carries_the_path_the_state_and_the_steps(real_opt, registry, monkeypatch):
    backend = OptBackend()
    requests = _requests(backend, monkeypatch)
    forest = parse_pipeline("module(function(gvn)),module(cgscc(inline))", registry)
    longer = parse_pipeline("module(function(gvn)),module(cgscc(inline),function(adce))",
                            registry)
    for each in (forest, longer):
        assert backend.evaluate(NO_TRIPLE, each) == _whole(real_opt, each, NO_TRIPLE)
    assert requests[0] == [NO_TRIPLE, "", "function(gvn)", "", "cgscc(inline)", ""]
    # the longer forest reaches both steps of forest the second time and saves them
    path, state, *pairs = requests[1]
    assert (path, state) == (NO_TRIPLE, "")
    assert pairs[::2] == ["function(gvn)", "cgscc(inline)", "function(adce)"]
    assert all(pairs[1:4:2]) and pairs[5] == ""
    assert len(requests) == 2


def test_a_forest_resumed_after_its_last_step_runs_no_step(real_opt, registry, monkeypatch):
    backend = OptBackend()
    head = "module(function(gvn),function(instcombine)"
    # the second longer forest reaches both steps of forest the second time and saves them
    for tail in ("function(reassociate))", "cgscc(inline))"):  # both change the module
        longer = parse_pipeline(f"{head},{tail}", registry)
        assert backend.evaluate(NO_TRIPLE, longer) == _whole(real_opt, longer, NO_TRIPLE)
    forest = parse_pipeline(f"{head})", registry)
    assert _saved(backend, NO_TRIPLE, forest) == 2
    requests = _requests(backend, monkeypatch)
    # the index has the module after the last step in a file, but not its count
    assert backend.evaluate(NO_TRIPLE, forest) == _whole(real_opt, forest, NO_TRIPLE)
    ((path, state),) = requests
    assert path == NO_TRIPLE and state


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
        "longer = parse_pipeline('module(function(gvn),function(reassociate))',"
        " default_registry())\n"
        f"assert backend.evaluate({NO_TRIPLE!r}, forest).ok\n"
        f"assert backend.evaluate({NO_TRIPLE!r}, longer).ok\n"
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
    return result_of(_apply(real_opt, forest, path))


def _restored_from(backend, monkeypatch) -> list:
    """The state file each later request of ``backend`` resumes from ("" for none)."""
    states = []
    request = backend._workers()._request

    def spy(fields, timeout):
        states.append(fields[1])  # path, state, then the steps
        return request(fields, timeout)

    monkeypatch.setattr(backend._pool, "_request", spy)
    return states


def _saved(backend, path, forest) -> int:
    """How many leading units of ``forest`` end, at most, in a module the index has a file of."""
    states = backend._pool.states
    with states._lock:
        units = [step.text for step in module_steps(forest)]
        nodes = states._walk(states.origin(path, file_stamp(path)), units)[0]
    return max((i for i, node in nodes.items() if i and node in states._files), default=0)


@pytest.mark.parametrize("path", [NO_TRIPLE, X86_TRIPLE], ids=["no-triple", "x86-triple"])
def test_resumed_evaluations_match_whole_pipelines(real_opt, registry, path, monkeypatch):
    rng = random.Random(18)
    heads = [random_forest(rng, registry, max_leaves=6) for _ in range(8)]
    forests = heads + [
        PipelineForest(head.trees + random_forest(rng, registry, max_leaves=6).trees)
        for head in heads for _ in range(2)
    ]
    wanted = [_whole(real_opt, forest, path) for forest in forests]
    backend = OptBackend()
    restored = _restored_from(backend, monkeypatch)
    # A state is saved when its prefix is reached the second time, so each
    # head's first longer forest saves the head's states and the second
    # resumes from them. The later rounds are answered by the index.
    for round in range(3):
        if round == 1:
            requests = len(restored)
        for forest, want in zip(forests, wanted):
            assert backend.evaluate(path, forest) == want, print_pipeline(forest)
    assert len(restored) == requests
    resumable = [head for head, want, first in zip(heads, wanted, wanted[len(heads)::2])
                 if want.ok and first.ok]
    assert resumable and all(_saved(backend, path, head) == len(module_steps(head))
                             for head in resumable)
    assert "" in restored and sum(map(bool, restored)) >= len(resumable)


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
    # The index answered that; a longer forest reaches the prefixes a
    # second time in a worker, which saves them and aborts in licm.
    longer = parse_pipeline(f"{head},module(function(loop(licm)),globalopt)", registry)
    assert backend.evaluate(NO_TRIPLE, longer) == _whole(real_opt, longer, NO_TRIPLE)
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
    # the second forest reaches gvn the second time and saves its state
    for pipeline in ("module(function(gvn))", "module(function(gvn),function(reassociate))"):
        backend.evaluate(NO_TRIPLE, parse_pipeline(pipeline, registry))
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
    longer = parse_pipeline("module(function(gvn),function(instcombine),function(reassociate))",
                            registry)
    for each in (forest, longer):  # the longer one saves the states of forest's units
        assert backend.evaluate(str(path), each) == _whole(real_opt, each, NO_TRIPLE)
    assert _saved(backend, str(path), forest) == 2
    restored = _restored_from(backend, monkeypatch)
    assert backend.evaluate(str(path), forest) == _whole(real_opt, forest, NO_TRIPLE)
    assert restored == []  # the index knows every step of forest
    shutil.copy(X86_TRIPLE, path)
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    assert backend.evaluate(str(path), forest) == _whole(real_opt, forest, str(path))
    assert restored == [""]


def test_two_prefixes_that_print_the_same_module_share_one_state(
        real_opt, registry, monkeypatch):
    # memcpyopt and vector-combine leave loops.ll as opt prints it
    backend = OptBackend()
    heads = ("function(memcpyopt)", "function(vector-combine)")
    for head in heads:
        # the second forest reaches the head the second time and saves its state
        for tail in ("function(gvn)", "function(instcombine)"):
            forest = parse_pipeline(f"module({head},{tail})", registry)
            assert backend.evaluate(NO_TRIPLE, forest) == _whole(real_opt, forest, NO_TRIPLE)
    states = backend._pool.states
    ((number, _),) = states._files.values()
    assert os.listdir(states.directory) == [str(number)]
    restored = _restored_from(backend, monkeypatch)
    for head, tail in zip(heads, ("function(reassociate)", "function(adce)")):
        forest = parse_pipeline(f"module({head},{tail})", registry)
        assert backend.evaluate(NO_TRIPLE, forest) == _whole(real_opt, forest, NO_TRIPLE)
    assert restored == [states.file(number)] * 2
    # reassociate's result from that module is known, whichever head reached it
    forest = parse_pipeline(f"module({heads[1]},function(reassociate))", registry)
    assert backend.evaluate(NO_TRIPLE, forest) == _whole(real_opt, forest, NO_TRIPLE)
    assert len(restored) == 2


def test_collecting_the_backend_deletes_its_states(real_opt, registry, gvn):
    backend = OptBackend()
    backend.evaluate(NO_TRIPLE, gvn)
    longer = parse_pipeline("module(function(gvn),function(reassociate))", registry)
    backend.evaluate(NO_TRIPLE, longer)
    directory = backend._pool.states.directory
    assert os.listdir(directory)
    del backend
    assert not os.path.exists(directory)


def _digest(module: bytes) -> bytes:
    return hashlib.blake2b(module, digest_size=16).digest()


def _play(states, origin, units, modules):
    """Plan ``units`` and, unless the index answers, act as a worker.

    The worker prints ``modules[i]`` after ``units[i]``: it writes the
    states the plan saves, and the index learns them and the last module,
    whose count is its first byte. Returns the plan.
    """
    plan = states.plan(origin, units)
    if plan.answer is None:
        for i, number in enumerate(plan.saves, plan.start):
            if number is not None:
                Path(states.file(number)).write_bytes(modules[i])
        states.learn(plan, units, _digest(modules[-1]), modules[-1][0])
    return plan


def _saved_after(states, origin, unit, module) -> str:
    """Reach ``unit`` twice, so that the index saves its state ``module``; the file."""
    _play(states, origin, [unit, "function(adce)"], [module, b"end"])
    return states.file(_play(states, origin, [unit, "function(dse)"], [module, b"end"]).saves[0])


@pytest.fixture
def states():
    """A StateIndex, closed even when the test fails."""
    index = StateIndex()
    yield index
    index.close()


def test_state_index_saves_on_the_second_sighting_and_evicts_least_recently_used(
        states, monkeypatch):
    monkeypatch.setattr(opt_pool, "STATE_BUDGET_BYTES", 250)
    origin = StateIndex.origin("in.ll", (1, 2))
    a, b, c = (letter * 100 for letter in (b"a", b"b", b"c"))
    units = ["globalopt", "function(gvn)"]
    assert _play(states, origin, units, [a, b]) == (None, 0, origin, "", [None, None])
    assert states.plan(origin, units).answer == b[0]  # nothing runs or is saved
    plan = _play(states, origin, ["globalopt", "cgscc(inline)"], [a, c])
    (first, last) = plan.saves  # globalopt's second sighting
    assert first is not None and last is None
    a_file = states.file(first)
    assert states.plan(origin, ["globalopt", "strip"]) == (None, 1, _digest(a), a_file, [None])
    # strip prints the same module as globalopt, so its state shares that file
    for tail in ("function(gvn)", "cgscc(inline)"):
        plan = _play(states, origin, ["strip", tail], [a, c])
    assert plan.saves[0] is not None and not os.path.exists(states.file(plan.saves[0]))
    assert os.listdir(states.directory) == [str(first)]
    assert states.plan(origin, ["strip", "function(sroa)"])[1:4] == (1, _digest(a), a_file)
    # 300 bytes of states evict the least recently used one
    b_file = _saved_after(states, origin, "function(sroa)", b)
    states.plan(origin, ["globalopt"])  # a is now more recent than b
    c_file = _saved_after(states, origin, "function(gvn)", c)
    assert not os.path.exists(b_file) and os.path.exists(a_file) and os.path.exists(c_file)
    states.close()
    assert not os.path.exists(states.directory)


def test_state_index_counts_an_answered_pipeline_as_a_sighting(states):
    origin = StateIndex.origin("in.ll", (1, 2))
    a, ac = b"a" * 10, b"c" * 10
    _play(states, origin, ["globalopt", "strip"], [a, b"b"])
    _play(states, origin, ["globalopt", "function(gvn)"], [a, ac])  # saves a
    # The index answers this from a's state; it is the first sighting of
    # gvn after a, so the worker that next runs gvn after a saves its state.
    assert _play(states, origin, ["globalopt", "function(gvn)"], [a, ac]).answer == ac[0]
    plan = _play(states, origin, ["globalopt", "function(gvn)", "function(adce)"],
                 [a, ac, b"d"])
    assert plan.start == 1 and plan.saves[0] is not None
    assert states.plan(origin, ["globalopt", "function(gvn)", "strip"])[1:3] == (2, _digest(ac))


@pytest.mark.parametrize("code, kept", [(1, True), (-6, True), (-9, False), (-11, False)])
def test_only_failures_that_opt_repeats_are_answered(code, kept, monkeypatch):
    pool = opt_pool.WorkerPool("opt", "libLLVM.so")
    requests = []

    def fake(fields, timeout):
        requests.append(fields)
        return b"E", f"{code}\nLLVM ERROR: boom\n".encode("utf-8")

    monkeypatch.setattr(pool, "_request", fake)
    try:
        for _ in range(2):
            outcome = pool.run("in.ll", (1, 2), ["globalopt"], 60.0)
            assert outcome == f"opt exited {code}: LLVM ERROR: boom"
    finally:
        pool.close()
    assert len(requests) == (1 if kept else 2)


def test_state_index_keeps_failures_that_recur_and_answers_only_where_they_end(states):
    origin = StateIndex.origin("in.ll", (1, 2))
    aborts = ["function(gvn)", "function(loop(licm))"]
    detail = "opt exited -6: LLVM ERROR: LICM requires MemorySSA (loop-mssa)"
    states.learn(states.plan(origin, aborts), aborts, None, detail)
    assert states.plan(origin, aborts).answer == detail
    # A pass after the abort could fail first when opt parses the
    # pipeline. gvn's second sighting in a worker saves its state, but
    # that worker aborts in gvn and writes no file: the failure is
    # learned from the origin.
    longer = aborts + ["strip"]
    plan = states.plan(origin, longer)
    assert plan.answer is None and plan.saves[0] is not None
    states.learn(plan, longer, None, detail)
    assert states.plan(origin, longer)[:2] == (detail, 0) and not states._files
    timeout = ["function(sroa)"]
    states.learn(states.plan(origin, timeout), timeout)  # nothing to keep
    assert states.plan(origin, timeout).answer is None


def test_state_index_keeps_at_most_key_limit_keys_per_table(states, monkeypatch):
    monkeypatch.setattr(opt_pool, "KEY_LIMIT", 1)
    origin = StateIndex.origin("in.ll", (1, 2))
    for unit in ("globalopt", "strip", "globalopt"):  # seeing strip forgets globalopt
        assert states.plan(origin, [unit]).saves == [None]

    def save(unit, module):
        number = next(states._numbers)
        Path(states.file(number)).write_bytes(module)
        states.learn(opt_pool.Plan(None, 0, origin, "", [number]), [unit])
        return states.file(number)

    first = save("globalopt", b"o")
    second = save("strip", b"s")  # evicts globalopt's segment and file
    assert not os.path.exists(first) and os.path.exists(second)
    assert states.plan(origin, ["strip"]).start == 1
    assert states.plan(origin, ["globalopt"]).start == 0
    for count, unit in enumerate(("function(gvn)", "function(sroa)")):
        states.learn(states.plan(origin, [unit]), [unit], _digest(unit.encode()), count)
    assert states.plan(origin, ["function(sroa)"]).answer == 1
    assert states.plan(origin, ["function(gvn)"]).answer is None
    assert all(len(table) == 1 for table in (
        states._segments, states._counts, states._files, states._seen))


def test_state_keys_name_the_input_its_stamp_and_each_prefix():
    origin = StateIndex.origin("in.ll", (1, 2))
    for path, stamp in (("other.ll", (1, 2)), ("in.ll", (1, 3)), ("in.ll", (2, 2))):
        assert StateIndex.origin(path, stamp) != origin
    units = ["globalopt", "function(gvn)"]
    keys = StateIndex.keys(origin, units)
    assert len(set(keys)) == 2
    assert StateIndex.keys(origin, units[:1]) == keys[:1]
    assert not set(StateIndex.keys(_digest(b"a module"), units)) & set(keys)
    assert StateIndex.keys(origin, ["function(gvn)", "globalopt"])[1] != keys[1]


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
