"""The libLLVM worker path of OptBackend, against the real ``opt`` it links.

Tests that need LLVM skip when no ``opt`` is found (``PASSFOREST_OPT``,
then PATH) or when its libLLVM lacks ``LLVMRunPasses``. The rest run
everywhere and pin when the subprocess path is chosen.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from passforest import (
    OptBackend,
    default_registry,
    load_registry,
    parse_pipeline,
    print_pipeline,
    random_forest,
)
from passforest import evaluation, opt_pool
from passforest.evaluation import resolve_opt_path
from passforest.opt_pool import linked_libllvm

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
    backend._apply("module(function(instcombine))", NO_TRIPLE)
    if backend._workers() is None:
        pytest.skip("the libLLVM that opt links has no LLVMRunPasses")
    return backend


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
        got = real_opt._apply(pipeline, path)
        want = _reference(pipeline, path)
        assert got.returncode == want.returncode, pipeline
        assert got.stdout == want.stdout, pipeline
        assert _first_line(got.stderr) == _first_line(want.stderr), pipeline


def test_worker_builds_the_target_machine_from_the_triple(real_opt):
    printed = real_opt._apply("module(function(slp-vectorizer))", X86_TRIPLE).stdout
    assert printed.count("sdiv i32") == 4 and "add <4 x i32>" in printed


def _subprocess_only(monkeypatch):
    monkeypatch.setattr(opt_pool, "linked_libllvm", lambda opt: None)
    return OptBackend()


@pytest.mark.parametrize(
    "registry_text, pipeline",
    [
        (None, "module(function(loop(licm)))"),
        ("nosuchpass=function\n", "module(function(nosuchpass))"),
    ],
    ids=["licm-abort", "pass-opt-lacks"],
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
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from passforest import OptBackend, default_registry, parse_pipeline\n"
        "backend = OptBackend()\n"
        "forest = parse_pipeline('module(function(gvn))', default_registry())\n"
        f"assert backend.evaluate({NO_TRIPLE!r}, forest).ok\n"
        "print(' '.join(str(w.proc.pid) for w in backend._pool._live))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert pids and not any(_alive(pid) for pid in pids)


def test_parallel_requests_use_at_most_that_many_workers(real_opt, registry):
    backend = OptBackend()
    rng = random.Random(5)
    forests = [random_forest(rng, registry, max_leaves=6) for _ in range(12)]
    serial = [real_opt.evaluate(NO_TRIPLE, forest) for forest in forests]
    assert evaluation.Evaluator(backend, NO_TRIPLE, parallel=2).map(forests) == serial
    assert len(_pids(backend)) <= 2


# ---------------------------------------------------------------------------
# Choosing the subprocess path
# ---------------------------------------------------------------------------

def test_no_library_for_scripts_and_missing_binaries(tmp_path):
    assert linked_libllvm(helpers.write_script(tmp_path / "opt", "exit 0\n")) is None
    assert linked_libllvm(str(tmp_path / "missing")) is None
    assert linked_libllvm(sys.executable) is None


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
