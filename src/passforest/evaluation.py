"""The evaluation contract: apply a pipeline, report an instruction count.

Two backends implement it: the mock simulator (``mock`` module) and
``OptBackend``, defined here, which is the only code that runs ``opt``.
Backends are safe for concurrent independent invocations and results
never depend on invocation interleaving. One forest is evaluated with
``backend.evaluate``; mining, search and refinement fan out through
``Evaluator.map``, which memoizes by pipeline string. ``map`` fans
``opt`` calls out to a thread pool, since each one waits on another
process: a long-lived libLLVM worker (``opt_worker``) when the ``opt``
binary links a usable libLLVM, else one ``opt`` process per call. The
mock is pure Python and always runs serially, since threads would only
contend for the GIL.

With workers, ``OptBackend`` cuts each forest into units, the children
of its module managers (``module_units``), and resumes each evaluation
from the longest leading run of units whose module state a worker has
saved before: ``opt_pool.StateIndex`` keeps those states as files,
keyed by the input's path, size and modification time and the printed
units, and every worker of the backend reads them.
"""

import math
import os
import subprocess
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .errors import BackendUnavailable, MalformedIR
from .forest import Manager, PipelineForest
from .grammar import print_pipeline
from .registry import PassLevel

OPT_PATH_ENV_VAR = "PASSFOREST_OPT"
DEFAULT_OPT_TIMEOUT = 60.0


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of one pipeline application.

    ``status`` is "ok" or "failed"; a failed result carries a diagnostic
    in ``detail`` and is treated as worst-possible fitness by searches.
    """

    instruction_count: Optional[int]
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Evaluator:
    """Memoized, optionally threaded evaluation of forests on one program.

    Results are memoized by canonical pipeline string, so a pipeline
    reaches the backend at most once per evaluator, however often it is
    submitted. ``results`` maps each evaluated string to its result and
    ``forests`` to the first forest submitted under it.
    """

    def __init__(self, backend, program, parallel: int = 1):
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        self.backend = backend
        self.program = program
        self.parallel = parallel
        self.results: Dict[str, EvaluationResult] = {}
        self.forests: Dict[str, PipelineForest] = {}

    def map(self, forests: Sequence[PipelineForest]) -> List[EvaluationResult]:
        """Evaluate every forest not yet seen; results in input order.

        With ``parallel > 1``, more than one pending forest and a backend
        other than the mock, backend calls run on a thread pool; the
        results do not depend on it. The policy reads ``backend.name``,
        so wrappers that forward ``name`` get the same policy.
        """
        keys = [print_pipeline(forest) for forest in forests]
        pending: Dict[str, PipelineForest] = {}
        for key, forest in zip(keys, forests):
            if key not in self.results and key not in pending:
                pending[key] = forest
        todo = list(pending.values())
        if self.parallel > 1 and len(todo) > 1 and self.backend.name != "mock":
            with ThreadPoolExecutor(max_workers=self.parallel) as pool:
                fresh = list(pool.map(self._evaluate, todo))
        else:
            fresh = [self._evaluate(forest) for forest in todo]
        self.results.update(zip(pending, fresh))
        self.forests.update(pending)
        return [self.results[key] for key in keys]

    def _evaluate(self, forest: PipelineForest) -> EvaluationResult:
        return self.backend.evaluate(self.program, forest)


def count_ir_instructions(ir_text: str) -> int:
    """Count instruction lines in textual IR as printed by ``opt -S``.

    A line counts iff it is inside a ``define ... { ... }`` body and,
    after stripping whitespace and any trailing ``;`` comment, is not
    blank, not a label (ends with ``:``), not the ``define`` line, and
    not the closing ``}``. Unbalanced bodies raise MalformedIR. The rule
    is frozen so counts are comparable across runs.
    """
    count = 0
    in_body = False
    for raw in ir_text.splitlines():
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        opens_body = line.startswith("define") and line.endswith("{")
        if not in_body:
            if opens_body:
                in_body = True
            elif line == "}":
                raise MalformedIR("'}' outside any function body")
            continue
        if opens_body:
            raise MalformedIR("'define' inside an open function body")
        if line == "}":
            in_body = False
            continue
        code = line.split(";", 1)[0].strip()
        if not code or code.endswith(":"):
            continue
        count += 1
    if in_body:
        raise MalformedIR("unterminated function body")
    return count


def module_units(forest: PipelineForest) -> List[str]:
    """The printed children of the forest's module managers, in order.

    A module manager runs its children one after another, each over the
    whole module, so ``module(A,B),module(C)`` runs as
    ``module(A),module(B),module(C)`` does. A nested module manager is
    cut into its own children. The module after any leading run of units
    depends only on the input and those units' text.
    """
    units: List[str] = []

    def cut(nodes) -> None:
        for node in nodes:
            if node.__class__ is Manager and node.level == PassLevel.MODULE:
                cut(node.children)
            else:
                units.append(node.text)

    cut(forest.trees)
    return units


def resolve_opt_path(explicit: Optional[str] = None) -> str:
    return explicit or os.environ.get(OPT_PATH_ENV_VAR) or "opt"


def _failed(detail: str) -> EvaluationResult:
    return EvaluationResult(instruction_count=None, status="failed", detail=detail)


def result_of(proc: subprocess.CompletedProcess) -> EvaluationResult:
    """The result of one ``opt -S`` run: its output's count, or why it failed."""
    if proc.returncode != 0:
        # An abort prints its diagnostic first and stack frames after it.
        lines = [line.strip() for line in proc.stderr.splitlines()]
        first = next((line for line in lines if line), "")
        return _failed(f"opt exited {proc.returncode}: {first}")
    try:
        count = count_ir_instructions(proc.stdout)
    except MalformedIR as exc:
        return _failed(str(exc))
    return EvaluationResult(instruction_count=count, status="ok")


def check_timeout(timeout: float) -> None:
    """Raise ValueError unless ``timeout`` is a finite number of seconds > 0."""
    number = isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
    if not (number and math.isfinite(timeout) and timeout > 0):
        raise ValueError(
            f"timeout must be a finite number of seconds > 0, got {timeout!r}"
        )


@dataclass
class OptBackend:
    """Evaluation backend that runs pipelines the way LLVM ``opt`` does.

    The binary is taken from the constructor, the PASSFOREST_OPT
    environment variable, or PATH lookup of ``opt``, in that order. A
    missing ``opt`` executable raises BackendUnavailable. When the binary
    links a libLLVM with the New Pass Manager C API, pipelines run in
    long-lived ``opt_worker`` processes that load it, started on the
    first evaluation and killed with the backend; otherwise each
    evaluation runs one ``opt`` process. Both give the same counts and
    failure details. With workers, ``evaluate`` resumes from the longest
    leading run of ``module_units`` whose state is saved, and saves the
    state after a run it reaches the second time; the states live in
    files that are deleted with the backend. ``timeout`` must be a finite
    number of seconds > 0.
    """

    opt_path: Optional[str] = None
    timeout: float = DEFAULT_OPT_TIMEOUT
    name: str = field(default="opt", init=False)

    def __post_init__(self):
        check_timeout(self.timeout)
        self._lock = threading.Lock()
        self._pool = None
        self._states = None
        self._pool_resolved = False
        # original_count's memo: (path, size, mtime in ns) -> count
        self._counts: Dict[tuple, int] = {}

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        """Run ``opt -S <args> -o -``; a timeout raises TimeoutExpired."""
        opt = resolve_opt_path(self.opt_path)
        cmd = [opt, "-S", *args, "-o", "-"]
        try:
            return subprocess.run(
                cmd, capture_output=True, text=True, timeout=self.timeout
            )
        except FileNotFoundError as exc:
            raise BackendUnavailable(f"opt executable not found: {opt!r}") from exc

    def _workers(self):
        """The ``opt_pool.WorkerPool``; None without a usable libLLVM."""
        with self._lock:
            if not self._pool_resolved:
                self._pool_resolved = True
                # Imported here, so that only a backend that evaluates
                # compiles and loads the pool code.
                from . import opt_pool

                opt = resolve_opt_path(self.opt_path)
                library = opt_pool.linked_libllvm(opt)
                if library is not None:
                    self._pool = opt_pool.WorkerPool(opt, library)
                    self._states = opt_pool.StateIndex()
                    weakref.finalize(self, self._pool.close)
                    weakref.finalize(self, self._states.close)
        return self._pool if self._pool is not None and self._pool.usable else None

    def _apply(self, pipeline: str, path: str) -> subprocess.CompletedProcess:
        """``opt -S -passes=<pipeline> <path> -o -``, in a worker if possible."""
        pool = self._workers()
        proc = pool.run(path, pipeline, self.timeout) if pool is not None else None
        return proc if proc is not None else self._run(f"-passes={pipeline}", path)

    def _apply_units(self, forest: PipelineForest, path: str, stamp: tuple):
        """``_apply(print_pipeline(forest), path)``, resumed from a saved state.

        ``stamp`` is the input's (size, modification time in ns). The
        worker starts from the longest saved prefix of the forest's
        units and saves the states ``StateIndex.plan`` asks for. A state
        that does not parse is dropped, and the whole pipeline runs from
        the input instead.
        """
        pipeline = print_pipeline(forest)
        pool = self._workers()
        if pool is None:
            return self._apply(pipeline, path)
        units = module_units(forest)
        states = self._states
        keys = states.keys(path, stamp, units)
        done, state, saves = states.plan(keys)
        saved = [(key, number) for key, number in zip(keys[done:], saves) if number is not None]
        steps = None
        if state or saved:
            steps = [(unit, "" if number is None else states.file(number))
                     for unit, number in zip(units[done:], saves)]
        try:
            proc = pool.run(path, pipeline, self.timeout, state, steps)
        finally:
            states.add(saved)
        if proc is not None:
            return proc
        if pool.usable:  # the state did not parse
            states.drop(keys[done - 1], state)
        return self._apply(pipeline, path)

    def evaluate(self, program, forest: PipelineForest) -> EvaluationResult:
        """Apply the pipeline as ``opt -S -passes=<pipeline>`` does; count output.

        A missing input, a timeout, a nonzero exit and unbalanced output
        come back as failed results.
        """
        path = Path(program)
        try:
            stat = path.stat()
        except (OSError, ValueError):
            return _failed(f"input file not found: {path}")
        try:
            proc = self._apply_units(forest, str(path), (stat.st_size, stat.st_mtime_ns))
        except subprocess.TimeoutExpired as exc:
            return _failed(f"timeout after {self.timeout:g}s: {' '.join(exc.cmd)}")
        return result_of(proc)

    def original_count(self, program) -> int:
        """Instruction count of the input as ``opt -S`` prints it.

        Both ``.ll`` and ``.bc`` inputs are counted on that printing, the
        text every evaluation's output is counted on, so hand-written
        layouts (a trailing comment on a ``define`` line, a brace on its
        own line) count as ``opt`` reads them. The count is memoized per
        path, size and modification time, so the stages of one tune run
        ``opt`` for it once.
        """
        path = Path(program)
        if not path.exists():
            raise BackendUnavailable(f"input file not found: {path}")
        stat = path.stat()
        key = (str(path), stat.st_size, stat.st_mtime_ns)
        count = self._counts.get(key)
        if count is None:
            what = "disassembling" if path.suffix == ".bc" else "reading"
            try:
                proc = self._run(str(path))
            except subprocess.TimeoutExpired as exc:
                raise BackendUnavailable(f"timeout {what} {path}") from exc
            if proc.returncode != 0:
                raise BackendUnavailable(f"opt exited {proc.returncode} {what} {path}")
            count = self._counts[key] = count_ir_instructions(proc.stdout)
        return count
