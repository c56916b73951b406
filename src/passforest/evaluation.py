"""The evaluation contract: apply a pipeline, report an instruction count.

Two backends implement it: the mock simulator (``mock`` module) and
``OptBackend``, defined here, which is the only code that runs ``opt``.
Backends are safe for concurrent independent invocations and results
never depend on invocation interleaving. One forest is evaluated with
``backend.evaluate``; mining, search and refinement fan out through
``Evaluator.map``, which memoizes by pipeline string. ``map`` runs
``opt`` calls concurrently, since each one waits on another process: a
long-lived libLLVM worker (``opt_worker``) when the ``opt`` binary links
a usable libLLVM, else one ``opt`` process per call. The calling
thread evaluates forests itself, with up to ``parallel - 1`` helper
threads beside it taking the next pending forest in turn; the first
exception from any call stops every thread from taking another, and
``map`` raises it. Threads only help while calls wait: after a map in
which this process computed for at least half the wall time (an
``opt_pool`` index answer is pure Python), the evaluator's next map runs
on the calling thread alone, and a map that waited more turns the
helpers back on. The mock is pure Python and always runs serially on the calling
thread, since threads would only contend for the GIL.

``OptBackend`` runs the texts of the forest's module-level steps
(``forest.module_steps``) as ``opt -passes=module(<steps>)``, which
prints what ``opt -passes=<pipeline>`` prints; the input's own count is
the count after no steps. With workers, the steps go to the
``opt_pool.WorkerPool``. The reply is already counted: a
worker runs the line rule (``opt_worker.instruction_count``) on what it
printed and sends back the count and a digest of the module, not its
text. The pool's ``StateIndex`` is keyed by module content. Starting
from the input's path and ``file_stamp``, it knows which module each run
of steps printed, the count of each final module and the files workers
saved modules to. A forest whose every step is known is answered without
a worker; any other resumes from the deepest known module with a file.
"""

import math
import os
import subprocess
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BackendUnavailable, MalformedIR
from .forest import PipelineForest, module_steps
from .grammar import print_pipeline

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
    """Memoized, optionally concurrent evaluation of forests on one program.

    Results are memoized by canonical pipeline string, so a pipeline
    reaches the backend at most once per evaluator, however often it is
    submitted. ``results`` maps each evaluated string to its result and
    ``forests`` to the first forest submitted under it. At most
    ``parallel`` backend calls are in flight at once, one of them on the
    calling thread. Helper threads run only while maps wait more than
    they compute (see ``map``).
    """

    def __init__(self, backend, program, parallel: int = 1):
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        self.backend = backend
        self.program = program
        self.parallel = parallel
        self.results: Dict[str, EvaluationResult] = {}
        self.forests: Dict[str, PipelineForest] = {}
        # Whether the last map that could use helpers waited for more
        # than half its wall time; True before the first.
        self._waited = True

    def map(self, forests: Sequence[PipelineForest]) -> List[EvaluationResult]:
        """Evaluate every forest not yet seen; results in input order.

        With ``parallel > 1``, more than one pending forest and a backend
        other than the mock, the calling thread and
        ``min(parallel, pending) - 1`` helper threads each take the next
        pending forest until none is left; every result goes to its
        forest's slot, so the results do not depend on timing. The policy
        reads ``backend.name``, so wrappers that forward ``name`` get the
        same policy. The helpers start only if the last such map of this
        evaluator, if any, computed in this process (``time.process_time``
        over all threads) for less than half its wall time; otherwise its
        calls did not wait, helpers would only contend for the GIL, and
        the calling thread takes every forest. The first exception a
        backend call raises (a ``KeyboardInterrupt`` on the calling thread
        included) stops every thread from taking another forest; ``map``
        raises it once the helpers have finished, and the memo is left
        unchanged.
        """
        keys = [print_pipeline(forest) for forest in forests]
        pending: Dict[str, PipelineForest] = {}
        for key, forest in zip(keys, forests):
            if key not in self.results and key not in pending:
                pending[key] = forest
        todo = list(pending.values())
        threads = min(self.parallel, len(todo))
        if threads > 1 and self.backend.name != "mock":
            cpu, wall = time.process_time(), time.perf_counter()
            fresh = self._evaluate_on(threads if self._waited else 1, todo)
            wall = time.perf_counter() - wall
            self._waited = time.process_time() - cpu < wall / 2
        else:
            fresh = [self._evaluate(forest) for forest in todo]
        self.results.update(zip(pending, fresh))
        self.forests.update(pending)
        return [self.results[key] for key in keys]

    def _evaluate(self, forest: PipelineForest) -> EvaluationResult:
        return self.backend.evaluate(self.program, forest)

    def _evaluate_on(
        self, threads: int, todo: List[PipelineForest]
    ) -> List[EvaluationResult]:
        """Evaluate ``todo`` on the calling thread and ``threads - 1`` helpers."""
        fresh: list = [None] * len(todo)
        indices = iter(range(len(todo)))
        lock = threading.Lock()
        raised: List[BaseException] = []

        def work():
            try:
                while True:
                    with lock:
                        index = None if raised else next(indices, None)
                    if index is None:
                        return
                    fresh[index] = self._evaluate(todo[index])
            except BaseException as exc:  # handed to the caller, which raises it
                with lock:
                    raised.append(exc)

        helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
        for helper in helpers:
            helper.start()
        work()
        for helper in helpers:
            helper.join()
        if raised:
            raise raised[0]
        return fresh


def count_ir_instructions(ir_text: str) -> int:
    """Count instruction lines in textual IR as printed by ``opt -S``.

    The frozen line rule is ``opt_worker.instruction_count``, which the
    workers run on what they print; unbalanced bodies raise MalformedIR.
    """
    # Imported here, so that importing passforest does not compile the
    # worker module (about 3 ms when no bytecode is cached).
    from .opt_worker import instruction_count

    count = instruction_count(ir_text)
    if count.__class__ is str:
        raise MalformedIR(count)
    return count


def file_stamp(path) -> Tuple[int, int]:
    """A file's (size, modification time in ns), which changes when it is rewritten.

    Every cache of a file's content is keyed by it. Raises OSError when
    the file cannot be read and ValueError for a path the system rejects.
    """
    stat = os.stat(path)
    return stat.st_size, stat.st_mtime_ns


def resolve_opt_path(explicit: Optional[str] = None) -> str:
    return explicit or os.environ.get(OPT_PATH_ENV_VAR) or "opt"


def _failed(detail: str) -> EvaluationResult:
    return EvaluationResult(instruction_count=None, status="failed", detail=detail)


def exit_detail(code: int, stderr: str) -> str:
    """The failure detail of an ``opt`` run that exited ``code``."""
    # An abort prints its diagnostic first and stack frames after it.
    lines = [line.strip() for line in stderr.splitlines()]
    first = next((line for line in lines if line), "")
    return f"opt exited {code}: {first}"


def result_of(proc: subprocess.CompletedProcess) -> EvaluationResult:
    """The result of one ``opt -S`` run: its output's count, or why it failed."""
    if proc.returncode != 0:
        return _failed(exit_detail(proc.returncode, proc.stderr))
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
    evaluation runs one ``opt`` process. Both paths run a list of step
    texts, a forest's ``module_steps`` or none for ``original_count``,
    in ``_apply``, and give the same counts and failure details, a
    timeout's included. The pool answers steps it has seen from the input
    before, resumes others from the deepest saved module their walk
    reaches, and saves the state after a run it reaches the second time;
    the states live in files deleted with the backend. ``timeout`` must
    be a finite number of seconds > 0.
    """

    opt_path: Optional[str] = None
    timeout: float = DEFAULT_OPT_TIMEOUT
    name: str = field(default="opt", init=False)

    def __post_init__(self):
        check_timeout(self.timeout)
        self._lock = threading.Lock()
        self._pool = None
        self._pool_resolved = False
        # original_count's memo: (path, size, mtime in ns) -> count
        self._counts: Dict[tuple, int] = {}

    def _command(self, path: str, steps: Sequence[str]) -> List[str]:
        """``opt -S -passes=module(<steps>) <path> -o -``; no ``-passes`` for no steps."""
        passes = [f"-passes=module({','.join(steps)})"] if steps else []
        return [resolve_opt_path(self.opt_path), "-S", *passes, path, "-o", "-"]

    def _run(self, cmd: List[str]) -> subprocess.CompletedProcess:
        """Run the ``opt`` command line ``cmd``; a timeout raises TimeoutExpired."""
        try:
            return subprocess.run(cmd, capture_output=True, text=True, timeout=self.timeout)
        except FileNotFoundError as exc:
            raise BackendUnavailable(f"opt executable not found: {cmd[0]!r}") from exc

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
                    weakref.finalize(self, self._pool.close)
        return self._pool if self._pool is not None and self._pool.usable else None

    def _apply(self, path: str, steps: Sequence[str]) -> EvaluationResult:
        """What ``_command(path, steps)`` prints, counted, from one worker or one process.

        A missing input, a timeout, a nonzero exit and unbalanced output
        come back as failed results.
        """
        try:
            stamp = file_stamp(path)
        except (OSError, ValueError):
            return _failed(f"input file not found: {path}")
        cmd = self._command(path, steps)
        pool = self._workers()
        try:
            outcome = None if pool is None else pool.run(path, stamp, steps, self.timeout)
            if outcome is None:
                return result_of(self._run(cmd))
        except (TimeoutError, subprocess.TimeoutExpired):
            return _failed(f"timeout after {self.timeout:g}s: {' '.join(cmd)}")
        if outcome.__class__ is str:
            return _failed(outcome)
        return EvaluationResult(instruction_count=outcome, status="ok")

    def evaluate(self, program, forest: PipelineForest) -> EvaluationResult:
        """Apply the pipeline as ``opt -S -passes=<pipeline>`` does; count output."""
        return self._apply(str(Path(program)), [step.text for step in module_steps(forest)])

    def original_count(self, program) -> int:
        """Instruction count of the input as ``opt -S`` prints it, after no steps.

        Both ``.ll`` and ``.bc`` inputs are counted on that printing, the
        text every evaluation's output is counted on, so hand-written
        layouts (a trailing comment on a ``define`` line, a brace on its
        own line) count as ``opt`` reads them. The count is memoized per
        path, size and modification time, so the stages of one tune run
        it once. A failure raises BackendUnavailable naming the file.
        """
        path = str(Path(program))
        try:
            key = (path, *file_stamp(path))
        except (OSError, ValueError) as exc:
            raise BackendUnavailable(f"input file not found: {path}") from exc
        count = self._counts.get(key)
        if count is None:
            result = self._apply(path, [])
            if not result.ok:
                raise BackendUnavailable(f"cannot count {path}: {result.detail}")
            count = self._counts[key] = result.instruction_count
        return count
