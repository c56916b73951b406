"""The evaluation contract: apply a pipeline, report an instruction count.

Two backends implement it: the mock simulator (``mock`` module) and an
external ``opt`` subprocess runner defined here. Backends are safe for
concurrent independent invocations and results never depend on
invocation interleaving.
"""

import os
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .errors import BackendUnavailable, InvalidPipeline, MalformedIR
from .forest import PipelineForest, validate
from .grammar import print_pipeline
from .registry import PassRegistry

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


@dataclass(frozen=True)
class EvaluationRequest:
    program: object
    pipeline: PipelineForest


def evaluate(
    request: EvaluationRequest,
    backend,
    registry: Optional[PassRegistry] = None,
) -> EvaluationResult:
    """Validate the pipeline, then hand it to the backend.

    Raises InvalidPipeline before the backend is ever invoked when the
    forest breaks a nesting rule (or, with a registry, names an unknown
    or mistyped pass).
    """
    violations = validate(request.pipeline, registry)
    if violations:
        raise InvalidPipeline(violations)
    return backend.evaluate(request.program, request.pipeline)


class Evaluator:
    """Memoized, optionally threaded evaluation of forests on one program.

    Results are memoized by canonical pipeline string, so a pipeline
    reaches the backend at most once per evaluator, however often it is
    submitted. ``results`` maps each evaluated string to its result and
    ``forests`` to the first forest submitted under it.
    """

    def __init__(self, backend, program, parallel: int = 1):
        self.backend = backend
        self.program = program
        self.parallel = parallel
        self.results: Dict[str, EvaluationResult] = {}
        self.forests: Dict[str, PipelineForest] = {}

    def map(self, forests: Sequence[PipelineForest]) -> List[EvaluationResult]:
        """Evaluate every forest not yet seen; results in input order.

        With ``parallel > 1`` and more than one pending forest, backend
        calls run on a thread pool; the results do not depend on it.
        """
        keys = [print_pipeline(forest) for forest in forests]
        pending: Dict[str, PipelineForest] = {}
        for key, forest in zip(keys, forests):
            if key not in self.results and key not in pending:
                pending[key] = forest
        todo = list(pending.values())
        if self.parallel > 1 and len(todo) > 1:
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


def resolve_opt_path(explicit: Optional[str] = None) -> str:
    return explicit or os.environ.get(OPT_PATH_ENV_VAR) or "opt"


def opt_backend_evaluate(
    ir_file: Union[str, Path],
    pipeline_string: str,
    opt_path: Optional[str] = None,
    timeout: float = DEFAULT_OPT_TIMEOUT,
) -> EvaluationResult:
    """Run ``opt -S -passes=<pipeline> <ir_file> -o -`` and count output.

    Nonzero exit and timeouts come back as failed results; a missing
    ``opt`` executable raises BackendUnavailable.
    """
    opt = resolve_opt_path(opt_path)
    cmd = [opt, "-S", f"-passes={pipeline_string}", str(ir_file), "-o", "-"]
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except FileNotFoundError as exc:
        raise BackendUnavailable(f"opt executable not found: {opt!r}") from exc
    except subprocess.TimeoutExpired:
        return EvaluationResult(
            instruction_count=None,
            status="failed",
            detail=f"timeout after {timeout:.0f}s: {' '.join(cmd)}",
        )
    if proc.returncode != 0:
        # An abort prints its diagnostic first and stack frames after it.
        lines = [line.strip() for line in proc.stderr.splitlines()]
        first = next((line for line in lines if line), "")
        return EvaluationResult(
            instruction_count=None,
            status="failed",
            detail=f"opt exited {proc.returncode}: {first}",
        )
    try:
        count = count_ir_instructions(proc.stdout)
    except MalformedIR as exc:
        return EvaluationResult(
            instruction_count=None, status="failed", detail=str(exc)
        )
    return EvaluationResult(instruction_count=count, status="ok")


@dataclass
class OptBackend:
    """Evaluation backend that shells out to an LLVM ``opt`` binary.

    The binary is taken from the constructor, the PASSFOREST_OPT
    environment variable, or PATH lookup of ``opt``, in that order.
    """

    opt_path: Optional[str] = None
    timeout: float = DEFAULT_OPT_TIMEOUT
    name: str = field(default="opt", init=False)

    def evaluate(self, program, forest: PipelineForest) -> EvaluationResult:
        path = Path(program)
        if not path.exists():
            return EvaluationResult(
                instruction_count=None,
                status="failed",
                detail=f"input file not found: {path}",
            )
        return opt_backend_evaluate(
            path, print_pipeline(forest), self.opt_path, self.timeout
        )

    def original_count(self, program) -> int:
        path = Path(program)
        if not path.exists():
            raise BackendUnavailable(f"input file not found: {path}")
        if path.suffix == ".bc":
            opt = resolve_opt_path(self.opt_path)
            cmd = [opt, "-S", str(path), "-o", "-"]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=self.timeout
                )
            except FileNotFoundError as exc:
                raise BackendUnavailable(
                    f"opt executable not found: {opt!r}"
                ) from exc
            except subprocess.TimeoutExpired as exc:
                raise BackendUnavailable(f"timeout disassembling {path}") from exc
            if proc.returncode != 0:
                raise BackendUnavailable(
                    f"opt exited {proc.returncode} disassembling {path}"
                )
            return count_ir_instructions(proc.stdout)
        return count_ir_instructions(path.read_text(encoding="utf-8"))
