"""The three benchmark workloads: set-up, one seeded tune, and its checks.

A tune calls the public library API the way the README's *Library*
section shows it: ``mine_synergies`` → ``run_search`` → ``refine`` (the
refine-only workload starts from a checked-in seed pipeline instead).
"""

import hashlib
import json
import shutil
import subprocess
import time
from dataclasses import dataclass
from typing import List, Optional

import passforest as pf
from passforest.evaluation import resolve_opt_path

import fixtures
from tracing import ProxyBackend, Tracer

DATA_DIR = fixtures.FIXTURE_DIR


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "mock" or "opt"
    program: str  # file under DATA_DIR
    parallel: int
    # GA seeds one benchmark run cycles through (see bench/run.py).
    subseeds: int
    # GA size; None for the refine-only workload.
    population: Optional[int] = None
    generations: Optional[int] = None
    max_len: Optional[int] = None
    refine_budget: int = pf.RefineConfig().exhaustive_budget


# Why each workload exists is recorded in BENCHMARK.json. In short:
# mock-tune is where the mock simulator, the GA and any memo do their
# work; opt-tune is dominated by opt subprocesses, so a pure-Python
# speed-up should not move it; mock-refine-wide makes refine's own work
# (decode, repeated print_pipeline, the dedupe) dominate.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mock-tune", "mock", "mock_tune.json", parallel=2, subseeds=8,
                 population=50, generations=20, max_len=24, refine_budget=256),
        Workload("opt-tune", "opt", "checksum.ll", parallel=2, subseeds=4,
                 population=30, generations=12, max_len=8),
        Workload("mock-refine-wide", "mock", "mock_refine_wide.json", parallel=1, subseeds=8),
    )
}

REFINE_SEED_FILE = DATA_DIR / "refine_wide_seed.json"
OPT_EXPECTED_FILE = DATA_DIR / "checksum.expected.json"


@dataclass
class Context:
    workload: Workload
    registry: pf.PassRegistry
    program: object  # MockProgram, or the .ll path for opt
    backend: object
    timings: dict  # set-up seconds by part


def make_backend(workload: Workload):
    if workload.backend == "mock":
        return pf.MockBackend()
    opt = shutil.which(resolve_opt_path())
    if opt is None:
        raise pf.BackendUnavailable("opt-tune needs an LLVM opt on PATH or in PASSFOREST_OPT")
    return pf.OptBackend(opt_path=opt)


def setup(name: str) -> Context:
    """Registry, fixture load and backend construction for one workload."""
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    registry = pf.default_registry()
    t1 = time.perf_counter()
    path = DATA_DIR / workload.program
    if workload.backend == "mock":
        program = pf.load_mock_program(path)
    else:
        if not path.is_file():
            raise FileNotFoundError(path)
        program = str(path)
    t2 = time.perf_counter()
    backend = make_backend(workload)
    t3 = time.perf_counter()
    timings = {"registry_s": t1 - t0, "fixture_s": t2 - t1, "backend_s": t3 - t2}
    return Context(workload, registry, program, backend, timings)


def refine_seed(seed: int, registry: pf.PassRegistry):
    """The checked-in seed pipeline, its leaf sequence rotated by ``seed``.

    Rotation keeps every pass function-level, so k stays at its recorded
    value while the order refine has to partition changes with the seed.
    """
    spec = json.loads(REFINE_SEED_FILE.read_text(encoding="utf-8"))
    names = [name for name, _ in pf.leaf_sequence(pf.parse_pipeline(spec["pipeline"], registry))]
    shift = seed % len(names)
    rotated = names[shift:] + names[:shift]
    text = "module(function(" + ",".join(rotated) + "))"
    return pf.parse_pipeline(text, registry), spec["expected_k"]


@dataclass
class TuneResult:
    stage_s: dict  # stage name -> wall seconds
    tune_s: float
    evals: int
    failed_evals: int
    seed_ic: int
    final_ic: int
    final_pipeline: str
    start_pipeline: str
    decision_points: int
    best_fitness: List[int]  # per generation; empty for refine-only
    search_ic: Optional[int]
    graph_edges: list

    def digest(self) -> str:
        payload = json.dumps(
            [self.start_pipeline, self.search_ic, self.final_ic,
             self.final_pipeline, self.graph_edges],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_tune(ctx: Context, seed: int, tracer: Optional[Tracer] = None,
             parallel: Optional[int] = None):
    """One seeded tune; returns (TuneResult, the proxy that saw its evaluations)."""
    w = ctx.workload
    parallel = w.parallel if parallel is None else parallel
    backend = ProxyBackend(ctx.backend, tracer)
    root = tracer.new_id() if tracer else None
    stage_s = {}

    def stage(name, fn):
        span_id = None
        if tracer:
            span_id = tracer.new_id()
            tracer.stage = span_id
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        if tracer:
            tracer.record(span_id, name, start, end, root)
        stage_s[name.split(".")[0]] = end - start
        return out

    best = graph = None
    if w.population is None:
        seed_forest, _ = refine_seed(seed, ctx.registry)
    start = time.perf_counter()
    if w.population is not None:
        graph = stage("synergy.mine_synergies", lambda: pf.mine_synergies(
            [ctx.program], ctx.registry, backend, parallel=parallel))
        config = pf.SearchConfig(population_size=w.population, generations=w.generations,
                                 max_sequence_length=w.max_len, seed=seed)
        best, log = stage("search.run_search", lambda: pf.run_search(
            ctx.program, graph, ctx.registry, backend, config, parallel=parallel))
        seed_forest = best.forest
    result = stage("refine.refine", lambda: pf.refine(
        seed_forest, ctx.program, backend, pf.RefineConfig(exhaustive_budget=w.refine_budget, seed=seed), parallel=parallel))
    end = time.perf_counter()
    if tracer:
        tracer.record(root, "tune", start, end, None)
    return TuneResult(
        stage_s=stage_s,
        tune_s=end - start,
        evals=backend.calls,
        failed_evals=backend.failed,
        seed_ic=result.seed_ic,
        final_ic=result.refined_ic,
        final_pipeline=result.refined_pipeline,
        start_pipeline=result.seed_pipeline,
        decision_points=result.decision_point_count,
        best_fitness=[rec["best_fitness"] for rec in log] if best else [],
        search_ic=backend.original_count(ctx.program) - best.fitness if best else None,
        graph_edges=[[e.src, e.dst, e.edge_type, e.weight] for e in graph.edges] if graph else [],
    ), backend


# ---------------------------------------------------------------------------
# Correctness checks. Each returns a list of problems; empty means pass.
# ---------------------------------------------------------------------------

def check_fixture(ctx: Context) -> List[str]:
    """Fixture-level checks, run once per benchmark run."""
    w = ctx.workload
    path = DATA_DIR / w.program
    if w.backend == "mock":
        spec = json.loads(path.read_text(encoding="utf-8"))
        problems = fixtures.check_unsaturated(spec, spec["generator"]["max_len"])
        if w.max_len is not None and w.max_len > spec["generator"]["max_len"]:
            problems.append(f"search max_len {w.max_len} exceeds the fixture's {spec['generator']['max_len']}")
        return problems
    expected = json.loads(OPT_EXPECTED_FILE.read_text(encoding="utf-8"))
    counted = ctx.backend.original_count(ctx.program)
    if counted != expected["original_ic"]:
        return [f"{path.name}: counter says {counted} instructions, hand count is {expected['original_ic']}"]
    return run_with_lli(path.read_text(encoding="utf-8"), expected, "unoptimized input")


def run_with_lli(ir_text: str, expected: dict, what: str) -> List[str]:
    """Execute IR with the reference interpreter and compare its output."""
    lli = shutil.which("lli")
    if lli is None:
        return ["lli not found on PATH; cannot check opt output against the reference"]
    proc = subprocess.run([lli, "-"], input=ir_text, capture_output=True, text=True, timeout=60)
    problems = []
    if proc.stdout != expected["stdout"]:
        problems.append(f"{what}: lli stdout {proc.stdout!r} != expected {expected['stdout']!r}")
    if proc.returncode != expected["exit_code"]:
        problems.append(f"{what}: lli exit {proc.returncode} != expected {expected['exit_code']}")
    return problems


def check_tune(ctx: Context, seed: int, res: TuneResult) -> List[str]:
    """Checks on one tune's outputs, against a fresh backend and references."""
    w = ctx.workload
    problems = []
    forest = pf.parse_pipeline(res.final_pipeline, ctx.registry)
    violations = pf.validate(forest, ctx.registry)
    if violations:
        problems.append(f"final pipeline invalid: {[str(v) for v in violations]}")
    fresh = make_backend(w).evaluate(ctx.program, forest)
    if not fresh.ok or fresh.instruction_count != res.final_ic:
        problems.append(f"fresh re-evaluation gave {fresh.instruction_count} ({fresh.detail}), "
                        f"tune reported {res.final_ic}")
    if res.final_ic is None or res.seed_ic is None or res.final_ic > res.seed_ic:
        problems.append(f"refinement regressed: seed {res.seed_ic} -> final {res.final_ic}")
    if w.backend == "mock" and not (res.final_ic > 0 and res.seed_ic > 0):
        problems.append("instruction count reached 0; the fixture saturates")
    if any(b < a for a, b in zip(res.best_fitness, res.best_fitness[1:])):
        problems.append(f"search best_fitness decreased: {res.best_fitness}")
    if res.search_ic is not None and res.search_ic != res.seed_ic:
        problems.append(f"search best scored {res.search_ic} but refine saw {res.seed_ic}")
    if w.population is None:
        _, expected_k = refine_seed(seed, ctx.registry)
        if res.decision_points != expected_k:
            problems.append(f"seed has k={res.decision_points}, expected {expected_k}")
    if w.backend == "opt":
        expected = json.loads(OPT_EXPECTED_FILE.read_text(encoding="utf-8"))
        proc = subprocess.run(
            [ctx.backend.opt_path, "-S", f"-passes={res.final_pipeline}", ctx.program, "-o", "-"],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            problems.append(f"opt rejected the final pipeline: {proc.stderr[-300:]}")
        else:
            problems += run_with_lli(proc.stdout, expected, "tuned output")
    return problems
