"""passforest benchmark: seeded mine → search → refine in a closed loop.

Usage (from the repository root)::

    python3 bench/run.py --workload mock-tune --seed 1 --seconds 20 --trace 0

One driver process runs one tune after another, at no fixed rate, until
``--seconds`` have passed. ``--seed s`` fixes the run's inputs: the
tunes cycle through the GA seeds ``s*K .. s*K+K-1`` (K per workload), the
first K+1 tunes always run, and tunes with the same GA seed must produce
the same digest. A timing is the median over repeats of one GA seed,
averaged over the K GA seeds, so one run covers K search trajectories.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced tunes and reports the per-layer metrics, writing
the spans to ``.bench_build/trace/``. Metric names and units are those listed in
``BENCHMARK.json``. The last line of standard output is one JSON object;
the exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
SETUP_REPEATS = 11
MICRO_SAMPLE = 300  # captured forests per micro row


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def probe_setup(workload: str) -> dict:
    """One cold set-up in a fresh interpreter; seconds by part."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def command_output(cmd, cwd=None) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=cwd)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(ctx) -> dict:
    import fixtures

    opt = shutil.which("opt")
    opt_path = getattr(ctx.backend, "opt_path", None) or opt
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "opt_path": opt_path,
        "opt_version": command_output([opt_path, "--version"]).splitlines()[:2] if opt_path else None,
        "git_commit": command_output(["git", "rev-parse", "HEAD"], cwd=ROOT),
        "fixtures": {p.name: fixtures.file_sha256(p) for p in sorted(fixtures.FIXTURE_DIR.iterdir())},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_subseed(results, value) -> list:
    """``value`` of each GA seed's tunes, reduced to their median."""
    by_seed = {}
    for sub, res in results:
        by_seed.setdefault(sub, []).append(value(res))
    return [statistics.median(v) for v in by_seed.values()]


def median_setup(probes) -> dict:
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


def end_to_end_metrics(results, setups) -> dict:
    tune_s = per_subseed(results, lambda r: r.tune_s)
    evals = per_subseed(results, lambda r: r.evals)
    return {
        "setup_s": setups["setup_s"],
        "tune_s": statistics.fmean(tune_s),
        "evals_per_s": sum(evals) / sum(tune_s),
        "seed_ic": statistics.fmean(per_subseed(results, lambda r: r.seed_ic)),
        "final_ic": statistics.fmean(per_subseed(results, lambda r: r.final_ic)),
        "eval_ok_frac": 1 - sum(per_subseed(results, lambda r: r.failed_evals)) / sum(evals),
        "peak_rss_mb": peak_rss_mb(),
    }


def stage_rows(results) -> list:
    """Human-readable stage timings: median, max and sample count."""
    rows = []
    for stage, label in (("synergy", "mine_s"), ("search", "search_s"), ("refine", "refine_s")):
        values = [r.stage_s[stage] for _, r in results if stage in r.stage_s]
        if values:
            rows.append((label, statistics.median(values), max(values), len(values)))
    tunes = [r.tune_s for _, r in results]
    rows.append(("tune_s", statistics.median(tunes), max(tunes), len(tunes)))
    return rows


def layer_metrics(ctx, seed, traced, untraced, setups) -> dict:
    """Per-layer numbers from the traced tunes (medians where they vary)."""
    import passforest as pf
    from tracing import per_call_us, percentile, sample, union_length

    w = ctx.workload
    rows = []
    for _, res, proxy, tracer, probe in traced:
        stages = {s.layer: s for s in tracer.spans if s.parent is not None and s.name != "evaluation.evaluate"}
        evals = tracer.named("evaluation.evaluate")
        durations = [s.duration for s in evals]
        covered = sum(union_length(tracer.children(s), s.start, s.end) for s in stages.values())
        wall = sum(s.duration for s in stages.values())
        row = {
            "evaluation.calls": len(evals),
            "evaluation.busy_s": sum(durations),
            "evaluation.call_p50_ms": percentile(durations, 50) * 1e3,
            "evaluation.call_p99_ms": percentile(durations, 99) * 1e3,
            "evaluation.overlap": covered / wall,
            "evaluation.concurrency": sum(durations) / covered if covered else 0.0,
            "evaluation.repeat_frac": proxy.repeats / proxy.calls,
            "evaluation.fail_frac": proxy.failed / proxy.calls,
        }
        for layer in ("synergy", "search", "refine"):
            span = stages.get(layer)
            row[f"{layer}.wall_s"] = span.duration if span else 0.0
            row[f"{layer}.self_s"] = tracer.self_time(span) if span else 0.0
        row["synergy.evals"] = len(tracer.children(stages["synergy"])) if "synergy" in stages else 0
        row["synergy.edges"] = len(res.graph_edges)
        row["refine.evals"] = len(tracer.children(stages["refine"]))
        row["refine.k"] = res.decision_points
        if "search" in stages:
            search_evals = len(tracer.children(stages["search"]))
            row["search.generation_ms"] = stages["search"].duration / (w.generations + 1) * 1e3
            row["search.crossover_us"] = statistics.fmean(probe.crossover_s) * 1e6 if probe.crossover_s else 0.0
            row["search.mutate_us"] = statistics.fmean(probe.mutate_s) * 1e6 if probe.mutate_s else 0.0
            row["search.crossover_reject_frac"] = (
                probe.crossover_rejects / len(probe.crossover_s) if probe.crossover_s else 0.0)
            row["search.unique_frac"] = search_evals / (w.population * (w.generations + 1))
        else:
            for name in ("generation_ms", "crossover_us", "mutate_us", "crossover_reject_frac", "unique_frac"):
                row[f"search.{name}"] = 0.0
        rows.append(row)
    metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}

    # Micro rows on the forests the first traced tune actually evaluated.
    proxy = traced[0][2]
    texts = sample(sorted(proxy.forests), MICRO_SAMPLE)
    forests = [proxy.forests[t] for t in texts]
    metrics["grammar.print_us"] = per_call_us(pf.print_pipeline, forests)
    metrics["grammar.parse_us"] = per_call_us(lambda t: pf.parse_pipeline(t, ctx.registry), texts)
    metrics["forest.validate_us"] = per_call_us(lambda f: pf.validate(f, ctx.registry), forests)
    if w.backend == "mock":
        evaluate_us = per_call_us(lambda f: pf.mock_evaluate(ctx.program, f), forests)
        events = sum(len(pf.schedule_of(f, ctx.program)) for f in forests)
        metrics["mock.evaluate_us"] = evaluate_us
        metrics["mock.schedule_of_us"] = per_call_us(lambda f: pf.schedule_of(f, ctx.program), forests)
        metrics["mock.events_per_s"] = events / (evaluate_us * len(forests) / 1e6)
    else:  # the mock layer never runs on this workload
        metrics.update({"mock.evaluate_us": 0.0, "mock.schedule_of_us": 0.0, "mock.events_per_s": 0.0})
    concrete = ctx.registry.concrete_passes()
    pairs = [(p, q) for p in concrete for q in concrete]
    metrics["skeletons.build_us"] = per_call_us(lambda pq: pf.representative_skeleton(*pq), pairs)
    problem, _ = pf.encode(pf.parse_pipeline(traced[0][1].start_pipeline, ctx.registry))
    rng = random.Random(seed)
    k = len(problem.decision_points)
    chromosomes = [pf.PartitionChromosome(tuple(rng.randint(0, 1) for _ in range(k))) for _ in range(256)]
    metrics["refine.decode_us"] = per_call_us(lambda c: pf.decode(problem, c), chromosomes)

    metrics["setup.import_s"] = setups["import_s"]
    metrics["setup.fixture_s"] = setups["fixture_s"]
    metrics["setup.registry_s"] = setups["registry_s"]
    # Pair i of the loop ran the same GA seed untraced, then traced.
    metrics["trace.overhead_frac"] = statistics.median(
        t[1].tune_s / u[1].tune_s for u, t in zip(untraced, traced)) - 1
    return metrics


def run(args, spec) -> int:
    import workloads
    from tracing import OperatorProbe, Tracer

    ctx = workloads.setup(args.workload)
    fixture_problems = workloads.check_fixture(ctx)

    k = ctx.workload.subseeds
    subseeds = [args.seed * k + j for j in range(k)]
    untraced, traced = [], []  # (GA seed, result), (GA seed, result, proxy, tracer, probe)
    probes = []  # set-up samples, spread over the run rather than bunched at its start
    deadline = time.perf_counter() + args.seconds
    # Trace mode runs pairs: an untraced tune, then a traced one on the same GA seed.
    while len(untraced) < k + (not args.trace) or time.perf_counter() < deadline:
        sub = subseeds[len(untraced) % k]
        untraced.append((sub, workloads.run_tune(ctx, sub)[0]))
        probes.append(probe_setup(args.workload))
        if args.trace:
            tracer = Tracer(f"{args.workload}-seed{args.seed}-{len(traced)}")
            with OperatorProbe() as probe:
                res, proxy = workloads.run_tune(ctx, sub, tracer)
            traced.append((sub, res, proxy, tracer, probe))
    while len(probes) < SETUP_REPEATS:
        probes.append(probe_setup(args.workload))
    setups = median_setup(probes)
    results = untraced + [t[:2] for t in traced]

    # A tune fails when its GA seed's tunes disagree or their outputs fail
    # a check; a fixture problem fails every tune.
    problems, digests, bad = list(fixture_problems), {}, set()
    for sub, res in results:
        digests.setdefault(sub, set()).add(res.digest())
    for sub, found in digests.items():
        tune_problems = workloads.check_tune(ctx, sub, next(r for s, r in results if s == sub))
        if len(found) != 1:
            tune_problems.append(f"tunes with GA seed {sub} disagree: digests {sorted(found)}")
        if tune_problems:
            bad.add(sub)
            problems += tune_problems
    failed = len(results) if fixture_problems else sum(1 for sub, _ in results if sub in bad)

    env = environment(ctx)
    print(f"workload {args.workload} seed {args.seed} tunes {len(results)}")
    for sub, found in digests.items():
        print(f"GA seed {sub} digest {' '.join(sorted(found))}")
    print(f"final  {results[0][1].final_pipeline}")
    for label, median, worst, n in stage_rows(untraced):
        print(f"{label:<12} median {median:.4f} s  max {worst:.4f} s  n={n}")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        section = "per_layer"
        metrics = layer_metrics(ctx, args.seed, traced, untraced, setups)
        reasons = dict(sum((t[2].fail_reasons for t in traced), Counter()).most_common())
        print("fail_by_reason " + json.dumps(reasons, sort_keys=True))
        out_dir = ROOT / ".bench_build" / "trace"
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / f"{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "fail_by_reason": reasons, "metrics": metrics,
            "tracers": [t[3].to_json() for t in traced],
        }) + "\n", encoding="utf-8")
        print(f"trace written to {out.relative_to(ROOT)}")
    else:
        section = "end_to_end"
        metrics = end_to_end_metrics(untraced, setups)

    units = spec[section]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name in units:
        print(f"{name:<32} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    if not (SRC_DIR / "passforest").is_dir():
        print(f"error: no passforest sources under {SRC_DIR}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import passforest as pf
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args, load_spec())
    except pf.BackendUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
