"""Seeded mock-program generator and fixture checks for the benchmark.

The mock fixtures under ``bench/data/`` are plain mock-program JSON
files (readable by ``passforest.load_mock_program``) with one extra key,
``generator``, that records the seed and parameters they were made
from. Regenerate them with::

    python3 bench/fixtures.py

Base instruction counts are drawn *above* the largest reduction any
pipeline of ``max_len`` leaves could apply to the function, so no tuned
pipeline can drive a function to 0 and the quality metrics stay free to
move in both directions.
"""

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Mapping

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE_DIR = BENCH_DIR / "data"
SRC_DIR = BENCH_DIR.parent / "src"

# name -> generator parameters; every fixture is a pure function of these.
MOCK_FIXTURES: Dict[str, dict] = {
    "mock_tune.json": {
        "seed": 20251013,
        "n_functions": 30,
        "call_prob": 0.1,
        "synergy_density": 0.2,
        "coupling_density": 0.2,
        "max_effect": 6,
        "max_bonus": 5,
        "max_len": 24,
        "headroom": [50, 300],
    },
    "mock_refine_wide.json": {
        "seed": 4096,
        "n_functions": 4,
        "call_prob": 0.6,
        "synergy_density": 0.3,
        "coupling_density": 0.3,
        "max_effect": 6,
        "max_bonus": 5,
        "max_len": 13,
        "headroom": [20, 80],
    },
}


def concrete_pass_names() -> List[str]:
    from passforest import default_registry

    return [p.name for p in default_registry().concrete_passes()]


def saturation_bounds(spec: Mapping, max_len: int) -> Dict[str, int]:
    """Largest reduction a pipeline of ``max_len`` leaves can apply, per function.

    Every leaf yields exactly one event per function, and one event on a
    target pass q removes at most its flat effect plus every pair bonus
    into q, plus every coupling bonus into q when the function has callees.
    """
    into: Dict[str, int] = {}
    coupled: Dict[str, int] = {}
    for name, effect in spec["effects"].items():
        into[name] = effect
    for e in spec["pair_synergy"]:
        into[e["q"]] = into.get(e["q"], 0) + e["bonus"]
    for e in spec["coupling"]:
        coupled[e["q"]] = coupled.get(e["q"], 0) + e["bonus"]
    callers = {caller for caller, _ in spec["calls"]}
    plain = max(into.values(), default=0)
    with_calls = max(
        (into.get(q, 0) + coupled.get(q, 0) for q in set(into) | set(coupled)),
        default=0,
    )
    return {
        f["name"]: max_len * (with_calls if f["name"] in callers else plain)
        for f in spec["functions"]
    }


def check_unsaturated(spec: Mapping, max_len: int) -> List[str]:
    """Functions whose base count a max-length pipeline could exhaust."""
    bounds = saturation_bounds(spec, max_len)
    return [
        f"{f['name']}: base_ic {f['base_ic']} <= reachable reduction {bounds[f['name']]}"
        for f in spec["functions"]
        if f["base_ic"] <= bounds[f["name"]]
    ]


def generate_mock_spec(params: Mapping, passes: List[str]) -> dict:
    """Mock-program spec drawn from ``params['seed']`` alone."""
    rng = random.Random(params["seed"])
    n = params["n_functions"]
    names = [f"f{i}" for i in range(n)]
    # Edges only point to higher indices, so the call graph is acyclic.
    calls = [
        [names[i], names[j]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < params["call_prob"]
    ]
    effects = {p: rng.randint(0, params["max_effect"]) for p in passes}
    synergy, coupling = [], []
    for p in passes:
        for q in passes:
            if rng.random() < params["synergy_density"]:
                synergy.append({"p": p, "q": q, "bonus": rng.randint(1, params["max_bonus"])})
            if rng.random() < params["coupling_density"]:
                coupling.append({"p": p, "q": q, "bonus": rng.randint(1, params["max_bonus"])})
    spec = {
        "functions": [{"name": name, "base_ic": 0} for name in names],
        "calls": calls,
        "effects": effects,
        "pair_synergy": synergy,
        "coupling": coupling,
    }
    bounds = saturation_bounds(spec, params["max_len"])
    lo, hi = params["headroom"]
    for f in spec["functions"]:
        f["base_ic"] = bounds[f["name"]] + rng.randint(lo, hi)
    return spec


def fixture_text(name: str) -> str:
    params = MOCK_FIXTURES[name]
    spec = generate_mock_spec(params, concrete_pass_names())
    spec["generator"] = dict(params)
    return json.dumps(spec, indent=1, sort_keys=True) + "\n"


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def main() -> int:
    sys.path.insert(0, str(SRC_DIR))
    for name in MOCK_FIXTURES:
        (FIXTURE_DIR / name).write_text(fixture_text(name), encoding="utf-8")
        print(f"wrote {FIXTURE_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
