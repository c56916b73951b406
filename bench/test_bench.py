"""The benchmark's own checks. Run from the repository root with::

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import fixtures  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(fixtures.MOCK_FIXTURES))
def test_mock_fixture_regenerates_from_its_recorded_seed(name):
    on_disk = (fixtures.FIXTURE_DIR / name).read_text(encoding="utf-8")
    assert fixtures.fixture_text(name) == on_disk


@pytest.mark.parametrize("name", sorted(fixtures.MOCK_FIXTURES))
def test_mock_fixture_cannot_saturate(name):
    spec = json.loads((fixtures.FIXTURE_DIR / name).read_text(encoding="utf-8"))
    assert fixtures.check_unsaturated(spec, spec["generator"]["max_len"]) == []


def test_saturation_check_flags_a_reachable_zero():
    spec = {
        "functions": [{"name": "f0", "base_ic": 30}, {"name": "f1", "base_ic": 31}],
        "calls": [["f0", "f1"]],
        "effects": {"a": 2},
        "pair_synergy": [{"p": "a", "q": "a", "bonus": 1}],
        "coupling": [{"p": "a", "q": "a", "bonus": 2}],
    }
    # f0 has callees: 5 per event; f1 has none: 3 per event.
    assert fixtures.saturation_bounds(spec, 6) == {"f0": 30, "f1": 18}
    assert [p.split(":")[0] for p in fixtures.check_unsaturated(spec, 6)] == ["f0"]


@pytest.mark.parametrize("name", ["mock-tune", "mock-refine-wide"])
def test_parallel_setting_does_not_change_the_digest(name):
    ctx = workloads.setup(name)
    serial, _ = workloads.run_tune(ctx, seed=5, parallel=1)
    threaded, _ = workloads.run_tune(ctx, seed=5, parallel=2)
    assert serial.digest() == threaded.digest()
    assert workloads.check_tune(ctx, 5, serial) == []


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_lists_every_declared_metric(trace, section):
    proc = run_bench(ROOT, "--workload", "mock-refine-wide", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "mock-tune", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
