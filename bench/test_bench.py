"""Smoke tests of the benchmark: tiny inputs, no timing asserted.

    python3 -m pytest bench
"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_result_has_every_metric(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_presentations_give_the_same_answers():
    sys.path.insert(0, str(BENCH))
    import run

    assert run.import_program()
    import workloads
    from answers import check_pass

    digests = []
    for seed in (1, 2):
        work = run.ROOT / ".bench_work" / f"test-presentation-{seed}"
        try:
            inputs = workloads.build_inputs("corpus", run.DEFAULT_SEED, seed, work, True)
            inputs.write_files()
            results = run.run_pass(inputs.jobs)
            check_pass(results, inputs, None, None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()
        assert not [r.failure for r in results if r.failure]
        digests.append({r.job.key: r.digest for r in results})
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=180,
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
