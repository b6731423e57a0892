"""Self-test of the benchmark: its oracles catch a wrong answer.

    python3 -m pytest perfbench

Each workload runs on a shrunken spec with tracing off; every answer must
pass its oracle.  Then one answer is corrupted and the failed fraction must
rise above zero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import rounds  # noqa: E402
import specs  # noqa: E402
from run import at_reference_speed, percentile  # noqa: E402
from spans import Recorder, layer_metrics, self_times  # noqa: E402
from speed import LOOP, Speedometer  # noqa: E402


def small_spec(workload: str) -> dict:
    spec = specs.make_spec(workload, 1)
    if workload == "enumerate":
        spec.update(tables=[[1, 2, 16], [1, 3, 16]], multiplicity=[1, 2, 10],
                    probes=spec["probes"][:40])
    elif workload == "trees":
        spec.update(mixed=[[1, 2, 40]], parity=[[1, 3, 100]], generations=[5],
                    stats=[[1, 3, 5]], spectral=[[1, 3], [1, 9]],
                    probes=spec["probes"][:20])
    elif workload == "streams":
        spec.update(kappa=[(*k[:3], 2000) for k in spec["kappa"]],
                    pair=[1, 3, 2000],
                    windows=spec["windows"][:2], probes=spec["probes"][:20])
    else:
        spec.update(cases=spec["cases"][:2])
    return spec


# One answer per workload, corrupted the way a wrong program would get it.
CORRUPT = {
    "enumerate": ("table 1,2 n=16", lambda p: p[:5] + (p[5] + 1,) + p[6:]),
    "trees": ("tree 1,2 T g=5", lambda a: (a[0], a[1] + 1)),
    "streams": ("kappa 1,2 start 2", lambda s: s[:10] + bytes([3 - s[10]])
                + s[11:]),
    "cli": (None, lambda a: (a[0], "0" * 64)),
}


def failed_frac(items, rec) -> float:
    return len(rounds.failures(items, rec)) / rec.attempted


@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_corrupted_answer_raises_failed_frac(workload):
    items = rounds.ITEMS[workload](small_spec(workload))
    rec = Recorder(traced=False)
    rounds.execute(items, rec)
    assert rec.attempted == len(items)
    assert failed_frac(items, rec) == 0, rounds.failures(items, rec)

    key, corrupt = CORRUPT[workload]
    key = key or items[0][0]
    rec.answers[key] = corrupt(rec.answers[key])
    assert failed_frac(items, rec) > 0


def test_traced_round_reports_every_layer_metric():
    spec = small_spec("streams")
    result = rounds.run_round("streams", spec, traced=True)
    assert result["failed"] == 0
    assert set(result["layers"]) == {name for name, _, _ in specs.PER_LAYER}
    assert result["layers"]["generators.kappa_s"] > 0
    assert result["bases"]["smoothness.member_yes_ratio"][1] > 0


def test_self_time_subtracts_children():
    spans = [("job", 0.0, 10.0, None), ("a", 1.0, 3.0, 0), ("b", 4.0, 8.0, 0)]
    assert self_times(spans) == [4.0, 2.0, 4.0]
    rec = Recorder(traced=True)
    rec.spans = spans
    values, _ = layer_metrics(rec, [("job_s", "s", ("self", "job")),
                                    ("a_calls", "count", ("calls", "a"))])
    assert values == {"job_s": 4.0, "a_calls": 1}


def test_times_scale_to_the_speed_measured_around_them():
    meter = Speedometer()
    meter.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    meter.samples = [1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0]
    assert meter.reference(2.5, 6.0) == 3.0  # four samples inside
    assert meter.reference(0.0, 2.0) == 1.0  # three inside
    assert meter.reference(2.5, 2.6) == 2.0  # three on either side
    assert meter.slowdown(2.5, 6.0) == 3.0 / LOOP[1]
    # A round on a machine at half speed: its times halve at reference speed.
    round_ = {"setup_s": 0.4, "jobs_s": {"j": 1.0}, "queries_s": {"q": 0.2},
              "slowdown": {"j": 2.0, "q": 1.0}, "wall_s": 9.0,
              "round_slowdown": 2.0}
    scaled = at_reference_speed(round_)
    assert scaled["setup_s"] == pytest.approx(0.2)
    assert scaled["jobs_s"] == {"j": pytest.approx(0.5)}
    assert scaled["queries_s"] == {"q": pytest.approx(0.2)}
    assert scaled["wall_s"] == pytest.approx(0.7)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 90) == 7.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable if command[0] == "python3" else command[0],
         *command[1:], "--workload", "cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
