"""The smoothwords benchmark: one command, every metric, checked answers.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads (why each is here is in specs.py and README.md): enumerate, trees,
streams, cli.

Method.  One client drives a closed loop: each round is a fresh interpreter
(`rounds.py`) that builds the round's inputs untimed, runs every job and
single-word probe one after another, then checks every answer against an
independent oracle.  Rounds repeat, one at a time, until the next one would
end past ``--seconds``.  Run-level figures are medians over rounds; latency
percentiles are taken over the items' median latencies.  Wall clock only,
pinned to one CPU, on whatever shares the machine; every time is scaled to
reference speed by a fixed reference timed all through each round
(speed.py), and README.md records how much a shared 2-core machine drifts
with and without that scaling.

``--trace 1`` alternates untraced and traced rounds.  It prints the per-layer
metrics of the traced rounds (spans recorded by the benchmark around its own
calls into each module), and the tracing overhead: traced minus untraced
median round time.  End-to-end metrics come from ``--trace 0`` runs only.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402

MIN_ROUNDS = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the samples at
    or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_round(workload: str, spec: dict, traced: bool) -> dict:
    request = {"workload": workload, "spec": spec, "traced": traced,
               "launched": clock_gettime(CLOCK_MONOTONIC)}
    done = subprocess.run([sys.executable, str(HERE / "rounds.py")],
                          input=json.dumps(request).encode(),
                          capture_output=True, env=specs.child_env(),
                          timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise SystemExit(f"round of {workload} exited {done.returncode}")
    return json.loads(done.stdout)


def run_rounds(workload: str, spec: dict, seconds: float, traced: bool
               ) -> tuple[list[dict], list[dict]]:
    """Rounds until the next would end past the budget; returns (untraced,
    traced).  With tracing, rounds alternate, untraced first."""
    plain, traced_rounds = [], []
    start = perf_counter()
    durations = []
    while True:
        count = len(plain) + len(traced_rounds)
        enough = len(plain) >= MIN_ROUNDS if not traced else (
            plain and traced_rounds)
        elapsed = perf_counter() - start
        if enough and elapsed + statistics.mean(durations) > seconds:
            break
        t0 = perf_counter()
        use_trace = traced and count % 2 == 1
        (traced_rounds if use_trace else plain).append(
            run_round(workload, spec, use_trace))
        durations.append(perf_counter() - t0)
    return plain, traced_rounds


def environment() -> dict:
    sha = ""
    if Path(".git").exists():  # git would otherwise search parent directories
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return {"git_sha": sha or "unknown (not a git checkout)",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "pinned_to_cpu": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
            "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg())}


def item_medians(rounds: list[dict], field: str) -> list[float]:
    """Each job's or probe's median latency over the rounds.

    Every round is a fresh process on the same inputs, so each item is
    measured once per round and nothing carries over between rounds; the
    median drops a measurement that a stall of the machine inflated.
    """
    samples: dict[str, list[float]] = {}
    for r in rounds:
        for key, seconds in r[field].items():
            samples.setdefault(key, []).append(seconds)
    return [statistics.median(v) for v in samples.values()]


def at_reference_speed(round_: dict) -> dict:
    """The round with every time scaled to reference speed (see speed.py).

    Each job and probe is divided by the slowdown measured while it ran;
    set-up, which ran before the first sample, and per-layer times, which
    sum over the whole round, by the round's median slowdown.  The round's
    run time is the sum of its scaled items.
    """
    slowdown = round_["slowdown"]

    def scaled(times: dict) -> dict:
        return {key: t / slowdown[key] for key, t in times.items()}

    jobs, queries = scaled(round_["jobs_s"]), scaled(round_["queries_s"])
    out = dict(round_, jobs_s=jobs, queries_s=queries,
               wall_s=sum(jobs.values()) + sum(queries.values()),
               setup_s=round_["setup_s"] / round_["round_slowdown"])
    if "layers" in round_:
        timed = {name for name, unit, _ in specs.PER_LAYER
                 if unit in ("s", "ms")}
        out["layers"] = {name: v / round_["round_slowdown"] if name in timed
                         else v for name, v in round_["layers"].items()}
    return out


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    jobs = item_medians(rounds, "jobs_s")
    queries = item_medians(rounds, "queries_s")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "run_s": statistics.median(r["wall_s"] for r in rounds),
        "job_p50_ms": 1e3 * percentile(jobs, 50),
        "job_p90_ms": 1e3 * percentile(jobs, 90),
        "query_p50_us": 1e6 * percentile(queries, 50),
        "query_p99_us": 1e6 * percentile(queries, 99),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    n = len(rounds)
    samples = {"setup_s": f"median of {n} rounds",
               "run_s": f"median of {n} rounds",
               "job_p50_ms": f"{len(jobs)} jobs x {n} rounds",
               "job_p90_ms": f"{len(jobs)} jobs x {n} rounds",
               "query_p50_us": f"{len(queries)} probes x {n} rounds",
               "query_p99_us": f"{len(queries)} probes x {n} rounds",
               "peak_rss_mb": f"median of {n} rounds"}
    return values, samples


def per_layer(plain: list[dict], traced: list[dict], criteria: dict | None
              ) -> tuple[dict, dict]:
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name, _, _ in specs.PER_LAYER}
    bases = traced[0]["bases"]
    if criteria is not None:
        # Per-criterion seconds come from the one traced pass over all twelve.
        for name in values:
            if name.startswith("checks."):
                values[name] = criteria["layers"][name]
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    values[specs.TRACE_OVERHEAD[0]] = overhead
    return values, bases


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:34} {value:>14.6g} {unit:6} {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=specs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/smoothwords/__init__.py").is_file():
        print("error: run from the root of a smoothwords checkout "
              "(src/smoothwords not found)", file=sys.stderr)
        return 2

    # One CPU for the benchmark and every process it starts (they run one
    # at a time), so the reference samples of speed.py time the CPU the
    # program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment()
    print(f"smoothwords benchmark: workload={args.workload} seed={args.seed} "
          f"(held-out seed {specs.HELD_OUT_SEED}) seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items())
          + ", PYTHONHASHSEED=0, one closed-loop client")

    spec = specs.make_spec(args.workload, args.seed)
    plain, traced = run_rounds(args.workload, spec, args.seconds,
                               bool(args.trace))
    criteria = None
    if args.trace and args.workload == "cli":
        criteria = run_round("cli", {"cases": [], "criteria": specs.verify_case(
            "all", args.seed)}, True)
        traced.append(criteria)  # its outcome counts; see per_layer for its layers
    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for line in sorted({f for r in rounds for f in r["failures"]})[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    factors = [r["round_slowdown"] for r in plain]
    raw, _ = end_to_end(plain)
    plain = [at_reference_speed(r) for r in plain]
    values, samples = end_to_end(plain)
    print("machine slowdown (reference time over its nominal, speed.py): "
          f"{statistics.median(factors):.3f} (median of "
          f"{len(plain)} rounds, {min(factors):.3f}-{max(factors):.3f}); "
          "times below are at reference speed, raw ones in brackets")
    print_table(f"end to end ({args.workload}, tracing off)",
                [(name, values[name], unit,
                  f"{samples[name]} [raw {raw[name]:.6g}]")
                 for name, unit in specs.END_TO_END]
                + [("failed_frac", failed / attempted, "ratio",
                    f"{failed}/{attempted} jobs and probes")])
    if args.trace:
        traced = [at_reference_speed(r) for r in traced]
        layer_rounds = traced[:-1] if criteria is not None else traced
        criteria = traced[-1] if criteria is not None else None
        layers, bases = per_layer(plain, layer_rounds, criteria)
        units = {name: unit for name, unit, _ in specs.PER_LAYER}
        units[specs.TRACE_OVERHEAD[0]] = specs.TRACE_OVERHEAD[1]
        print_table(
            f"per layer ({args.workload}, median of {len(layer_rounds)} "
            "traced rounds; self time = span minus its children)",
            [(name, value, units[name],
              f"base {bases[name][0]}/{bases[name][1]}" if name in bases
              else "") for name, value in layers.items()])
        metrics = {name: {"value": layers[name], "unit": units[name]}
                   for name in layers}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in specs.END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
