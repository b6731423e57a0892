"""Seeded inputs and metric definitions for the smoothwords benchmark.

Nothing here imports smoothwords: the parent process builds every input
from the seed before any worker starts, and the workers see only these
inputs.  Sizes are fixed multisets; the seed shuffles them and draws word
contents, offsets and sampled vertices, so every seed costs about the same
while the words themselves change.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import threading
from pathlib import Path

WORKLOADS = ("enumerate", "trees", "streams", "cli")

# The seed used for any claim must also hold on this one, which is kept out
# of tuning and of the runs that define a change.
HELD_OUT_SEED = 9173

GOLDEN = Path(__file__).with_name("golden.json")

# -- enumerate: smoothness and derivation on many short words ---------------

ENUM_TABLES = ((1, 2, 44), (1, 3, 48), (1, 4, 48), (2, 4, 56), (2, 5, 56))
ENUM_MULTIPLICITY = (1, 2, 24)  # bispecial_multiplicity_sum for n = 0..24
ENUM_PROBES = 1500
ENUM_PROBE_LENGTHS = range(8, 121)
ENUM_KAPPA_SOURCE = 4000  # letters of each κ the κ-factor probes are cut from

# -- trees: bispecial trees, generation statistics, exponents ---------------

TREE_MIXED = ((1, 2, 240), (1, 4, 500), (1, 6, 600))
TREE_PARITY = ((1, 3, 1500), (2, 4, 1500), (3, 5, 1500))
TREE_GENERATIONS = (10, 11)  # tree_generation of {1,2}/T
# generation_stats of T for i = 0..depth, by words and by state; the depths
# keep each alphabet's word route near 0.1 s.
TREE_STATS = ((1, 3, 9), (2, 4, 7), (3, 5, 6))
REFERENCE_ALPHABETS = ((1, 3), (1, 5), (3, 5), (1, 7), (3, 7), (5, 7),
                       (1, 9), (3, 9), (5, 9))
TREE_PROBE_ALPHABETS = ((1, 2), (1, 3), (1, 4))
# From generation 2 on, generation_swap stays inside the vertex's own level.
TREE_PROBE_GENERATIONS = range(2, 7)
TREE_PROBES_PER_LEVEL = 16

# -- streams: generators and long single words -------------------------------

STREAM_KAPPA = ((1, 2, 1), (1, 2, 2), (2, 5, 2), (2, 5, 5))
# Lengths at which every κ job and the pair job cost about the same, so that
# job_p90_ms falls inside one group of similar jobs rather than between two.
STREAM_KAPPA_LENGTH = {(1, 2): 500_000, (2, 5): 800_000}
STREAM_PAIR = (1, 3, 250_000)
STREAM_WINDOW_LENGTHS = (1000, 1500, 2000, 3000, 4000, 5000, 6000, 8000,
                         10_000, 10_000)
STREAM_SOURCE = 40_000
STREAM_DEPTH = 5
STREAM_GREEDY = (300, 30)  # r-smooth seed length, letters appended
STREAM_EMBED_LENGTH = 60
STREAM_PROBES = 3000
STREAM_PROBE_LENGTHS = range(8, 121)

# -- cli: fresh processes, one at a time --------------------------------------

# Cases drawn per group of golden.json (subcommand and variant): the word
# groups draw this many in each format; every other group runs one case, in
# a format fixed per group, so that every seed runs the same mix of commands
# and formats (the seed still draws words, κ's first letter and the order).
CLI_FORMATS = ("text", "json", "csv")
CLI_DRAWS_PER_FORMAT = {"derive": 2, "check": 2}
CLI_QUERY_COMMANDS = ("derive", "check")  # single-word probes
# The per-round suite; all 12 criteria run in the traced run.  `oddli` is
# left out of rounds because its cost moves with --seed by ±10%, which
# made job_p90_ms depend on the seed.
CLI_ROUND_VERIFY = ("table",)


def _kappa_pairs():
    return sorted({(a, b, s) for a, b, _ in ENUM_TABLES for s in (a, b)})


def enumerate_spec(rng: random.Random) -> dict:
    lengths = [ENUM_PROBE_LENGTHS[i % len(ENUM_PROBE_LENGTHS)]
               for i in range(ENUM_PROBES)]
    rng.shuffle(lengths)
    sources = _kappa_pairs()
    probes = []
    for i, n in enumerate(lengths):
        if i % 2 == 0:
            a, b, start = sources[(i // 2) % len(sources)]
            offset = rng.randrange(1, ENUM_KAPPA_SOURCE - n - 1)
            probes.append({"a": a, "b": b, "kappa": [start, offset, n]})
        else:
            a, b, _ = ENUM_TABLES[(i // 2) % len(ENUM_TABLES)]
            probes.append({"a": a, "b": b,
                           "text": "".join(str(rng.choice((a, b)))
                                           for _ in range(n))})
    return {"tables": ENUM_TABLES, "multiplicity": ENUM_MULTIPLICITY,
            "kappa_source": ENUM_KAPPA_SOURCE, "probes": probes}


def trees_spec(rng: random.Random) -> dict:
    # Every level of every family gets the same number of probes; the seed
    # picks which vertices.
    probes = []
    for a, b in TREE_PROBE_ALPHABETS:
        families = ("T",) if a == b - 1 else ("T", "T1", "T2", "T3", "T4")
        for family in families:
            for g in TREE_PROBE_GENERATIONS:
                probes.extend({"a": a, "b": b, "family": family,
                               "generation": g, "index": rng.randrange(2 ** g)}
                              for _ in range(TREE_PROBES_PER_LEVEL))
    rng.shuffle(probes)
    return {"mixed": TREE_MIXED, "parity": TREE_PARITY,
            "generations": TREE_GENERATIONS, "stats": TREE_STATS,
            "spectral": REFERENCE_ALPHABETS, "probes": probes}


def streams_spec(rng: random.Random) -> dict:
    windows = []
    for i, n in enumerate(STREAM_WINDOW_LENGTHS):
        a, b, start = STREAM_KAPPA[i % len(STREAM_KAPPA)]
        windows.append({"a": a, "b": b, "start": start, "length": n,
                        "offset": rng.randrange(1, STREAM_SOURCE - n),
                        "embed": rng.randrange(1, STREAM_SOURCE
                                               - STREAM_EMBED_LENGTH)})
    lengths = [STREAM_PROBE_LENGTHS[i % len(STREAM_PROBE_LENGTHS)]
               for i in range(STREAM_PROBES)]
    rng.shuffle(lengths)
    probes = []
    for i, n in enumerate(lengths):
        a, b, start = STREAM_KAPPA[i % len(STREAM_KAPPA)]
        # r-smooth probes are prefixes of κ, so they vary through the length
        # and the starting letter only.
        probes.append({"a": a, "b": b, "start": start, "length": n})
    kappa = [(a, b, start, STREAM_KAPPA_LENGTH[(a, b)])
             for a, b, start in STREAM_KAPPA]
    return {"kappa": kappa, "pair": STREAM_PAIR, "windows": windows,
            "source": STREAM_SOURCE, "depth": STREAM_DEPTH,
            "greedy": STREAM_GREEDY, "embed_length": STREAM_EMBED_LENGTH,
            "probes": probes}


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    `src/` first on the path and a fixed hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], timeout: float) -> tuple[int, bytes]:
    """Run a child process to its end; its exit code and stdout.

    A watchdog thread kills it after `timeout` seconds.  subprocess's own
    timeout waits by polling, in sleeps that grow to 50 ms, which would
    round each child's time up to the next poll; here the wait blocks and
    returns as the child exits.
    """
    child = subprocess.Popen(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, env=child_env())
    watchdog = threading.Timer(timeout, child.kill)
    watchdog.start()
    try:
        stdout, _ = child.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
    return child.returncode, stdout


def load_golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())["cases"]


def cli_spec(rng: random.Random, seed: int) -> dict:
    groups: dict[str, list[dict]] = {}
    for case in load_golden():
        if case["command"] != "verify":
            groups.setdefault(case["group"], []).append(case)
    cases = []
    single = [g for g in sorted(groups) if g not in CLI_DRAWS_PER_FORMAT]
    for group, pool in sorted(groups.items()):
        for i, fmt in enumerate(CLI_FORMATS):
            in_format = [c for c in pool if c["format"] == fmt]
            if group in CLI_DRAWS_PER_FORMAT:
                cases.extend(rng.sample(in_format,
                                        CLI_DRAWS_PER_FORMAT[group]))
            elif single.index(group) % len(CLI_FORMATS) == i:
                cases.append(rng.choice(in_format))
    for suite in CLI_ROUND_VERIFY:
        cases.append(verify_case(suite, seed))
    rng.shuffle(cases)
    return {"cases": cases}


def verify_case(suite: str, seed: int) -> dict:
    (case,) = [c for c in load_golden()
               if c["command"] == "verify" and c["suite"] == suite]
    return dict(case, argv=[seed_arg(x, seed) for x in case["argv"]])


def seed_arg(arg: str, seed: int) -> str:
    return str(seed) if arg == "{seed}" else arg


def make_spec(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return cli_spec(rng, seed)
    return {"enumerate": enumerate_spec, "trees": trees_spec,
            "streams": streams_spec}[workload](rng)


# -- per-layer metrics of the traced run ---------------------------------------
#
# Each entry: (metric, unit, source).  Sources are read from one traced round:
#   ("self", span)      summed self time of spans with that name, seconds
#   ("calls", span)     number of spans with that name
#   ("count", key)      a count the round recorded from its results
#   ("ratio", num, den) count num over count den (0 when den is 0)
#   ("median_ms", span) median span duration in milliseconds
# Spans are recorded by the benchmark around its own calls into smoothwords;
# a layer a workload does not call reads 0 there.

PER_LAYER = [
    ("words.build_s", "s", ("self", "words.build")),
    ("words.build_letters", "count", ("count", "words.build_letters")),
    ("words.runs_s", "s", ("self", "words.runs")),
    ("words.runs_calls", "count", ("calls", "words.runs")),
    ("words.transform_s", "s", ("self", "words.transform")),
    ("derivation.step_s", "s", ("self", "derivation.step")),
    ("derivation.step_calls", "count", ("calls", "derivation.step")),
    ("derivation.step_letters", "count", ("count", "derivation.step_letters")),
    ("derivation.chain_s", "s", ("self", "derivation.chain")),
    ("derivation.chain_steps", "count", ("count", "derivation.chain_steps")),
    ("smoothness.enumerate_s", "s", ("self", "smoothness.enumerate")),
    ("smoothness.enumerate_words", "count",
     ("count", "smoothness.enumerate_words")),
    ("smoothness.accept_ratio", "ratio",
     ("ratio", "smoothness.enumerate_words", "smoothness.candidates")),
    ("smoothness.member_s", "s", ("self", "smoothness.member")),
    ("smoothness.member_calls", "count", ("calls", "smoothness.member")),
    ("smoothness.member_yes_ratio", "ratio",
     ("ratio", "smoothness.member_yes", "smoothness.member_asked")),
    ("smoothness.extensions_s", "s", ("self", "smoothness.extensions")),
    ("smoothness.embed_s", "s", ("self", "smoothness.embed")),
    ("generators.kappa_s", "s", ("self", "generators.kappa")),
    ("generators.kappa_letters", "count", ("count", "generators.kappa_letters")),
    ("generators.pair_s", "s", ("self", "generators.pair")),
    ("generators.pair_letters", "count", ("count", "generators.pair_letters")),
    ("generators.greedy_s", "s", ("self", "generators.greedy")),
    ("generators.greedy_letters", "count",
     ("count", "generators.greedy_letters")),
    ("generators.depth_s", "s", ("self", "generators.depth")),
    ("bispecial.tree_derived_mixed_s", "s",
     ("self", "bispecial.tree_derived_mixed")),
    ("bispecial.tree_derived_parity_s", "s",
     ("self", "bispecial.tree_derived_parity")),
    ("bispecial.generation_stats_s", "s", ("self", "bispecial.generation_stats")),
    ("bispecial.generation_stats_calls", "count",
     ("calls", "bispecial.generation_stats")),
    ("bispecial.tree_generation_s", "s", ("self", "bispecial.tree_generation")),
    ("bispecial.vertices", "count", ("count", "bispecial.vertices")),
    ("bispecial.probe_s", "s", ("self", "bispecial.probe")),
    ("bispecial.probe_calls", "count", ("calls", "bispecial.probe")),
    ("bispecial.multiplicity_sum_s", "s", ("self", "bispecial.multiplicity_sum")),
    ("bispecial.exact_complexity_s", "s", ("self", "bispecial.exact_complexity")),
    ("spectral.exponents_s", "s", ("self", "spectral.exponents")),
    ("spectral.calls", "count", ("calls", "spectral.exponents")),
    *[(f"checks.criterion_{k}_s", "s", ("self", f"checks.criterion_{k}"))
      for k in range(1, 13)],
    *[(f"cli.{c}_ms", "ms", ("median_ms", f"cli.{c}"))
      for c in ("derive", "check", "kappa", "pair", "enumerate", "complexity",
                "tree", "exponents", "verify")],
    ("trace.job_self_s", "s", ("self", "job")),
    ("trace.spans", "count", ("count", "trace.spans")),
]

# Reported by the traced run beside PER_LAYER: traced minus untraced run_s.
TRACE_OVERHEAD = ("trace.overhead_s", "s")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("peak_rss_mb", "MB"),
)
