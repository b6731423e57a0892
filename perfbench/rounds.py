"""One benchmark round in a fresh interpreter.

Usage: ``python3 perfbench/rounds.py`` with a JSON request on stdin,
``{"workload": ..., "spec": ..., "traced": bool}``; the result is one JSON
object on stdout.  `run.py` starts one such process per round, one at a
time, so module caches and cached properties start empty in every round.

A round has three phases.  Set-up (untimed) turns the seeded spec into the
program's inputs and a list of items, each a job or a single-word probe.
The timed phase runs every item through a `Recorder`.  The oracle phase
(untimed) checks every answer by an independent route: a reference
derivation written here from the definitions, a second algorithm of the
library, a closed form, reference data already in the repository, or
golden CLI captures.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import resource
import statistics
import sys
from fractions import Fraction
from itertools import groupby
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

import specs
from smoothwords import (
    Alphabet, bispecial_multiplicity_sum, build_smooth_from_r,
    check_smooth_depth, coupled_pair_prefix, derivative_chain, derive_f,
    derive_huang, derive_r, embed_left, exact_complexity, exponent_report,
    f_smooth_count, generation_stats, generation_swap, is_bispecial,
    is_f_smooth, is_r_smooth, kappa_prefix, left_extensions,
    lower_bound_constants, max_length_growth_radius, multiplicity,
    right_extensions, root_of, tree_derived_complexity, tree_generation)
from smoothwords.checks import (
    CHECKS, REFERENCE_COUPLED_X, REFERENCE_COUPLED_Y, REFERENCE_EXPONENT_TABLE,
    REFERENCE_PREFIXES)
from spans import Recorder, layer_metrics
from speed import LAUNCH, LOOP, Speedometer


# -- reference derivation, written from the definitions ------------------------


def ref_runs(letters: bytes) -> list[int]:
    return [len(list(g)) for _, g in groupby(letters)]


def ref_derive(letters: bytes, a: int, b: int, rule: str) -> bytes | None:
    """One derivation step by rule 'f', 'huang' or 'r'; None off the domain."""
    if not letters:
        return b""
    exps = ref_runs(letters)
    if rule == "r":
        if any(e not in (a, b) for e in exps[:-1]) or not 1 <= exps[-1] <= b:
            return None
        return bytes(exps[:-1]) + (b"" if exps[-1] <= a else bytes([b]))
    if not (1 <= exps[0] <= b and 1 <= exps[-1] <= b):
        return None
    if any(e not in (a, b) for e in exps[1:-1]):
        return None

    def cut(p):
        keep = p > a if rule == "f" else p == b
        return bytes([b]) if keep else b""

    if len(exps) == 1:
        return cut(exps[0])
    return cut(exps[0]) + bytes(exps[1:-1]) + cut(exps[-1])


def ref_smooth(letters: bytes, a: int, b: int, rule: str) -> bool:
    while letters:
        letters = ref_derive(letters, a, b, rule)
        if letters is None:
            return False
    return True


def reads_itself(letters: bytes) -> bool:
    """The run lengths of all complete runs spell a prefix of the word."""
    exps = bytes(ref_runs(letters)[:-1])
    return letters.startswith(exps)


def text_of(letters: bytes) -> str:
    return "".join(map(str, letters))


# -- enumerate -----------------------------------------------------------------


def enum_table(rec, ab, n):
    rec.call("smoothness.enumerate", f_smooth_count, ab, n)
    p = rec.call("bispecial.exact_complexity", exact_complexity, ab, n).p
    rec.count("smoothness.enumerate_words", sum(p[1:]))
    rec.count("smoothness.candidates", 2 * sum(p[:-1]))
    return p


def check_enum_table(p, answers, ab, n):
    expect = tree_derived_complexity(ab, n).p
    if p != expect:
        k = next(i for i, (x, y) in enumerate(zip(p, expect)) if x != y)
        return f"p({k}) = {p[k]} but the bispecial trees give {expect[k]}"
    return None


def enum_multiplicity(rec, ab, top, table_key):
    return [rec.call("bispecial.multiplicity_sum", bispecial_multiplicity_sum,
                     ab, n) for n in range(top + 1)]


def check_enum_multiplicity(sums, answers, ab, top, table_key):
    p = answers.get(table_key)
    if p is None:
        return "the complexity table it is checked against failed"
    for n, total in enumerate(sums):
        second = (p[n + 2] - p[n + 1]) - (p[n + 1] - p[n])
        if total != second:
            return (f"multiplicity sum {total} at n={n} but the second "
                    f"difference is {second}")
    return None


def enum_probe(rec, ab, text, from_kappa):
    w = rec.call("words.build", ab.word, text)
    rec.count("words.build_letters", len(text))
    member = rec.call("smoothness.member", is_f_smooth, w) is not None
    rec.count("smoothness.member_asked")
    rec.count("smoothness.member_yes", member)
    left = rec.call("smoothness.extensions", left_extensions, w)
    right = rec.call("smoothness.extensions", right_extensions, w)
    bispecial = rec.call("bispecial.probe", is_bispecial, w)
    mult = rec.call("bispecial.probe", multiplicity, w) if bispecial else None
    return member, left, right, bispecial, mult


def check_enum_probe(answer, answers, ab, text, from_kappa):
    member, left, right, bispecial, mult = answer
    a, b = ab.a, ab.b
    w = bytes(int(c) for c in text)
    if member != ref_smooth(w, a, b, "f"):
        return f"membership of {text} is wrong"
    if from_kappa and not member:
        return f"κ-factor {text} reported as not f-smooth"
    exp_left = tuple(c for c in (a, b) if ref_smooth(bytes([c]) + w, a, b, "f"))
    exp_right = tuple(c for c in (a, b) if ref_smooth(w + bytes([c]), a, b, "f"))
    if (left, right) != (exp_left, exp_right):
        return f"extensions of {text} are wrong"
    if bispecial != (len(left) == 2 and len(right) == 2):
        return f"bispecial flag of {text} is wrong"
    if bispecial:
        count = sum(ref_smooth(bytes([x]) + w + bytes([y]), a, b, "f")
                    for x in (a, b) for y in (a, b))
        if mult != count - 3:
            return f"multiplicity of {text} is wrong"
    return None


def enumerate_items(spec):
    items = []
    for a, b, n in spec["tables"]:
        items.append((f"table {a},{b} n={n}", "job", enum_table,
                      (Alphabet(a, b), n), check_enum_table))
    a, b, top = spec["multiplicity"]
    (n_table,) = [n for x, y, n in spec["tables"] if (x, y) == (a, b)]
    items.append((f"multiplicity sums {a},{b} n<={top}", "job",
                  enum_multiplicity,
                  (Alphabet(a, b), top, f"table {a},{b} n={n_table}"),
                  check_enum_multiplicity))
    sources = {}
    for probe in spec["probes"]:
        if "kappa" in probe:
            key = (probe["a"], probe["b"], probe["kappa"][0])
            if key not in sources:
                ab = Alphabet(key[0], key[1])
                sources[key] = kappa_prefix(ab, spec["kappa_source"],
                                            start=key[2]).letters
    for i, probe in enumerate(spec["probes"]):
        ab = Alphabet(probe["a"], probe["b"])
        if "kappa" in probe:
            start, offset, n = probe["kappa"]
            text = text_of(sources[(ab.a, ab.b, start)][offset:offset + n])
        else:
            text = probe["text"]
        items.append((f"probe {i}", "query", enum_probe,
                      (ab, text, "kappa" in probe), check_enum_probe))
    return items


# -- trees ---------------------------------------------------------------------


def trunk_total(a: int, b: int, i: int) -> Fraction:
    c = Fraction(4 * a, a + b - 2)
    return c * (a + b) ** i - c * 2 ** i


def tree_table(rec, span, ab, h):
    table = rec.call(span, tree_derived_complexity, ab, h)
    return table.p, table.lower, table.upper


def check_tree_table(answer, answers, span, ab, h):
    p, lower, upper = answer
    for n in range(min(h, 20) + 1):
        count = f_smooth_count(ab, n)
        if p[n] != count:
            return f"p({n}) = {p[n]} but enumeration counts {count}"
    for n in range(h + 1):
        if not lower[n] <= p[n] <= upper[n]:
            return f"p({n}) = {p[n]} outside the trunk-tree bounds"
    return None


def tree_level(rec, ab, g):
    nodes = rec.call("bispecial.tree_generation", tree_generation, ab, "T", g)
    rec.count("bispecial.vertices", len(nodes))
    return len(nodes), sum(len(node.word) for node in nodes)


def check_tree_level(answer, answers, ab, g):
    count, total = answer
    if count != 2 ** g:
        return f"{count} vertices at generation {g}, expected {2 ** g}"
    if total != trunk_total(ab.a, ab.b, g):
        return f"total length {total} off the closed form at generation {g}"
    return None


def tree_stats(rec, ab, depth, method):
    out = []
    for i in range(depth + 1):
        st = rec.call("bispecial.generation_stats", generation_stats, ab, "T",
                      i, method=method)
        out.append((st.count, st.min_len, st.max_len, st.total_len,
                    st.histogram))
    return out


def check_tree_stats(stats, answers, ab, depth, method):
    other = "state" if method == "words" else "words"
    twin = answers.get(f"stats {ab.a},{ab.b} {other}")
    if twin is not None and twin != stats:
        return f"statistics by {method} and by {other} disagree"
    for i, (count, _, _, total, _) in enumerate(stats):
        if count != 2 ** i or total != trunk_total(ab.a, ab.b, i):
            return f"generation {i}: count or total length off the closed form"
    return None


def tree_spectral(rec, alphabets):
    out = []
    for ab in alphabets:
        rep = rec.call("spectral.exponents", exponent_report, ab)
        const = rec.call("spectral.exponents", lower_bound_constants, ab)
        radius = rec.call("spectral.exponents", max_length_growth_radius, ab)
        out.append((rep, const, radius))
    return out


def check_tree_spectral(answer, answers, alphabets):
    for ab, row in zip(alphabets, answer):
        problem = check_exponents(row, ab)
        if problem is not None:
            return f"over {ab}: {problem}"
    return None


def check_exponents(answer, ab):
    rep, (c, d), radius = answer
    for field, display in REFERENCE_EXPONENT_TABLE[(ab.a, ab.b)].items():
        value = getattr(rep, field)
        if (ab.a, ab.b, field) == (1, 9, "beta"):
            # The displayed value is a known erratum; hold to its formula.
            a, b = ab.a, ab.b
            expect = math.log(2 * b * b) / math.log(2 * a * b / (a + b))
            if abs(value - expect) > 1e-12:
                return "beta over {1,9} is off its defining formula"
            continue
        decimals = len(display.split(".")[1]) if "." in display else 0
        if abs(value - float(display)) > 10.0 ** -decimals + 1e-12:
            return f"{field} = {value} does not match the displayed {display}"
    if not (c > 0 and d >= 0 and radius > 1):
        return "lower-bound constants or growth radius out of range"
    return None


def tree_probe(rec, ab, text, family, generation, level):
    w = rec.call("words.build", ab.word, text)
    rec.count("words.build_letters", len(text))
    _, family, steps = rec.call("bispecial.probe", root_of, w)
    swap = rec.call("bispecial.probe", generation_swap, w)
    return family, steps, swap.letters


def check_tree_probe(answer, answers, ab, text, family, generation, level):
    got_family, steps, swap = answer
    if (got_family, steps) != (family, generation):
        return (f"root_of gave {got_family} after {steps} steps, expected "
                f"{family} after {generation}")
    if swap not in level:
        return "generation_swap left the vertex's level"
    return None


def trees_items(spec):
    items = []
    for group, span in (("mixed", "bispecial.tree_derived_mixed"),
                        ("parity", "bispecial.tree_derived_parity")):
        for a, b, h in spec[group]:
            items.append((f"tree-derived {a},{b} h={h}", "job", tree_table,
                          (span, Alphabet(a, b), h), check_tree_table))
    for g in spec["generations"]:
        items.append((f"tree 1,2 T g={g}", "job", tree_level,
                      (Alphabet(1, 2), g), check_tree_level))
    for a, b, depth in spec["stats"]:
        for method in ("words", "state"):
            items.append((f"stats {a},{b} {method}", "job", tree_stats,
                          (Alphabet(a, b), depth, method),
                          check_tree_stats))
    items.append(("exponents of the reference alphabets", "job", tree_spectral,
                  ([Alphabet(a, b) for a, b in spec["spectral"]],),
                  check_tree_spectral))
    levels = {}
    for i, probe in enumerate(spec["probes"]):
        ab = Alphabet(probe["a"], probe["b"])
        key = (ab, probe["family"], probe["generation"])
        if key not in levels:
            levels[key] = [n.word.letters for n in tree_generation(*key)]
        text = text_of(levels[key][probe["index"]])
        items.append((f"probe {i}", "query", tree_probe,
                      (ab, text, probe["family"], probe["generation"],
                       frozenset(levels[key])), check_tree_probe))
    return items


# -- streams -------------------------------------------------------------------


def stream_kappa(rec, ab, n, start):
    word = rec.call("generators.kappa", kappa_prefix, ab, n, start=start)
    rec.count("generators.kappa_letters", n)
    return word.letters


def check_stream_kappa(letters, answers, ab, n, start):
    if len(letters) != n or letters[0] != start:
        return "wrong length or first letter"
    if not reads_itself(letters):
        return "κ does not read itself"
    ref = REFERENCE_PREFIXES.get((start, ab.other(start)))
    if ref is not None and text_of(letters[:len(ref)]) != ref:
        return "prefix differs from the reference display"
    return None


def stream_pair(rec, ab, n):
    x, y = rec.call("generators.pair", coupled_pair_prefix, ab, n)
    rec.count("generators.pair_letters", 2 * n)
    return x.letters, y.letters


def check_stream_pair(answer, answers, ab, n):
    x, y = answer
    if len(x) != n or len(y) != n:
        return "wrong length"
    x_exps, y_exps = bytes(ref_runs(x)[:-1]), bytes(ref_runs(y)[:-1])
    if not (y.startswith(x_exps) and x.startswith(y_exps)):
        return "x and y do not read each other"
    if (text_of(x[:len(REFERENCE_COUPLED_X)]) != REFERENCE_COUPLED_X
            or text_of(y[:len(REFERENCE_COUPLED_Y)]) != REFERENCE_COUPLED_Y):
        return "prefixes differ from the reference display"
    return None


def stream_window(rec, ab, text, prefix_text, greedy, embed_text, depth):
    call = rec.call
    out = {}
    w = call("words.build", ab.word, text)
    pw = call("words.build", ab.word, prefix_text)
    rec.count("words.build_letters", len(text) + len(prefix_text))
    runs = call("words.runs", lambda: w.runs)
    out["runs"] = runs.reconstruct(ab).letters
    out["complement"] = call("words.transform", w.complement).letters
    out["reversal"] = call("words.transform", w.reversal).letters
    out["parity_total"] = call("words.transform", w.parity_counts).total
    for op, fn, arg in (("f", derive_f, w), ("huang", derive_huang, w),
                        ("r", derive_r, pw)):
        out[op] = call("derivation.step", fn, arg).letters
        rec.count("derivation.step_letters", len(arg))
    chain = call("derivation.chain", derivative_chain, w)
    rec.count("derivation.chain_steps", len(chain) - 1)
    out["chain"] = [c.letters for c in chain]
    out["f_smooth"] = call("smoothness.member", is_f_smooth, w) is not None
    out["r_smooth"] = call("smoothness.member", is_r_smooth, pw)
    rec.count("smoothness.member_asked", 2)
    rec.count("smoothness.member_yes", out["f_smooth"] + out["r_smooth"])
    out["depth"] = call("generators.depth", check_smooth_depth, pw, depth)
    seed_len, extra = greedy
    seed = call("words.build", ab.word, prefix_text[:seed_len])
    out["greedy"] = call("generators.greedy", build_smooth_from_r, seed,
                         seed_len + extra).letters
    rec.count("generators.greedy_letters", extra)
    e = call("words.build", ab.word, embed_text)
    out["embed"] = call("smoothness.embed", embed_left, e).combined.letters
    return out


def check_stream_window(out, answers, ab, text, prefix_text, greedy,
                        embed_text, depth):
    a, b = ab.a, ab.b
    w = bytes(int(c) for c in text)
    pw = bytes(int(c) for c in prefix_text)
    swap = bytes.maketrans(bytes([a, b]), bytes([b, a]))
    if out["runs"] != w or out["reversal"] != w[::-1]:
        return "runs or reversal do not reproduce the window"
    if out["complement"] != w.translate(swap) or out["parity_total"] != len(w):
        return "complement or parity counts are wrong"
    for op, arg in (("f", w), ("huang", w), ("r", pw)):
        if out[op] != ref_derive(arg, a, b, op):
            return f"derivative by rule {op} is wrong"
    chain = out["chain"]
    if chain[0] != w or chain[-1] != b"" or any(
            ref_derive(x, a, b, "f") != y for x, y in zip(chain, chain[1:])):
        return "derivative chain is wrong"
    if not (out["f_smooth"] and out["r_smooth"] and out["depth"]):
        return "a κ window or prefix was rejected"
    seed_len, extra = greedy
    g = out["greedy"]
    if len(g) != seed_len + extra or not g.startswith(pw[:seed_len]):
        return "greedy extension has the wrong length or seed"
    if not all(ref_smooth(g[:k], a, b, "r") for k in range(seed_len, len(g) + 1)):
        return "greedy extension left the r-smooth language"
    e = bytes(int(c) for c in embed_text)
    if not (out["embed"].endswith(e) and ref_smooth(out["embed"], a, b, "r")):
        return "left embedding is not an r-smooth word ending in the input"
    return None


def stream_probe(rec, ab, text):
    w = rec.call("words.build", ab.word, text)
    rec.count("words.build_letters", len(text))
    member = rec.call("smoothness.member", is_r_smooth, w)
    rec.count("smoothness.member_asked")
    rec.count("smoothness.member_yes", member)
    return member


def check_stream_probe(member, answers, ab, text):
    return None if member else f"κ prefix {text} is not r-smooth"


def streams_items(spec):
    items = []
    for a, b, start, n in spec["kappa"]:
        items.append((f"kappa {a},{b} start {start}", "job", stream_kappa,
                      (Alphabet(a, b), n, start), check_stream_kappa))
    a, b, n = spec["pair"]
    items.append((f"pair {a},{b}", "job", stream_pair, (Alphabet(a, b), n),
                  check_stream_pair))
    sources = {(a, b, s): kappa_prefix(Alphabet(a, b), spec["source"],
                                       start=s).letters
               for a, b, s, _ in spec["kappa"]}
    for i, win in enumerate(spec["windows"]):
        ab = Alphabet(win["a"], win["b"])
        src = sources[(ab.a, ab.b, win["start"])]
        lo, e = win["offset"], win["embed"]
        args = (ab, text_of(src[lo:lo + win["length"]]),
                text_of(src[:win["length"]]), spec["greedy"],
                text_of(src[e:e + spec["embed_length"]]), spec["depth"])
        items.append((f"window {i}", "job", stream_window, args,
                      check_stream_window))
    for i, probe in enumerate(spec["probes"]):
        ab = Alphabet(probe["a"], probe["b"])
        src = sources[(ab.a, ab.b, probe["start"])]
        items.append((f"probe {i}", "query", stream_probe,
                      (ab, text_of(src[:probe["length"]])), check_stream_probe))
    return items


# -- cli -----------------------------------------------------------------------

ELAPSED = re.compile(rb" \[\d+\.\d+s\]$", re.M)


def normalized(stdout: bytes) -> bytes:
    """stdout without the elapsed-time field that `verify` prints."""
    return ELAPSED.sub(b"", stdout)


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    return specs.run_child([sys.executable, "-m", "smoothwords.cli", *argv],
                           timeout=150)


def cli_command(rec, case):
    code, stdout = rec.call(f"cli.{case['command']}", run_cli, case["argv"])
    return code, hashlib.sha256(normalized(stdout)).hexdigest()


def criteria(rec, case):
    """The twelve `verify` criteria in order, each timed as one call.

    `verify` prints its own timings to two decimals only, so the traced run
    times the same public check functions in-process and compares the lines
    they produce with the golden `verify --suite all` output of `case`.
    """
    seed = int(case["argv"][-1])
    lines = [rec.call(f"checks.criterion_{k}", CHECKS[k], seed=seed).line()
             for k in sorted(CHECKS)]
    stdout = normalized("".join(line + "\n" for line in lines).encode())
    return 0, hashlib.sha256(stdout).hexdigest()


def check_cli(answer, answers, case):
    code, digest = answer
    if code != case["exit"]:
        return f"exit code {code}, golden {case['exit']}"
    if digest != case["sha256"]:
        return "stdout differs from the golden capture"
    return None


def cli_items(spec):
    items = [(" ".join(case["argv"]),
              "query" if case["command"] in specs.CLI_QUERY_COMMANDS else "job",
              cli_command, (case,), check_cli)
             for case in spec["cases"]]
    if "criteria" in spec:
        items.append(("criteria 1-12 in-process", "job", criteria,
                      (spec["criteria"],), check_cli))
    return items


ITEMS = {"enumerate": enumerate_items, "trees": trees_items,
         "streams": streams_items, "cli": cli_items}


# -- one round -----------------------------------------------------------------


def execute(items, rec: Recorder, speed: Speedometer | None = None) -> None:
    for key, kind, run, args, _ in items:
        if speed is not None:
            speed.before_item()
        (rec.job if kind == "job" else rec.query)(key, run, rec, *args)


def failures(items, rec: Recorder) -> dict[str, str]:
    """Items that raised or whose answer failed its oracle, with the reason."""
    out = dict(rec.raised)
    for key, _, _, args, check in items:
        if key in rec.answers:
            problem = check(rec.answers[key], rec.answers, *args)
            if problem is not None:
                out[key] = problem
    return out


def run_round(workload: str, spec: dict, traced: bool,
              launched: float | None = None) -> dict:
    """Build the inputs, time every item, then check every answer.

    `launched` is the CLOCK_MONOTONIC reading taken before this interpreter
    was started; set-up time runs from there to the start of the timed phase.
    Times are returned as measured, each with the machine's slowdown
    while it ran (`speed.py`); the wall time leaves the reference samples
    out.
    """
    items = ITEMS[workload](spec)
    speed = Speedometer(LAUNCH if workload == "cli" else LOOP)
    rec = Recorder(traced, paused=lambda: speed.sampled_s)
    timed_from = clock_gettime(CLOCK_MONOTONIC)
    start = perf_counter()
    with speed:
        execute(items, rec, speed)
    wall = perf_counter() - start - speed.sampled_s
    failed = failures(items, rec)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"setup_s": None if launched is None else timed_from - launched,
              "wall_s": wall, "jobs_s": rec.jobs, "queries_s": rec.queries,
              "slowdown": {key: speed.slowdown(*span)
                           for key, span in rec.intervals.items()},
              "round_slowdown": statistics.median(speed.samples)
              / speed.nominal_s,
              "attempted": rec.attempted, "failed": len(failed),
              "failures": [f"{k}: {v}" for k, v in sorted(failed.items())],
              "peak_rss_mb": rss_kb / 1024}
    if traced:
        result["layers"], result["bases"] = layer_metrics(rec, specs.PER_LAYER)
    return result


def main() -> int:
    request = json.load(sys.stdin)
    result = run_round(request["workload"], request["spec"], request["traced"],
                       request["launched"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
