"""Regenerate golden.json: the CLI cases of the cli workload and their outputs.

    python3 perfbench/capture.py

Run from the root of a checkout whose CLI output is the reference.  Each
case records its argv, exit code and the SHA-256 of stdout (with the
`[x.xxs]` elapsed field of `verify` removed).  The cli workload draws its
cases from this pool by seed and compares every output byte for byte.

Left out on purpose, because they are known defects that a later fix should
not turn into a benchmark failure: `verify --format json|csv` (prints text),
negative `--length`, and letters of two digits such as `--alphabet 1,12`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), "src"]

from rounds import normalized, run_cli, text_of  # noqa: E402
from smoothwords import Alphabet, kappa_prefix  # noqa: E402
import specs  # noqa: E402

POOL_SEED = 0
FORMATS = specs.CLI_FORMATS
WORD_ALPHABETS = ((1, 2), (1, 3), (2, 5))
VERIFY_SUITES = ("oddli", "table", "all")


def pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    cases = []

    def add(group, command, fmt, args, alphabet=None):
        argv = [command, *args]
        if alphabet is not None:
            argv += ["--alphabet", f"{alphabet[0]},{alphabet[1]}"]
        argv += ["--format", fmt]
        cases.append({"group": group, "command": command, "format": fmt,
                      "argv": argv})

    for fmt in FORMATS:
        for a, b in WORD_ALPHABETS:
            k = kappa_prefix(Alphabet(a, b), 2000, start=b).letters

            def factor():
                n = rng.randrange(8, 41)
                offset = rng.randrange(1, len(k) - n)
                return text_of(k[offset:offset + n])

            def prefix():
                return text_of(k[:rng.randrange(8, 41)])

            def random_word():
                return "".join(str(rng.choice((a, b)))
                               for _ in range(rng.randrange(8, 41)))

            ab = (a, b)
            add("derive", "derive", fmt, [factor(), "--op", "f", "--chain"], ab)
            add("derive", "derive", fmt, [factor(), "--op", "f", "--chain"], ab)
            add("derive", "derive", fmt, [factor(), "--op", "huang"], ab)
            add("derive", "derive", fmt, [prefix(), "--op", "r"], ab)
            add("check", "check", fmt, [factor(), "--kind", "f"], ab)
            add("check", "check", fmt, [factor(), "--kind", "f"], ab)
            add("check", "check", fmt, [random_word(), "--kind", "f"], ab)
            add("check", "check", fmt, [prefix(), "--kind", "r"], ab)
        # One alphabet per command, so that every draw costs the same.
        for start in (1, 2):
            add("kappa", "kappa", fmt,
                ["--length", "10000", "--start", str(start)], (1, 2))
        add("pair", "pair", fmt, ["--length", "10000"], (1, 3))
        add("enumerate", "enumerate", fmt, ["--length", "20"], (1, 3))
        add("complexity", "complexity", fmt, ["--max", "30"], (1, 2))
        add("complexity-tree", "complexity", fmt,
            ["--max", "30", "--tree-only"], (2, 5))
        add("tree", "tree", fmt, ["--family", "T1", "--generation", "6"],
            (1, 3))
        add("tree-stats", "tree", fmt,
            ["--family", "T4", "--generation", "6", "--stats"], (2, 5))
        add("exponents", "exponents", fmt, [], (3, 5))
        add("exponents-table", "exponents", fmt, ["--reference-table"])
    for suite in VERIFY_SUITES:
        cases.append({"group": "verify", "command": "verify", "format": "text",
                      "suite": suite,
                      "argv": ["verify", "--suite", suite, "--seed", "{seed}"]})
    return cases


def capture(case: dict) -> dict:
    outputs = set()
    # `verify --seed` only reseeds random inputs; the output must not depend
    # on it, which is what lets one capture serve every seed.
    seeds = (0, specs.HELD_OUT_SEED) if "{seed}" in case["argv"] else (0,)
    for seed in seeds:
        code, stdout = run_cli([specs.seed_arg(x, seed) for x in case["argv"]])
        stdout = normalized(stdout)
        outputs.add((code, hashlib.sha256(stdout).hexdigest(), len(stdout)))
    if len(outputs) != 1:
        raise SystemExit(f"output of {case['argv']} depends on the seed")
    ((code, digest, size),) = outputs
    return dict(case, exit=code, sha256=digest, bytes=size)


def main() -> int:
    if not Path("src/smoothwords/__init__.py").is_file():
        print("error: run from the root of a smoothwords checkout",
              file=sys.stderr)
        return 2
    cases = [capture(case) for case in pool()]
    bad = [c["argv"] for c in cases if c["exit"] != 0]
    if bad:
        raise SystemExit(f"cases that do not succeed: {bad}")
    specs.GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"{len(cases)} cases written to {specs.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
