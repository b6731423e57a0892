"""Command-line interface.

One executable with subcommands over a global `--alphabet a,b` (either
order).  stdout carries data; stderr carries diagnostics.  Exit codes:
0 success, 1 verification or derivation failure, 2 usage error, 3 resource
cap refused the request.  Any other exception is a fault of the program: it
propagates, so the process exits 1 with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Iterable, Optional

import smoothwords  # every other module loads on first use, through the package

from .derivation import (_RULES, _derivatives, derivability, derive_f, derive_huang,
                         derive_r, is_f_smooth, is_r_smooth)
from .errors import (FAMILIES, SUITES, InvalidFamilyError, ResourceCapError,
                     SmoothWordsError, UsageError, _check_size)
from .words import Alphabet, Word

_OPS = {"f": derive_f, "r": derive_r, "huang": derive_huang}


def _integer(text: str) -> int:
    """`int`, but of an optional '-' and ASCII digits only."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_alphabet(text: str) -> Alphabet:
    try:
        x, y = map(_integer, text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(
            f"alphabet must be two comma-separated integers, got {text!r}"
        ) from None
    return Alphabet(min(x, y), max(x, y))


def _emit(fmt: str, payload: dict, header: list[str], rows: Iterable,
          lines: Iterable[str]) -> None:
    """Print one record: `payload` as JSON, `header` and `rows` as CSV with
    LF endings, or `lines` as text; each is written as it is read, so an
    iterator of rows or lines is read only by the format that prints it."""
    if fmt == "json":
        json.dump(payload, sys.stdout, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        sys.stdout.writelines(line + "\n" for line in lines)


# -- subcommand handlers -----------------------------------------------------


def _cmd_derive(args, alphabet: Alphabet) -> int:
    word = alphabet.word(args.word)
    op = _OPS[args.op]
    payload = {"alphabet": str(alphabet), "operation": args.op,
               "input": word.render()}
    if not args.chain:
        result = op(word).render()
        _emit(args.format, {**payload, "result": result},
              ["input", "operation", "result"],
              [[payload["input"], args.op, result]], [result or "(empty)"])
        return 0
    chain = [Word(alphabet, w) for w in _derivatives(
        word.letters, alphabet.a, alphabet.b, _RULES[args.op])]
    steps = payload["chain"] = [w.render() for w in chain]
    if chain[-1]:  # the walk ends at the word it could not derive
        payload["failed_at_step"] = len(chain)
        payload["error"] = (f"step {len(chain)}: {steps[-1]} not derivable "
                            f"({derivability(chain[-1], args.op).reason})")
    else:
        payload["height"] = len(chain) - 1
    _emit(args.format, payload, ["step", "word"], list(enumerate(steps)),
          [f"{i}: {step or '(empty)'}" for i, step in enumerate(steps)])
    if chain[-1]:
        print(payload["error"], file=sys.stderr)
        return 1
    return 0


def _cmd_check(args, alphabet: Alphabet) -> int:
    word = alphabet.word(args.word)
    if args.kind == "f":
        cert = is_f_smooth(word)
        member = cert is not None
    else:
        cert, member = None, is_r_smooth(word)
    text = word.render()
    payload = {"alphabet": str(alphabet), "word": text, "kind": args.kind,
               "member": member}
    lines = [f"member: {'yes' if member else 'no'}"]
    if cert is not None:
        chain = [w.render() for w in cert.chain]
        payload["height"] = cert.height
        payload["chain"] = chain
        lines.append(f"height: {cert.height}")
        lines.append("chain: " + " -> ".join(w or "(empty)" for w in chain))
    _emit(args.format, payload, ["word", "kind", "member"],
          [[text, args.kind, str(member).lower()]], lines)
    return 0


def _cmd_kappa(args, alphabet: Alphabet) -> int:
    start = args.start if args.start is not None else alphabet.b
    word = smoothwords.generators.kappa_prefix(alphabet, args.length,
                                               start=start).render()
    header = ["alphabet", "start", "length", "word"]
    row = [str(alphabet), start, args.length, word]
    _emit(args.format, dict(zip(header, row)), header, [row], [word])
    return 0


def _cmd_pair(args, alphabet: Alphabet) -> int:
    pair = smoothwords.generators.coupled_pair_prefix(alphabet, args.length)
    x, y = (w.render() for w in pair)
    _emit(args.format,
          {"alphabet": str(alphabet), "length": args.length, "x": x, "y": y},
          ["side", "word"], [["x", x], ["y", y]], [x, y])
    return 0


def _cmd_enumerate(args, alphabet: Alphabet) -> int:
    words = smoothwords.smoothness.enumerate_f_smooth(alphabet, args.length)
    for i, word in enumerate(words):  # each Word goes as its text comes
        words[i] = word.render()
    _emit(args.format,
          {"alphabet": str(alphabet), "length": args.length,
           "count": len(words), "words": words},
          ["word"], zip(words), words)
    return 0


def _cmd_complexity(args, alphabet: Alphabet) -> int:
    horizon = args.max
    # the table is built to --max + 2, so the cap is taken off by 2
    _check_size("--max", horizon, smoothwords.bispecial.MAX_HORIZON - 2)
    if args.tree_only:
        table = smoothwords.bispecial.tree_derived_complexity(alphabet, horizon + 2)
    else:
        table = smoothwords.smoothness.exact_complexity(alphabet, horizon + 2)
    rows = [
        [n, table.p[n], table.s[n], table.b[n], table.lower[n], table.upper[n]]
        for n in range(horizon + 1)
    ]
    header = ["n", "p", "s", "b", "lower_bound", "upper_bound"]
    _emit(args.format,
          {"alphabet": str(alphabet), "provenance": table.provenance,
           "columns": header, "rows": rows},
          header, rows, [" ".join(map(str, row)) for row in [header, *rows]])
    return 0


def _cmd_tree(args, alphabet: Alphabet) -> int:
    if args.stats:
        stats = smoothwords.bispecial.generation_stats(alphabet, args.family,
                                                       args.generation)
        *header, _ = stats.__slots__  # every field but the histogram
        row = [getattr(stats, f) for f in header]
        histogram = {str(k): v for k, v in stats.histogram.items()}
        lines = [f"{key}: {value}" for key, value in zip(header, row)]
        lines.append("histogram: " + ", ".join(f"{k}:{v}"
                                               for k, v in histogram.items()))
        _emit(args.format,
              {"alphabet": str(alphabet), **dict(zip(header, row)),
               "histogram": histogram},
              header, [row], lines)
        return 0
    nodes = smoothwords.bispecial.tree_generation(alphabet, args.family,
                                                  args.generation)
    words = [n.word.render() for n in nodes]
    _emit(args.format,
          {"alphabet": str(alphabet), "family": args.family,
           "generation": args.generation, "words": words},
          ["word", "multiplicity"],
          [[w, n.multiplicity] for w, n in zip(words, nodes)],
          [w or "(empty)" for w in words])
    return 0


def _reference_table_cells() -> list[tuple[str, dict[str, str]]]:
    """Computed exponent values formatted at the reference display widths."""
    spectral = smoothwords.spectral
    cells = []
    for (a, b), row in spectral.REFERENCE_EXPONENT_TABLE.items():
        rep = spectral.exponent_report(Alphabet(a, b))
        formatted = {}
        for field, shown in row.items():
            decimals = spectral._display_decimals(shown)
            formatted[field] = f"{getattr(rep, field):.{decimals}f}"
        cells.append((f"{{{a},{b}}}", formatted))
    return cells


def _cmd_exponents(args, alphabet: Alphabet) -> int:
    if args.reference_table:
        cells = _reference_table_cells()
        names = [name for name, _ in cells]
        fields = list(cells[0][1])  # the exponents of a row of the table
        width = max(map(len, names)) + 2
        _emit(args.format,
              {"columns": names,
               "rows": {f: [c[f] for _, c in cells] for f in fields}},
              ["alphabet", *fields],
              [[name, *(c[f] for f in fields)] for name, c in cells],
              ["exponent".ljust(10) + "".join(n.ljust(width) for n in names),
               *(f.ljust(10) + "".join(c[f].ljust(width) for _, c in cells)
                 for f in fields)])
        return 0
    rep = smoothwords.spectral.exponent_report(alphabet)
    values = {f: getattr(rep, f) for f in rep.formulas}
    fixed = {f: None if v is None else f"{v:.12f}" for f, v in values.items()}
    rounded = {f: None if v is None else round(v, 12) for f, v in values.items()}
    _emit(args.format,
          {"alphabet": str(alphabet), **rounded, "formulas": rep.formulas},
          ["field", "value", "formula"],
          [[f, fixed[f] or "", formula] for f, formula in rep.formulas.items()],
          [f"{f} = {fixed[f] or 'n/a'}" for f in values])
    return 0


_VERIFY_FIELDS = ("criterion", "name", "passed", "detail", "elapsed")


def _cmd_verify(args, alphabet: Optional[Alphabet]) -> int:
    results = smoothwords.checks.run_suite(args.suite, alphabet=alphabet,
                                           seed=args.seed)
    records = [{f: getattr(r, f) for f in _VERIFY_FIELDS} for r in results]
    _emit(args.format, {"suite": args.suite, "results": records},
          list(_VERIFY_FIELDS),
          [[r.criterion, r.name, str(r.passed).lower(), r.detail, r.elapsed]
           for r in results],
          [r.line() for r in results])
    return 0 if all(r.passed for r in results) else 1


# -- parser ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, suppress: bool) -> None:
    # Accepted before or after the subcommand; the later value wins.
    p.add_argument("--alphabet", metavar="a,b",
                   default=argparse.SUPPRESS if suppress else None,
                   help="the two letters, either order (default 1,2)")
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default=argparse.SUPPRESS if suppress else "text",
                   help="output format (default text)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothwords",
        description="Smooth words over two-letter alphabets: derivation, "
                    "generation, bispecial trees, complexity, exponents.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="one derivation step or a full chain")
    p.add_argument("word")
    p.add_argument("--op", choices=sorted(_OPS), default="f")
    p.add_argument("--chain", action="store_true",
                   help="iterate to the empty word or the first failure")

    p = sub.add_parser("check", help="membership with certificate")
    p.add_argument("word")
    p.add_argument("--kind", choices=("f", "r"), default="f")

    p = sub.add_parser("kappa", help="prefix of the self-reading fixed point")
    p.add_argument("--start", type=_integer, default=None,
                   help="first letter (default: the larger letter)")
    p.add_argument("--length", type=_integer, required=True)

    p = sub.add_parser("pair", help="coupled pair of self-reading words")
    p.add_argument("--length", type=_integer, required=True)

    p = sub.add_parser("enumerate", help="all f-smooth words of one length")
    p.add_argument("--length", type=_integer, required=True)

    p = sub.add_parser("complexity", help="factor complexity with bounds")
    p.add_argument("--max", type=_integer, required=True, metavar="N")
    p.add_argument("--tree-only", action="store_true",
                   help="derive counts from the bispecial trees instead of "
                        "enumerating")

    p = sub.add_parser("tree", help="one generation of a bispecial family")
    p.add_argument("--family", choices=FAMILIES, default="T")
    p.add_argument("--generation", type=_integer, required=True)
    p.add_argument("--stats", action="store_true",
                   help="lengths and totals instead of the word listing")

    p = sub.add_parser("exponents", help="growth exponents of the alphabet")
    p.add_argument("--reference-table", action="store_true",
                   help="nine-alphabet comparison table at display precision")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    p.add_argument("--seed", type=_integer, default=0)

    for sp in sub.choices.values():
        _add_common(sp, suppress=True)
    return parser


_HANDLERS = {
    "derive": _cmd_derive,
    "check": _cmd_check,
    "kappa": _cmd_kappa,
    "pair": _cmd_pair,
    "enumerate": _cmd_enumerate,
    "complexity": _cmd_complexity,
    "tree": _cmd_tree,
    "exponents": _cmd_exponents,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        given = (_parse_alphabet(args.alphabet)
                 if args.alphabet is not None else None)
        if args.command == "verify":
            return _cmd_verify(args, given)
        return _HANDLERS[args.command](args, given or Alphabet(1, 2))
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidFamilyError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SmoothWordsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe; not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
