"""End-to-end CLI tests through the real argv entry point."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from smoothwords.cli import main

REF_60 = "221121221221121122121121221121121221221121221211211221221121"
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden.json"
ELAPSED = re.compile(r" \[\d+\.\d+s\]$", re.M)  # the timing `verify` prints


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout/stderr and the exit code."""
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


LEVEL_190 = ("error: level 190 of the f-smooth words over {1,2} could add "
             "157,020 words to 4,039,361, above the budget of 4,194,304\n")


def refused_before_any_level(monkeypatch, argv):
    """The stderr of a command that must exit 3 before the automaton walks
    to a level, steps one or works out a state."""
    from smoothwords import smoothness

    def unreachable(*args):
        raise AssertionError("a level was walked before the budget check")

    def kept(x):
        return x.n, x.states, x.words, len(x.p), len(x.letter)

    languages = dict(smoothness._LANGUAGES)
    levels = {ab: kept(x) for ab, x in languages.items()}
    for walk in ("walk", "_step", "_grow"):
        monkeypatch.setattr(smoothness._Automaton, walk, unreachable)
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, "")
    assert smoothness._LANGUAGES == languages
    assert {ab: kept(x) for ab, x in languages.items()} == levels
    return err


def checkout_env():
    """The environment of a fresh interpreter that imports this checkout's
    package."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=checkout_env())


def run_module(*argv):
    """Run `python -m smoothwords.cli` in a fresh interpreter."""
    return run_python("-m", "smoothwords.cli", *argv)


class TestDerive:
    def test_single_step(self):
        code, out, _ = run_cli("derive", "--op", "f", "122112")
        assert code == 0
        assert out == "22\n"

    def test_chain_success(self):
        code, out, _ = run_cli("derive", "--op", "r", "22112", "--chain")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0: 22112"
        assert lines[-1].endswith("(empty)")

    def test_chain_failure_reports_step_and_word(self):
        code, out, err = run_cli("derive", "--op", "f", "12121",
                                 "--alphabet", "1,2", "--chain")
        assert code == 1
        assert "0: 12121" in out and "1: 111" in out
        assert "step 2" in err
        assert "111 not derivable" in err

    def test_huang_op(self):
        code, out, _ = run_cli("--alphabet", "1,4", "derive", "--op", "huang",
                               "4444111144441111444")
        assert code == 0
        assert out == "4444\n"

    def test_json_chain(self):
        code, out, _ = run_cli("derive", "221121221", "--chain",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["height"] == 4
        assert payload["chain"][0] == "221121221"
        assert payload["chain"][-1] == ""

    def test_underivable_word_exits_1(self):
        assert run_cli("derive", "111") == (
            1, "", "error: word '111' has no two-sided derivative: boundary "
            "exponent outside [1,b] (run 0, exponent 3)\n")


R_ERROR = "step 3: 111 not derivable (final exponent outside [1,b])"
HUANG_ERROR = "step 3: 111 not derivable (boundary exponent outside [1,b])"
FAILING_CHAINS = [
    ("r", "122122", "text", "0: 122122\n1: 1212\n2: 111\n", R_ERROR),
    ("r", "122122", "json",
     '{\n  "alphabet": "{1,2}",\n  "operation": "r",\n  "input": "122122",\n'
     '  "chain": [\n    "122122",\n    "1212",\n    "111"\n  ],\n'
     f'  "failed_at_step": 3,\n  "error": "{R_ERROR}"\n}}\n', R_ERROR),
    ("r", "122122", "csv", "step,word\n0,122122\n1,1212\n2,111\n", R_ERROR),
    ("huang", "11211211", "text", "0: 11211211\n1: 21212\n2: 111\n",
     HUANG_ERROR),
    ("huang", "11211211", "json",
     '{\n  "alphabet": "{1,2}",\n  "operation": "huang",\n'
     '  "input": "11211211",\n  "chain": [\n    "11211211",\n    "21212",\n'
     f'    "111"\n  ],\n  "failed_at_step": 3,\n  "error": "{HUANG_ERROR}"\n}}\n',
     HUANG_ERROR),
    ("huang", "11211211", "csv", "step,word\n0,11211211\n1,21212\n2,111\n",
     HUANG_ERROR),
]


@pytest.mark.parametrize("op, word, fmt, out, error", FAILING_CHAINS)
def test_failing_chain_prints_the_same_bytes(op, word, fmt, out, error):
    # the chain ends at the word that fails; the reason goes to stderr
    assert run_cli("derive", "--op", op, word, "--chain", "--format", fmt) == (
        1, out, error + "\n")


class TestCheck:
    def test_member_with_certificate(self):
        code, out, _ = run_cli("check", "221121221", "--kind", "f")
        assert code == 0
        assert "member: yes" in out
        assert "height: 4" in out

    def test_non_member(self):
        code, out, _ = run_cli("check", "12121", "--kind", "f")
        assert code == 0
        assert "member: no" in out

    def test_r_kind(self):
        code, out, _ = run_cli("check", "21", "--kind", "r")
        assert code == 0
        assert "member: yes" in out


class TestKappa:
    def test_reference_prefix_either_alphabet_order(self):
        code, out, _ = run_cli("kappa", "--alphabet", "2,1", "--start", "2",
                               "--length", "62")
        assert code == 0
        word = out.strip()
        assert len(word) == 62
        assert word.startswith(REF_60)

    def test_default_start_is_larger_letter(self):
        _, explicit, _ = run_cli("kappa", "--start", "2", "--length", "30")
        _, default, _ = run_cli("kappa", "--length", "30")
        assert default == explicit

    def test_json_payload(self):
        code, out, _ = run_cli("kappa", "--length", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["start"] == 2
        assert len(payload["word"]) == 10

    def test_negative_length_is_usage_error(self):
        code, out, err = run_cli("kappa", "--length", "-3")
        assert code == 2
        assert out == ""
        assert "nonnegative" in err

    def test_length_above_cap_exits_3(self):
        code, out, err = run_cli("kappa", "--length", "10000001")
        assert code == 3
        assert out == ""
        assert "cap" in err


class TestPair:
    def test_coupled_pair(self):
        code, out, _ = run_cli("--alphabet", "1,3", "pair", "--length", "67")
        assert code == 0
        x, y = out.splitlines()
        assert len(x) == len(y) == 67
        assert "33" not in x and "33" not in y

    def test_rejected_alphabet_is_usage_error(self):
        code, _, err = run_cli("--alphabet", "2,4", "pair", "--length", "10")
        assert code == 2
        assert err

    def test_negative_length_is_usage_error(self):
        code, out, err = run_cli("--alphabet", "1,3", "pair", "--length", "-1")
        assert code == 2
        assert out == ""
        assert "nonnegative" in err

    def test_length_above_cap_exits_3(self):
        code, out, err = run_cli("--alphabet", "1,3", "pair",
                                 "--length", "10000001")
        assert code == 3
        assert out == ""
        assert "cap" in err


class TestEnumerate:
    def test_newline_delimited(self):
        code, out, _ = run_cli("enumerate", "--length", "3")
        assert code == 0
        assert out.splitlines() == ["112", "121", "122", "211", "212", "221"]

    def test_cap_refusal_exits_3(self):
        code, out, err = run_cli("enumerate", "--length", str(10 ** 9))
        assert code == 3
        assert out == ""
        assert err == LEVEL_190

    @pytest.mark.parametrize("argv, stderr", [
        (["enumerate", "--length", "200"], LEVEL_190),
        (["--alphabet", "1,255", "enumerate", "--length", "2000"],
         "error: level 894 of the f-smooth words over {1,255} could add "
         "22,800 words to 4,180,885, above the budget of 4,194,304\n"),
        (["--alphabet", "254,255", "enumerate", "--length", "3000"],
         "error: level 1679 of the f-smooth words over {254,255} could add "
         "11,388 words to 4,185,093, above the budget of 4,194,304\n"),
    ])
    def test_node_budget_is_decided_before_any_level(self, monkeypatch, argv,
                                                     stderr):
        assert refused_before_any_level(monkeypatch, argv) == stderr

    @pytest.mark.parametrize("argv", [["enumerate", "--length", "65"],
                                      ["complexity", "--max", "63"]])
    def test_takes_no_cap(self, argv):
        code, out, err = run_cli(*argv, "--cap", "70")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --cap 70" in err


class TestComplexity:
    def test_csv_columns(self):
        code, out, _ = run_cli("complexity", "--max", "5", "--format", "csv")
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "n,p,s,b,lower_bound,upper_bound"
        assert lines[1] == "0,1,1,1,1,1"
        # {1,2}: p(5)=14 and the lower bound is tight
        assert lines[6].startswith("5,14,")
        assert lines[6].split(",")[4] == "14"
        assert out.endswith("\n")

    def test_negative_max_is_usage_error(self):
        code, out, err = run_cli("complexity", "--max", "-1")
        assert code == 2
        assert out == ""
        assert "nonnegative" in err

    @pytest.mark.parametrize("tree_only", [[], ["--tree-only"]])
    def test_horizon_above_cap_exits_3(self, tree_only):
        # the table goes to --max + 2, so the cap on --max is 2 below the
        # horizon's, and the refusal names the number typed
        for horizon in ("99999", "1000000000"):
            code, out, err = run_cli("complexity", "--max", horizon, *tree_only)
            assert code == 3
            assert out == ""
            assert err == f"error: --max {horizon} above cap 99998\n"

    def test_tree_walk_budget_is_checked_before_any_level(self, monkeypatch):
        from smoothwords import bispecial

        # spelling a level would call None
        monkeypatch.setattr(bispecial, "_spell", None)
        code, out, err = run_cli("complexity", "--max", "1525", "--tree-only")
        assert code == 3
        assert out == ""
        assert err.startswith("error: horizon 1527 over {1,2}: ")

    def test_enumeration_cap_is_checked_before_any_work(self, monkeypatch):
        argv = ["complexity", "--max", "188"]  # enumerated to length 190
        assert refused_before_any_level(monkeypatch, argv) == LEVEL_190

    def test_tree_only_matches_enumeration(self):
        _, exact, _ = run_cli("--alphabet", "1,4", "complexity", "--max", "9",
                              "--format", "csv")
        _, tree, _ = run_cli("--alphabet", "1,4", "complexity", "--max", "9",
                             "--tree-only", "--format", "csv")
        assert exact == tree


class TestTree:
    def test_generation_listing(self):
        code, out, _ = run_cli("--alphabet", "1,2", "tree", "--family", "T",
                               "--generation", "1")
        assert code == 0
        assert sorted(out.split()) == ["12", "21"]

    def test_stats(self):
        code, out, _ = run_cli("--alphabet", "1,2", "tree", "--family", "T",
                               "--generation", "3", "--stats")
        assert code == 0
        assert "count: 8" in out

    def test_invalid_family_is_usage_error(self):
        code, _, _ = run_cli("--alphabet", "1,2", "tree", "--family", "T1",
                             "--generation", "2")
        assert code == 2

    def test_letter_budget_exits_3(self):
        code, _, err = run_cli("tree", "--family", "T", "--generation", "25")
        assert code == 3
        assert err.endswith(" letters, above the budget of 80,000,000\n")

    @pytest.mark.parametrize("argv, message", [
        (["--alphabet", "1,3", "tree", "--stats", "--generation", "21"],
         "could hold 2,097,152 distinct parity-count states"),
        (["--alphabet", "3,5", "tree", "--stats", "--generation", "21"],
         "could hold 2,097,152 distinct parity-count states"),
        (["tree", "--generation", "16"], "about 172,186,884 letters"),
        (["tree", "--stats", "--generation", "16"], "about 172,186,884 letters"),
        (["tree", "--generation", "5000"], "generation 5000 above cap 1000"),
        (["tree", "--stats", "--generation", "5000"],
         "generation 5000 above cap 1000"),
        (["--alphabet", "2,4", "tree", "--generation", "647"],
         "about 5.82e503 letters"),
        (["--alphabet", "254,255", "tree", "--generation", "1000"],
         " letters, above the budget"),
        (["--alphabet", "2,4", "tree", "--stats", "--generation", "1001"],
         "generation 1001 above cap 1000"),
        (["--alphabet", "2,4", "tree", "--generation", "1001"],
         "generation 1001 above cap 1000"),
    ])
    def test_refusal_is_one_short_line_before_any_work(self, monkeypatch,
                                                       argv, message):
        from smoothwords import bispecial

        # building a level would call None on either route
        monkeypatch.setattr(bispecial, "_state_levels", None)
        monkeypatch.setattr(bispecial, "_spell", None)
        code, out, err = run_cli(*argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200 and message in err

    @pytest.mark.parametrize("family", ["T", "T3"])
    def test_even_alphabet_stats_reach_the_ceiling(self, family):
        code, out, _ = run_cli("--alphabet", "2,4", "tree", "--stats",
                               "--family", family, "--generation", "1000")
        assert code == 0
        assert f"count: {2 ** 1000}\n" in out

    def test_tree_takes_no_cap(self):
        code, out, err = run_cli("tree", "--generation", "2", "--cap", "30")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --cap 30" in err

    @pytest.mark.parametrize("stats", [[], ["--stats"]])
    def test_negative_generation_is_usage_error(self, stats):
        code, out, err = run_cli("tree", "--generation", "-1", *stats)
        assert code == 2
        assert out == ""
        assert "nonnegative" in err


class TestExponents:
    def test_text_report(self):
        code, out, _ = run_cli("exponents", "--alphabet", "1,3")
        assert code == 0
        assert "rho = 2.000000000000" in out

    def test_even_alphabet_has_no_zeta(self):
        code, out, _ = run_cli("exponents", "--alphabet", "2,4")
        assert code == 0
        assert "zeta = n/a" in out

    def test_reference_table_csv(self):
        code, out, _ = run_cli("exponents", "--reference-table",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["alphabet", "rho", "zeta", "beta"]
        cells = {row[0]: row[1:] for row in rows[1:]}
        assert cells["{1,3}"] == ["2", "2.44", "7.129"]
        # the one reference cell that contradicts its own formula
        assert cells["{1,9}"][2] == "8.656"


class TestVerify:
    def test_single_suite_passes(self):
        code, out, _ = run_cli("verify", "--suite", "table")
        assert code == 0
        assert out.startswith("PASS criterion 10")

    def test_alphabet_filter(self):
        code, out, _ = run_cli("verify", "--suite", "mistake",
                               "--alphabet", "1,4")
        assert code == 0
        assert "{1,4}" in out

    def test_filter_skips_criteria_without_the_alphabet(self):
        # only criterion 1 has a sub-check over {2,5}
        code, out, _ = run_cli("verify", "--alphabet", "2,5")
        assert code == 0
        first, *rest = ELAPSED.sub("", out).splitlines()
        assert first == ("PASS criterion 1 (reference prefixes): "
                         "1 reference prefixes reproduced exactly")
        assert len(rest) == 11
        for line in rest:
            assert line.startswith("PASS criterion ")
            assert ": skipped: only applies to {" in line

    def test_unknown_suite_is_usage_error(self):
        code, _, _ = run_cli("verify", "--suite", "bogus")
        assert code == 2

    def test_json_records(self):
        code, out, _ = run_cli("verify", "--suite", "table", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "table"
        (record,) = payload["results"]
        assert list(record) == ["criterion", "name", "passed", "detail",
                                "elapsed"]
        assert record["criterion"] == 10 and record["passed"] is True

    def test_csv_records(self):
        code, out, _ = run_cli("verify", "--suite", "table", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert out.startswith("criterion,name,passed,detail,elapsed\n")
        assert [(r["criterion"], r["passed"]) for r in rows] == [("10", "true")]


class TestFormats:
    def test_json_round_trip_is_byte_identical(self):
        _, out, _ = run_cli("exponents", "--alphabet", "3,5",
                            "--format", "json")
        reparsed = json.dumps(json.loads(out), indent=2, ensure_ascii=False)
        assert out == reparsed + "\n"

    def test_json_key_order_is_stable(self):
        _, first, _ = run_cli("kappa", "--length", "12", "--format", "json")
        _, second, _ = run_cli("kappa", "--length", "12", "--format", "json")
        assert first == second
        assert list(json.loads(first)) == ["alphabet", "start", "length",
                                           "word"]

    def test_csv_uses_lf(self):
        _, out, _ = run_cli("enumerate", "--length", "2", "--format", "csv")
        assert "\r" not in out
        assert out == "word\n11\n12\n21\n22\n"

    def test_malformed_alphabet_is_usage_error(self):
        for text in ("1;2", "x,2"):
            code, out, err = run_cli("--alphabet", text, "kappa",
                                     "--length", "5")
            assert code == 2
            assert out == ""
            assert err == ("error: alphabet must be two comma-separated "
                           f"integers, got {text!r}\n")

    def test_malformed_word_is_usage_error(self):
        code, _, _ = run_cli("derive", "307")
        assert code == 2

    def test_unparsable_letter_is_named(self):
        for word, token in (("x", "x"), ("1,,2", ""), ("1 2", " ")):
            code, out, err = run_cli("derive", word)
            assert code == 2
            assert out == ""
            assert err == f"error: letter {token!r} is not an integer\n"

    def test_letter_beyond_a_byte_is_named(self):
        code, out, err = run_cli("derive", "1212", "--alphabet", "1,12")
        assert code == 2
        assert out == ""
        assert err == "error: letter 1212 not in alphabet {1,12}\n"


def test_stdout_matches_golden_captures():
    """Every case of the benchmark's golden pool, replayed in-process with
    seed 0: same exit code and byte-identical stdout once the timings of
    `verify` are removed.  `verify --suite all` is left to
    tests/test_acceptance.py, which compares its one run of the suite."""
    cases = [c for c in json.loads(GOLDEN.read_text())["cases"]
             if c.get("suite") != "all"]
    assert len([c for c in cases if c["command"] == "verify"]) == 2
    mismatched = []
    for case in cases:
        code, out, _ = run_cli(*(a.replace("{seed}", "0") for a in case["argv"]))
        digest = hashlib.sha256(ELAPSED.sub("", out).encode()).hexdigest()
        if (code, digest) != (case["exit"], case["sha256"]):
            mismatched.append(case["argv"])
    assert mismatched == []


def test_console_entry_point():
    """The module also runs as a script (and the installed entry point
    wraps the same main)."""
    proc = run_module("derive", "--op", "f", "2211")
    assert proc.returncode == 0
    assert proc.stdout == "22\n"


@pytest.mark.parametrize("fmt, first", [("text", b"2"), ("json", b"{")])
def test_closed_stdout_exits_0(fmt, first):
    """A reader that closes the pipe early (head, less) is not an error.
    The 10^7-letter prefix cannot fit in the pipe: in text it is one write,
    cut short, and in JSON the writes after it fail."""
    with subprocess.Popen(
            [sys.executable, "-m", "smoothwords.cli", "kappa", "--length",
             "10000000", "--format", fmt], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=checkout_env()) as proc:
        read = proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read()
    assert (read, proc.returncode, err) == (first, 0, b"")


def test_argparse_usage_error_exits_2():
    proc = run_module("derive", "--op", "zzz", "22")
    assert proc.returncode == 2


def test_internal_fault_exits_1_with_its_traceback():
    """A broken invariant inside the program is not reported as a usage
    error: here `_spell` is handed an exponent off its pair."""
    code = ("import sys\n"
            "from smoothwords import cli, generators, words\n"
            "generators._spell = lambda exponents, first, second: "
            "words._spell(b'\\x03', first, second)\n"
            "sys.exit(cli.main(['kappa', '--length', '5']))")
    proc = run_python("-c", code)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith("\nValueError: exponents to spell must be 2 or 1\n")


HUGE = 10 ** 20
_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_NUMBERS = st.one_of(st.integers(max_value=-1), st.integers(min_value=10 ** 8))
# Values no size flag takes: negative, above every cap, not in ASCII digits
# (which int() alone reads), or not an integer at all.
BAD_SIZES = st.one_of(
    _NUMBERS.map(str),
    _NUMBERS.map(lambda n: str(n).translate(_INDIC)),
    st.integers(0, 99).map(lambda n: str(n).translate(_INDIC)),
    st.sampled_from(["", "x", "1.5", "1e3", "0x10", "½", "٣.٥", "--", "-x"]),
)
BAD_ALPHABETS = st.one_of(
    st.sampled_from(["0,1", "1,1", "1,256", f"1,{HUGE}", "-1,2", "1;2", "x,2",
                     "1,2,3", "", ",", "1,", "١,٠", "٣٠٠,١"]),
    st.tuples(st.integers(), st.integers())
      .filter(lambda t: not 1 <= min(t) < max(t) <= 255)
      .map(lambda t: f"{t[0]},{t[1]}"),
)
# Words over {1,2} with one token that is no letter of it.
BAD_WORDS = st.builds(
    "".join,
    st.tuples(st.text("12", max_size=4),
              st.sampled_from(["0", "3", "9", "x", "٣", ",,", "-", "12,"]),
              st.text("12", max_size=4)))
GOOD_COMMANDS = [["derive", "12"], ["check", "12"], ["kappa", "--length", "5"],
                 ["pair", "--length", "5"], ["enumerate", "--length", "3"],
                 ["complexity", "--max", "3"], ["tree", "--generation", "2"],
                 ["exponents"], ["verify", "--suite", "table"]]
SIZED = [["kappa", "--length"], ["kappa", "--length", "5", "--start"],
         ["--alphabet", "1,3", "pair", "--length"], ["enumerate", "--length"],
         ["complexity", "--max"], ["complexity", "--tree-only", "--max"],
         ["tree", "--generation"], ["tree", "--stats", "--generation"]]
BAD_ARGV = st.one_of(
    st.builds(lambda ab, cmd: ["--alphabet", ab, *cmd],
              BAD_ALPHABETS, st.sampled_from(GOOD_COMMANDS)),
    st.builds(lambda cmd, word: [cmd, word],
              st.sampled_from(["derive", "check"]), BAD_WORDS),
    st.builds(lambda cmd, value: [*cmd, value], st.sampled_from(SIZED), BAD_SIZES),
    st.builds(lambda flag, value: ["verify", flag, value],
              st.sampled_from(["--suite", "--seed"]),
              st.sampled_from(["", "x", "1.5", "bogus"])),
    # generations past the ceiling
    st.builds(lambda ab, family, g, stats: [
        "--alphabet", ab, "tree", "--family", family, "--generation", str(g),
        *stats],
        st.sampled_from(["1,2", "1,3", "2,4", "100,255"]),
        st.sampled_from(["T", "T1", "T3"]), st.sampled_from([1001, 1024, 5526, 6000]),
        st.sampled_from([[], ["--stats"]])),
)


@given(BAD_ARGV)
@example(["--alphabet", "1,2", "tree", "--generation", "1024"])
@example(["--alphabet", "1,2", "tree", "--generation", "1024", "--stats"])
@example(["--alphabet", "1,2", "tree", "--generation", "1000"])
@example(["--alphabet", "2,4", "tree", "--generation", "647"])
@example(["--alphabet", "2,4", "tree", "--generation", "1001", "--stats"])
@example(["--alphabet", "2,4", "tree", "--generation", "5526", "--stats"])
@example(["--alphabet", "100,255", "tree", "--generation", "138"])
@example(["--alphabet", "1,3", "tree", "--generation", "21", "--stats"])
@example(["kappa", "--length", str(HUGE)])
# the first lengths the enumeration's word budget refuses
@example(["enumerate", "--length", "190"])
@example(["complexity", "--max", "188"])
@example(["--alphabet", "1,255", "enumerate", "--length", "894"])
@example(["--alphabet", "254,255", "enumerate", "--length", "1679"])
# int() alone reads other decimal digits, '+', '_' and spaces
@example(["derive", "١٢"])
@example(["--alphabet", "١,٢", "kappa", "--length", "5"])
@example(["kappa", "--length", "٥"])
@example(["kappa", "--length", "1_0"])
@example(["derive", "1,+2"])
@example(["--alphabet", "+1,2", "kappa", "--length", "3"])
@example(["tree", "--generation", "٣"])
# a word's text may carry ASCII whitespace around it, not Unicode spaces
@example(["derive", "\u300012 "])
@settings(max_examples=300, deadline=None)
def test_bad_input_is_refused_with_one_message(argv):
    code, out, err = run_cli(*argv)
    assert code in (2, 3), (code, err)
    assert out == ""
    lines = err.splitlines()
    if lines[0].startswith("usage: "):  # argparse's own error
        assert code == 2
        assert ": error: " in lines[-1]
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not re.search(r"\binf\b", err)


# Run one command, then print its exit code and what the process imported.
# `-S` keeps out what site-packages' start-up files import (such as `random`).
LOADS = ("import json, sys\n"
         "from smoothwords.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(json.dumps([code, sorted(sys.modules)]))")
EVERY_COMMAND = {"cli", "derivation", "errors", "words"}
TREES = {"bispecial"}
ENUMERATION = {"bispecial", "smoothness"}
STREAMS = {"generators"}
# the modules each command loads besides EVERY_COMMAND
LOADED = {
    "derive 122112": set(),
    "derive 122112 --chain": set(),
    "check 1221": set(),
    "check 1221 --kind r": set(),
    "enumerate --length 6": ENUMERATION,
    "complexity --max 6": ENUMERATION,
    "complexity --max 6 --tree-only": TREES,
    "tree --generation 3": TREES,
    "tree --generation 3 --stats": TREES,
    "kappa --length 20": STREAMS,
    "pair --alphabet 1,3 --length 20": STREAMS,
    "exponents": {"spectral"},
    "exponents --reference-table": {"spectral"},
    "verify --suite mistake": ENUMERATION | STREAMS | {"spectral", "checks"},
}


@pytest.mark.parametrize("command", LOADED)
def test_each_command_loads_only_its_modules(command):
    proc = run_python("-S", "-c", LOADS, *command.split())
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    package = {m.removeprefix("smoothwords.") for m in modules
               if m.startswith("smoothwords.")}
    assert package == EVERY_COMMAND | LOADED[command]
    assert ("random" in modules) == command.startswith("verify")
    # the records are slotted classes, so no command loads `dataclasses`
    # and what it imports
    assert not {"dataclasses", "inspect"} & set(modules)
    # every count is an integer, so no command needs rational arithmetic
    assert "fractions" not in modules
