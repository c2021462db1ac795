import errno
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from constel import arith, cli, heights, monoids, softpoints
from constel.cli import main

import _oracles

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def check_golden(capsys, name, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


class TestGoldens:
    def test_enumerate_tsv(self, capsys):
        check_golden(
            capsys,
            "enumerate_222_100_positive.tsv",
            "enumerate", "--delta", "2,2,2", "--max", "100", "--positive",
        )

    def test_enumerate_jsonl(self, capsys):
        check_golden(
            capsys,
            "enumerate_222_100_positive.jsonl",
            "enumerate", "--delta", "2,2,2", "--max", "100", "--positive", "--format", "jsonl",
        )

    def test_abc_scan(self, capsys):
        check_golden(
            capsys,
            "abc_scan_1000_q12.tsv",
            "abc-scan", "--max-c", "1000", "--min-quality", "1.2",
        )

    def test_vojta_gap(self, capsys):
        check_golden(
            capsys,
            "vojta_gap_02_1000.tsv",
            "vojta-gap", "--eps-prime", "0.2", "--max-c", "1000",
        )

    def test_minimal_profiles(self, capsys):
        check_golden(
            capsys,
            "minimal_profiles_5_7.tsv",
            "minimal-profiles", "--max-marks", "5", "--max-mult", "7",
        )

    def test_classify(self, capsys):
        check_golden(
            capsys,
            "classify_sample.tsv",
            "classify",
            "g=0;m=2,3,7", "g=1;m=", "g=0;m=inf,inf,inf", "g=0;m=2,2,2,2", "g=2;m=",
        )

    def test_firmament(self, capsys):
        check_golden(
            capsys,
            "firmament_example8.tsv",
            "firmament", str(DATA / "firm_example8.txt"), "--rays", "(1,0);(0,1);(1,1)",
        )


class TestBehavior:
    def test_enumerate_trivial_delta(self, capsys):
        code, out = run(capsys, "enumerate", "--delta", "1,1,1", "--max", "3")
        assert code == 0
        rows = [ln.split("\t") for ln in out.splitlines()[1:]]
        got = [(int(r[0]), int(r[1])) for r in rows]
        assert (2, 1) in got and (-1, 2) in got
        assert len(got) == 13

    def test_enumerate_stronger_delta_is_subset(self, capsys):
        _, strict = run(capsys, "enumerate", "--delta", "3,3,3", "--max", "1000", "--positive")
        _, loose = run(capsys, "enumerate", "--delta", "2,2,2", "--max", "1000", "--positive")
        assert set(strict.splitlines()[1:]) <= set(loose.splitlines()[1:])

    def test_abc_scan_small(self, capsys):
        code, out = run(capsys, "abc-scan", "--max-c", "10", "--min-quality", "1.0")
        assert code == 0
        assert "1\t8\t9\t6\t1.226294386" in out
        code, out = run(capsys, "abc-scan", "--max-c", "2", "--min-quality", "1.0")
        assert out.splitlines()[1:] == ["1\t1\t2\t2\t1.000000000"]

    def test_abc_scan_jsonl_quality_rounded(self, capsys):
        _, out = run(capsys, "abc-scan", "--max-c", "10", "--min-quality", "1.0", "--format", "jsonl")
        rec = json.loads(out.splitlines()[0])
        assert rec == {"a": 1, "b": 8, "c": 9, "rad": 6, "quality": 1.226294386}

    def test_firmament_rank_one(self, capsys):
        code, out = run(capsys, "firmament", str(DATA / "firm_34.txt"), "--rays", "1")
        assert code == 0
        assert out.splitlines()[1] == "(1)\t3\t2/3"

    def test_classify_from_file(self, capsys, tmp_path):
        f = tmp_path / "profiles.txt"
        f.write_text("g=0;m=2,3,7\ng=1;m=\n")
        code, out = run(capsys, "classify", "--file", str(f))
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_jsonl_variants(self, capsys):
        code, out = run(capsys, "classify", "g=0;m=2,3,7", "--format", "jsonl")
        assert code == 0
        assert json.loads(out.splitlines()[0]) == {
            "profile": "g=0;m=2,3,7",
            "degree": "1/42",
            "kappa": "one",
            "prediction": "conjecturally_not_dense",
        }
        code, out = run(
            capsys, "firmament", str(DATA / "firm_34.txt"), "--rays", "1", "--format", "jsonl"
        )
        assert json.loads(out.splitlines()[0]) == {
            "ray": "(1)",
            "multiplicity": 3,
            "delta": "2/3",
        }
        code, out = run(capsys, "minimal-profiles", "--format", "jsonl")
        first = json.loads(out.splitlines()[0])
        assert first == {"multiplicities": "2,2,2,2,2", "degree": "1/2"}
        code, out = run(
            capsys, "vojta-gap", "--eps-prime", "0.2", "--max-c", "10", "--format", "jsonl"
        )
        rows = [json.loads(ln) for ln in out.splitlines()]
        assert rows[0]["a"] == 1 and rows[0]["b"] == 2 and rows[0]["c"] == 3


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        assert run(capsys, "classify", "g=x;m=")[0] == 2
        assert run(capsys, "enumerate", "--delta", "2,2", "--max", "10")[0] == 2
        assert run(capsys, "abc-scan", "--max-c", "10", "--min-quality", "zz")[0] == 2

    @pytest.mark.parametrize("line", ["3; (1,0,0)", "2; (1,0,2)", "2; (1,0) (2)"])
    def test_generator_of_the_wrong_length_is_2(self, capsys, tmp_path, line):
        f = tmp_path / "firm.txt"
        f.write_text(f"dim 2\n{line}\n")
        assert run(capsys, "firmament", str(f), "--rays", "(1,1)")[0] == 2

    @pytest.mark.parametrize(
        "argv, firm, message",
        [
            (["enumerate", "--delta", "1,x,2", "--max", "10"], None,
             "error: delta '1,x,2': multiplicities are integers >= 1 or inf"),
            (["enumerate", "--delta", "1,0,2", "--max", "10"], None,
             "error: delta '1,0,2': multiplicities are integers >= 1 or inf"),
            (["firmament", str(DATA / "firm_example8.txt"), "--rays", "(1,a)"], None, "error: bad ray '(1,a)'"),
            (["firmament", str(DATA / "firm_example8.txt"), "--rays", ";"], None, "error: no rays given"),
            (["firmament", str(DATA / "firm_example8.txt"), "--rays", "(1,0,0)"], None,
             "error: ray (1, 0, 0) has dimension 3, file has 2"),
            (["classify"], None, "error: no profiles given (pass them as arguments or via --file)"),
            # argparse prints its usage lines before this one
            (["abc-scan", "--max-c", "5", "--config"], None,
             "constel abc-scan: error: argument --config: expected one argument"),
            ([], "dim x\n", "error: line 1: bad dimension 'x'"),
            ([], "dim 2\nx; (1,0)\n", "error: line 2: bad monoid dimension 'x'"),
            ([], "dim 2\n2; 1,0\n", "error: line 2: bad generator token '1,0'"),
            ([], "dim 2\n2;\n", "error: line 2: monoid has no generators"),
            ([], "dim 2\n", "error: firmament file lists no monoids"),
        ],
        ids=[
            "delta-token", "delta-zero", "ray-token", "no-rays", "ray-dimension", "no-profiles", "argparse",
            "file-dimension", "file-monoid-dimension", "file-generator-token", "file-no-generators", "file-no-monoids",
        ],
    )
    def test_refusals_are_2_with_one_message(self, capsys, tmp_path, argv, firm, message):
        if firm is not None:
            f = tmp_path / "firm.txt"
            f.write_text(firm)
            argv = ["firmament", str(f), "--rays", "(1,0)"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        if "--config" in argv:
            err = err.splitlines(keepends=True)[-1]
        assert err == message + "\n"

    def test_unknown_flag_is_2(self, capsys):
        assert main(["classify", "--bogus"]) == 2
        capsys.readouterr()

    def test_math_precondition_is_3(self, capsys, tmp_path):
        f = tmp_path / "partial.txt"
        f.write_text("dim 2\n2; (1,1)\n")
        code, out = run(capsys, "firmament", str(f), "--rays", "(1,1);(1,0)")
        assert code == 3
        assert "unsupported" in out
        assert run(capsys, "enumerate", "--delta", "2,2,2", "--max", "1")[0] == 3
        assert run(capsys, "vojta-gap", "--eps-prime", "1.5", "--max-c", "10")[0] == 3

    def test_retyped_preconditions_stay_3(self, capsys, tmp_path):
        f = tmp_path / "negative.txt"
        f.write_text("dim 2\n2; (1,-1)\n")
        assert run(capsys, "firmament", str(f), "--rays", "(1,0)")[0] == 3
        assert run(capsys, "firmament", str(DATA / "firm_34.txt"), "--rays", "0")[0] == 3
        assert run(capsys, "abc-scan", "--max-c", "1")[0] == 3
        assert run(capsys, "abc-scan", "--max-c", "10", "--min-quality", "0")[0] == 3
        assert run(capsys, "vojta-gap", "--eps-prime", "0.2", "--max-c", "1")[0] == 3
        assert run(capsys, "minimal-profiles", "--max-mult", "1")[0] == 3
        assert run(capsys, "minimal-profiles", "--max-marks", "0")[0] == 3

    def test_internal_fault_is_1(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("math domain error")

        monkeypatch.setattr(heights, "_abc_rows", broken)
        assert main(["abc-scan", "--max-c", "10"]) == 1
        assert "internal error: math domain error" in capsys.readouterr().err

    def test_unreadable_file_is_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        assert run(capsys, "classify", "--file", missing)[0] == 2
        assert run(capsys, "firmament", missing, "--rays", "1")[0] == 2
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"g=0;m=\xff\n")
        assert run(capsys, "classify", "--file", str(binary))[0] == 2
        assert main(["classify", "--file", str(tmp_path)]) == 2
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}"
        assert capsys.readouterr() == ("", f"error: cannot read profile file: {reason}\n")

    def test_sieve_cap_is_4(self, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("the radical sieve was allocated")

        monkeypatch.setattr(arith, "array", no_table)
        over = str(heights.MAX_SIEVE_LIMIT + 1)
        assert run(capsys, "abc-scan", "--max-c", over)[0] == 4
        assert run(capsys, "vojta-gap", "--eps-prime", "0.2", "--max-c", over)[0] == 4

    def test_reach_table_cap_is_4(self, capsys, monkeypatch, tmp_path):
        real = bytearray

        def guarded(n):
            if n > monoids.MAX_REACH_CELLS:
                raise AssertionError("the reach table was allocated")
            return real(n)

        monkeypatch.setattr(monoids, "bytearray", guarded, raising=False)
        f = tmp_path / "firm.txt"
        f.write_text("dim 2\n2; (2,0) (0,3)\n")
        assert run(capsys, "firmament", str(f), "--rays", "(100000,100000)")[0] == 4

    def test_cone_search_cap_is_4(self, capsys, monkeypatch, tmp_path):
        def no_solve(*args):
            raise AssertionError("a generator subset was solved")

        monkeypatch.setattr(monoids._linalg, "solve_columns", no_solve)
        # the 24 unit vectors: (1,...,1) needs all of them, so the search
        # would try 2^24 - 1 subsets, hours of work
        units = " ".join("(" + ",".join("1" if i == j else "0" for i in range(24)) + ")" for j in range(24))
        f = tmp_path / "units.txt"
        f.write_text(f"dim 24\n24; {units}\n")
        start = time.perf_counter()
        assert main(["firmament", str(f), "--rays", "(" + ",".join("1" * 24) + ")"]) == 4
        assert time.perf_counter() - start < 1.0
        assert "16777215 generator subsets" in capsys.readouterr().err

    def test_multiple_is_bounded_only_by_its_proof(self, capsys, tmp_path):
        # the clearing multiple 1000003 is the answer; no scan cap stops short of it
        f = tmp_path / "big.txt"
        f.write_text("dim 1\n1; (1000003)\n")
        assert run(capsys, "firmament", str(f), "--rays", "(1)") == (
            0,
            "# ray\tmultiplicity\tdelta\n(1)\t1000003\t1000002/1000003\n",
        )

    def test_failed_multiple_proof_is_1(self, capsys, monkeypatch):
        # a clearing multiple too small to be one: a fault, not a math condition
        monkeypatch.setattr(monoids, "cone_coefficients", lambda gens, n: [Fraction(1, 2)] * len(gens))
        assert main(["firmament", str(DATA / "firm_34.txt"), "--rays", "1"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "internal error: no multiple of (1,)" in err


    def test_tiny_quality_thresholds_run(self, capsys):
        # every coprime triple has quality above 1/3, so lower thresholds
        # all give the full list, at once
        _, everything = run(capsys, "abc-scan", "--max-c", "30", "--min-quality", "1/3")
        for tiny in ("0.25", "1e-300", "1e-400"):
            assert run(capsys, "abc-scan", "--max-c", "30", "--min-quality", tiny) == (0, everything)

    def test_long_quality_threshold_is_4(self, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("the radical sieve was allocated")

        monkeypatch.setattr(arith, "array", no_table)
        assert run(capsys, "abc-scan", "--max-c", "30", "--min-quality", "1.4142135623730951")[0] == 4


def expected_lines(fmt, columns, rows):
    """The lines of an output with these columns and oracle rows, built
    by the json module or a plain join."""
    if fmt == "jsonl":
        return [json.dumps(dict(zip(columns, row)), separators=(",", ":")) for row in rows]
    return ["# " + "\t".join(columns)] + ["\t".join(map(str, row)) for row in rows]


class TestEnumerateRows:
    # the rows include every sign pattern: a < 0 (so b > c) and a > c (b < 0)
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    @pytest.mark.parametrize("delta", ["2,2,2", "1,3,1", "3,1,1"])
    def test_radicals_without_factoring(self, capsys, monkeypatch, delta, fmt, workers):
        def no_factoring(n):
            raise AssertionError(f"factorize({n}) was called")

        monkeypatch.setattr(arith, "factorize", no_factoring)
        code, out = run(
            capsys, "enumerate", "--delta", delta, "--max", "150", "--format", fmt, "--workers", workers
        )
        assert code == 0
        rows = []
        for a, c in _oracles.brute_soft_points(*map(int, delta.split(",")), 150):
            b = c - a
            rad = _oracles.sympy_radical(abs(a * b * c))
            rows.append((a, c, b, "true" if fmt == "tsv" else True, max(abs(a), abs(b), c), rad))
        assert min(a for a, *_ in rows) < 0 < max(a - c for a, c, *_ in rows)
        lines = expected_lines(fmt, ("a", "c", "b", "soft", "M", "rad"), rows)
        assert out == "\n".join(lines) + "\n"


class TestAbcRows:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_every_coprime_triple_at_one_third(self, capsys, fmt, workers):
        # at q = 1/3 every coprime triple is a row: 6 000 and more of them
        code, out = run(
            capsys, "abc-scan", "--max-c", "200", "--min-quality", "1/3", "--format", fmt, "--workers", workers
        )
        assert code == 0
        hits = [(a, b, c, rad, math.log(c) / math.log(rad)) for a, b, c, rad in _oracles.brute_abc_set(200, 1, 3)]
        hits.sort(key=lambda h: (-h[4], h[2], h[0]))
        assert len(hits) > 6000
        if fmt == "tsv":
            rows = [(*h[:4], f"{h[4]:.9f}") for h in hits]
        else:
            rows = [(*h[:4], round(h[4], 9)) for h in hits]
        lines = expected_lines(fmt, ("a", "b", "c", "rad", "quality"), rows)
        assert out == "\n".join(lines) + "\n"


# one sample a command: its argv, exit code, and pieces of its TSV that
# show the sample holds the cells it is meant to (a Fraction degree, a
# negative degree, an unsupported ray, a negative gap, a negative a)
ROW_SAMPLES = [
    pytest.param(
        ["classify", "g=0;m=2,3,7", "g=0;m=", "g=1;m=", "g=0;m=inf,inf,inf", "g=0;m=2,3,inf"],
        0,
        ["\t1/42\t", "\t-2\t"],
        id="classify",
    ),
    pytest.param(["enumerate", "--delta", "2,2,2", "--max", "200"], 0, ["\n-"], id="enumerate"),
    pytest.param(
        ["firmament", "{firm}", "--rays", "(1,1);(1,0);(2,6);(0,1)"],
        3,
        ["\tunsupported\t-", "\t2\t1/2", "\t1\t0"],
        id="firmament",
    ),
    pytest.param(["abc-scan", "--max-c", "300", "--min-quality", "1/3"], 0, ["\t1.000000000"], id="abc-scan"),
    pytest.param(["vojta-gap", "--eps-prime", "0.2", "--max-c", "300"], 0, ["\t-0."], id="vojta-gap"),
    pytest.param(["minimal-profiles"], 0, ["2,2,2,2,2\t1/2"], id="minimal-profiles"),
]

# the JSON types of the columns that are not strings: ints and floats are
# numbers, rationals and text are strings (an unsupported multiplicity too)
JSON_TYPES = {
    **dict.fromkeys(("a", "b", "c", "M", "rad", "multiplicity"), int),
    **dict.fromkeys(("quality", "gap"), float),
    "soft": bool,
}


class TestPrintedRows:
    @pytest.mark.parametrize("argv, code, pieces", ROW_SAMPLES)
    def test_jsonl_records_follow_the_tsv_header(self, capsys, tmp_path, argv, code, pieces):
        firm = tmp_path / "partial.txt"
        firm.write_text("dim 2\n2; (2,2) (2,1)\n2; (1,3)\n")
        argv = [a.replace("{firm}", str(firm)) for a in argv]
        tsv_code, tsv = run(capsys, *argv)
        jsonl_code, jsonl = run(capsys, *argv, "--format", "jsonl")
        assert tsv_code == jsonl_code == code
        assert all(piece in tsv for piece in pieces)
        header, *rows = tsv.splitlines()
        assert header.startswith("# ")
        columns = header[2:].split("\t")
        assert rows and all(len(row.split("\t")) == len(columns) for row in rows)
        lines = jsonl.splitlines()
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            record = json.loads(line)
            assert line == json.dumps(record, separators=(",", ":"))
            assert list(record) == columns
            # the same cells: ints and text as printed, floats to nine places
            for column, value, cell in zip(columns, record.values(), row.split("\t")):
                if (column, value) != ("multiplicity", "unsupported"):
                    assert type(value) is JSON_TYPES.get(column, str), (column, value)
                if isinstance(value, bool):
                    assert cell == str(value).lower()
                elif isinstance(value, float):
                    assert value == round(value, 9) and cell == f"{value:.9f}"
                else:
                    assert cell == str(value)


# one case per configurable setting: the command line without the setting,
# the setting as flags and the same setting as config lines
SETTING_CASES = [
    (["minimal-profiles"], ["--format", "jsonl"], "format=jsonl"),
    (["classify"], ["--file", "{profiles}"], "file={profiles}"),
    (["firmament", "--rays", "(1,0);(1,1)"], ["{firm}"], "file={firm}"),
    (["firmament", "{firm}"], ["--rays", "(1,0);(1,1)"], "rays=(1,0);(1,1)"),
    (["enumerate", "--max", "100"], ["--delta", "2,2,2"], "delta=2,2,2"),
    (["enumerate", "--delta", "2,2,2"], ["--max", "100"], "max=100"),
    (["enumerate", "--delta", "2,2,2", "--max", "100"], [], "positive=0"),
    (["enumerate", "--delta", "2,2,2", "--max", "100"], ["--positive"], "positive=1"),
    (["vojta-gap", "--max-c", "300"], ["--eps-prime", "0.3"], "eps-prime=0.3"),
    (["vojta-gap", "--eps-prime", "0.2"], ["--max-c", "300"], "max-c=300"),
    (["abc-scan", "--max-c", "300"], ["--min-quality", "6/5"], "min-quality=6/5"),
    (["abc-scan", "--max-c", "300"], ["--workers", "2"], "workers=2"),
    (["minimal-profiles"], ["--max-marks", "4", "--max-mult", "5"], "max-marks=4\nmax-mult=5"),
]


class TestConfig:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("# scan defaults\nmax-c=10\nmin-quality=1.0\n")
        code, out = run(capsys, "abc-scan", "--config", str(cfg))
        assert code == 0 and "1\t8\t9" in out
        code, out = run(capsys, "abc-scan", "--config", str(cfg), "--max-c", "2")
        assert code == 0 and "1\t8\t9" not in out and "1\t1\t2" in out

    def test_unknown_config_key_is_2(self, capsys, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("bogus=1\n")
        assert run(capsys, "abc-scan", "--config", str(cfg), "--max-c", "5")[0] == 2

    def test_malformed_config_is_2(self, capsys, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("just a line\n")
        assert run(capsys, "abc-scan", "--config", str(cfg), "--max-c", "5")[0] == 2

    @pytest.mark.parametrize(
        "line", ["format=xml", "positive=maybe", "help=1", "profiles=g=0;m=2,3,7", "config=other.txt"]
    )
    def test_config_value_outside_flag_grammar_is_2(self, capsys, tmp_path, line):
        # a key must name a settable option, and its value pass the option's checks
        cfg = tmp_path / "conf.txt"
        cfg.write_text(line + "\n")
        assert run(capsys, "classify", "--config", str(cfg), "g=0;m=2")[0] == 2

    def test_config_bool_key(self, capsys, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("positive=true\nworkers=1\n")
        code, out = run(capsys, "enumerate", "--config", str(cfg), "--delta", "2,2,2", "--max", "100")
        assert code == 0
        assert out == (GOLDEN / "enumerate_222_100_positive.tsv").read_text()

    @pytest.mark.parametrize("base,flags,lines", SETTING_CASES, ids=[c[2] for c in SETTING_CASES])
    def test_setting_by_config_prints_as_by_flag(self, capsys, tmp_path, base, flags, lines):
        profiles = tmp_path / "profiles.txt"
        profiles.write_text("g=0;m=2,3,7\ng=1;m=\n")
        paths = {"profiles": str(profiles), "firm": str(DATA / "firm_example8.txt")}
        base = [a.format(**paths) for a in base]
        cfg = tmp_path / "conf.txt"
        cfg.write_text(lines.format(**paths) + "\n")
        by_flag = run(capsys, *base, *(a.format(**paths) for a in flags))
        assert by_flag[0] == 0
        assert run(capsys, *base, "--config", str(cfg)) == by_flag

    def test_every_setting_has_a_case(self):
        keys = {name.lstrip("-") for name, _, kw in cli._SETTINGS if "nargs" not in kw}
        assert keys == {ln.partition("=")[0] for *_, lines in SETTING_CASES for ln in lines.splitlines()}

    def test_abbreviated_config_flag_applies_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("format=jsonl\n")
        by_flag = run(capsys, "abc-scan", "--max-c", "9", "--format", "jsonl")
        assert run(capsys, "abc-scan", "--conf", str(cfg), "--max-c", "9") == by_flag


class TestEntryPoint:
    @pytest.mark.parametrize("command", ["", *cli._COMMANDS])
    def test_help_lists_every_setting(self, command):
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "constel", *([command] if command else []), "--help"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        if command:
            wanted = [name for name, takers, _ in cli._SETTINGS if command in takers]
        else:
            wanted = ["--config", *cli._COMMANDS]
        assert [name for name in wanted if name not in proc.stdout] == []

    def test_runtime_needs_only_the_standard_library(self):
        # the modules are compared with a record taken before the import,
        # since `site` can load non-standard ones such as _distutils_hack
        script = f"""
import contextlib, io, sys
before = set(sys.modules)
import constel
from constel import cli
runs = [
    ["classify", "g=0;m=2,3,7"],
    ["enumerate", "--delta", "2,2,2", "--max", "1000", "--workers", "2"],
    ["firmament", {str(DATA / "firm_example8.txt")!r}, "--rays", "(1,0);(0,1);(1,1)"],
    ["abc-scan", "--max-c", "200"],
    ["vojta-gap", "--eps-prime", "0.2", "--max-c", "200"],
    ["minimal-profiles", "--max-marks", "4"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
added = {{name.partition(".")[0] for name in sys.modules if name not in before}}
print(" ".join(sorted(n for n in added if n not in sys.stdlib_module_names and n != "constel")))
"""
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


ENUMERATE_GOLDENS = [
    ("enumerate_222_100_positive.tsv", ["enumerate", "--delta", "2,2,2", "--max", "100", "--positive"]),
    (
        "enumerate_222_100_positive.jsonl",
        ["enumerate", "--delta", "2,2,2", "--max", "100", "--positive", "--format", "jsonl"],
    ),
]


class TestStreamedBlocks:
    """enumerate writes its rows block by block; no block size and no
    worker count changes a byte."""

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("block_rows", [1, 10**9])
    def test_goldens_at_every_block_size(self, capsys, monkeypatch, block_rows, workers):
        monkeypatch.setattr(softpoints, "BLOCK_ROWS", block_rows)
        for name, argv in ENUMERATE_GOLDENS:
            check_golden(capsys, name, *argv, "--workers", workers)

    @pytest.mark.parametrize("entry", softpoints._ORDERS, ids=lambda e: ",".join("abc"[r] for r in e[:2]))
    def test_each_order_alone_at_every_block_size(self, capsys, monkeypatch, entry):
        for delta, bound in (("2,2,2", "3000"), ("1,3,1", "150"), ("3,1,1", "150"), ("2,2,1", "150"), ("1,1,1", "40")):
            for extra in ([], ["--positive"], ["--format", "jsonl"]):
                argv = ["enumerate", "--delta", delta, "--max", bound, *extra]
                with monkeypatch.context() as m:
                    want = run(capsys, *argv)
                    assert want[0] == 0 and want[1].count("\n") > 2, argv
                    m.setattr(softpoints, "_ORDERS", (entry,))
                    for block_rows in (1, 10**9):
                        m.setattr(softpoints, "BLOCK_ROWS", block_rows)
                        for workers in ("1", "2", "3"):
                            assert run(capsys, *argv, "--workers", workers) == want, (argv, block_rows, workers)

    def test_output_memory_does_not_follow_the_row_count(self, monkeypatch):
        class Sink:
            def write(self, text):
                return len(text)

        # 109 590 rows; written whole, they and their lines peaked at 21.5 MB
        monkeypatch.setattr(sys, "stdout", Sink())
        argv = ["enumerate", "--delta", "1,1,1", "--max", "300"]
        assert main(argv) == 0  # loads the modules outside the traced run
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["enumerate", "--delta", "2,x,2", "--max", "100"], 2),
            (["enumerate", "--delta", "2,2,2", "--max", "1e3"], 2),
            (["enumerate", "--delta", "2,2,2", "--max", "100", "--format", "csv"], 2),
            (["enumerate", "--delta", "2,2,2", "--max", "1"], 3),
            (["enumerate", "--delta", "1,1,1", "--max", "-5", "--workers", "2"], 3),
            (["abc-scan", "--max-c", "100", "--min-quality", "q"], 2),
            (["abc-scan", "--max-c", "1"], 3),
            (["abc-scan", "--max-c", "100", "--min-quality", "-1"], 3),
            (["abc-scan", "--max-c", str(heights.MAX_SIEVE_LIMIT + 1)], 4),
            (["abc-scan", "--max-c", "30", "--min-quality", "1.4142135623730951"], 4),
            (["abc-scan", "--max-c", "10000", "--min-quality", "1/3"], 4),
            (["abc-scan", "--max-c", "1000000", "--min-quality", "1/2", "--workers", "2"], 4),
        ],
    )
    def test_refusals_write_nothing_to_stdout(self, capsys, argv, code):
        start = time.perf_counter()
        assert run(capsys, *argv) == (code, "")
        assert time.perf_counter() - start < 5


class TestDeterminism:
    @pytest.mark.parametrize("workers", ["2", "3"])
    def test_enumerate_workers(self, capsys, workers):
        _, single = run(capsys, "enumerate", "--delta", "2,2,2", "--max", "1500")
        _, multi = run(capsys, "enumerate", "--delta", "2,2,2", "--max", "1500", "--workers", workers)
        assert single == multi

    @pytest.mark.parametrize(
        "workers, max_c, quality",
        [
            pytest.param("2", "400", "1.0", id="2"),
            pytest.param("8", "400", "1.0", id="8"),
            # every coprime pair is a hit at 1/3: 3 429 rows cross the pipes
            pytest.param("2", "150", "1/3", id="2-one-third"),
        ],
    )
    def test_abc_workers(self, capsys, workers, max_c, quality):
        _, single = run(capsys, "abc-scan", "--max-c", max_c, "--min-quality", quality)
        _, multi = run(
            capsys, "abc-scan", "--max-c", max_c, "--min-quality", quality, "--workers", workers
        )
        assert single == multi

    def test_repeated_runs_identical(self, capsys):
        _, first = run(capsys, "vojta-gap", "--eps-prime", "0.2", "--max-c", "300")
        _, second = run(capsys, "vojta-gap", "--eps-prime", "0.2", "--max-c", "300")
        assert first == second
