import json
from pathlib import Path

import pytest

from constel import heights
from constel.cli import main

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

        monkeypatch.setattr(heights, "scan_abc", broken)
        assert main(["abc-scan", "--max-c", "10"]) == 1
        assert "internal error: math domain error" in capsys.readouterr().err

    def test_unreadable_file_is_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        assert run(capsys, "classify", "--file", missing)[0] == 2
        assert run(capsys, "firmament", missing, "--rays", "1")[0] == 2
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"g=0;m=\xff\n")
        assert run(capsys, "classify", "--file", str(binary))[0] == 2

    def test_sieve_cap_is_4(self, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("the radical sieve was allocated")

        monkeypatch.setattr(heights, "array", no_table)
        over = str(heights.MAX_SIEVE_LIMIT + 1)
        assert run(capsys, "abc-scan", "--max-c", over)[0] == 4
        assert run(capsys, "vojta-gap", "--eps-prime", "0.2", "--max-c", over)[0] == 4


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

    def test_config_bool_key(self, capsys, tmp_path):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("positive=true\nworkers=1\n")
        code, out = run(capsys, "enumerate", "--config", str(cfg), "--delta", "2,2,2", "--max", "100")
        assert code == 0
        assert out == (GOLDEN / "enumerate_222_100_positive.tsv").read_text()


class TestDeterminism:
    @pytest.mark.parametrize("workers", ["2", "3"])
    def test_enumerate_workers(self, capsys, workers):
        _, single = run(capsys, "enumerate", "--delta", "2,2,2", "--max", "1500")
        _, multi = run(capsys, "enumerate", "--delta", "2,2,2", "--max", "1500", "--workers", workers)
        assert single == multi

    @pytest.mark.parametrize("workers", ["2", "8"])
    def test_abc_workers(self, capsys, workers):
        _, single = run(capsys, "abc-scan", "--max-c", "400", "--min-quality", "1.0")
        _, multi = run(
            capsys, "abc-scan", "--max-c", "400", "--min-quality", "1.0", "--workers", workers
        )
        assert single == multi

    def test_repeated_runs_identical(self, capsys):
        _, first = run(capsys, "vojta-gap", "--eps-prime", "0.2", "--max-c", "300")
        _, second = run(capsys, "vojta-gap", "--eps-prime", "0.2", "--max-c", "300")
        assert first == second
