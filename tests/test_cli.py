import hashlib
import json

import pytest

from surdcf import analyzer
from surdcf.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "expand", "13")
        assert code == 0
        assert json.loads(out) == {"d": 13, "a0": 3, "period": [1, 1, 1, 1, 6], "length": 5}

    def test_sqrt2(self, capsys):
        code, out, _ = run(capsys, "expand", "2")
        assert code == 0
        assert json.loads(out) == {"d": 2, "a0": 1, "period": [2], "length": 1}

    def test_perfect_square_is_domain_error(self, capsys):
        code, _, err = run(capsys, "expand", "16")
        assert code == 2
        assert "square" in err

    def test_malformed_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "expand", "pi")
        assert code == 1

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "expand", "13", "--format", "text")
        assert code == 0 and "[3; 1,1,1,1,6]" in out


class TestSurd:
    def test_printed_tail_typo_case(self, capsys):
        code, out, _ = run(capsys, "surd", "--p", "-5", "--q", "1", "--d", "29")
        assert code == 0
        obj = json.loads(out)
        assert obj["preperiod"] == [0]
        assert obj["period"] == [2, 1, 1, 2, 10]

    def test_square_rejected(self, capsys):
        code, _, err = run(capsys, "surd", "--p", "0", "--q", "1", "--d", "25")
        assert code == 2


class TestConvergents:
    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "convergents", "--word", "1,2,2")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"k": 0, "p": 1, "q": 1},
            {"k": 1, "p": 3, "q": 2},
            {"k": 2, "p": 7, "q": 5},
        ]

    def test_bad_word(self, capsys):
        code, _, _ = run(capsys, "convergents", "--word", "1,0,2")
        assert code == 2


class TestVerifyFamilies:
    def test_single_family(self, capsys):
        code, out, _ = run(capsys, "verify-families", "--id", "euler-l1", "--n-max", "50")
        assert code == 0
        obj = json.loads(out)
        assert obj["id"] == "euler-l1" and obj["status"] == "verified"
        assert obj["tested"] == 50 and obj["failures"] == []

    def test_erratum_family_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify-families", "--id", "threes-printed-17n",
                           "--n-max", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "erratum" and obj["registry_status"] == "erratum"

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify-families", "--id", "no-such-family")
        assert code == 1 and "unknown" in err

    def test_several_ids_stream(self, capsys):
        code, out, _ = run(capsys, "verify-families", "--id", "euler-l1",
                           "--id", "rep2-k1", "--n-max", "10")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert [json.loads(l)["id"] for l in lines] == ["euler-l1", "rep2-k1"]

    def test_long_period_errata_output_pinned(self, capsys):
        # The two erratum families whose failure records print the longest
        # actual periods (up to 271,170 quotients): every one of them comes
        # from the engine's mirrored half walk.
        code, out, _ = run(capsys, "verify-families", "--id", "pair-m2m-k2-printed",
                           "--id", "l9-d-printed")
        assert code == 0
        assert len(out.splitlines()) == 2
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "937cd7b85044c796374cb869f05d86bd07f151696d8fe6ccc3eda6e672c575a6"
        )


class TestMine:
    def test_pattern(self, capsys):
        code, out, _ = run(capsys, "mine", "--pattern", "2,2")
        assert code == 0
        obj = json.loads(out)
        assert obj["a_residue"] == 1 and obj["a_modulus"] == 5
        assert obj["b_expr"] == "4*c+1" and obj["min_c"] == 1

    def test_non_palindrome_is_usage_error(self, capsys):
        code, _, err = run(capsys, "mine", "--pattern", "1,2")
        assert code == 1 and "palindrom" in err

    def test_unsolvable_pattern(self, capsys):
        code, out, _ = run(capsys, "mine", "--pattern", "1,1")
        assert code == 0
        assert json.loads(out)["family"] is None

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "mine", "--sweep", "--max-len", "2", "--max-entry", "2")
        assert code == 0
        pals = [json.loads(l)["palindrome"] for l in out.splitlines()]
        assert [] in pals and [2, 2] in pals

    @pytest.mark.parametrize("bounds", [("-1", "3"), ("1", "0")], ids=["negative-len", "zero-entry"])
    def test_sweep_bad_bounds_is_usage_error(self, capsys, bounds):
        max_len, max_entry = bounds
        code, out, err = run(capsys, "mine", "--sweep", "--max-len", max_len, "--max-entry", max_entry)
        assert code == 1 and out == ""
        assert err == "mine: bad sweep bounds\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_output_pinned(self, capsys, jobs):
        code, out, _ = run(capsys, "mine", "--sweep", "--max-len", "7", "--max-entry", "6", "--jobs", jobs)
        assert code == 0
        assert len(out.splitlines()) == 1441
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e5fb68478594b192d0257d91a9037452bb35ab673189c573282df08463648225"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bench_size_sweep_output_pinned(self, capsys, jobs):
        # The mine-sweep benchmark's command, 74,897 palindromes; at --jobs 2
        # it runs through the pool's contiguous slices.
        code, out, _ = run(capsys, "mine", "--sweep", "--max-len", "10", "--max-entry", "8", "--jobs", jobs)
        assert code == 0
        data = out.encode()
        assert len(data) == 8_481_992
        assert hashlib.sha256(data).hexdigest() == (
            "7abb8b49fb0f4633054b43587c8e5b6c7715ca41095a181ba5ddd94b43ff3b55"
        )


class TestAnalyze:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--from", "2", "--to", "100")
        assert code == 0
        obj = json.loads(out)
        assert obj["range"] == [2, 100]
        by_id = {c["id"]: c for c in obj["claims"]}
        assert by_id["palindrome"]["status"] == "ok"

    def test_single_entry_range(self, capsys):
        code, out, _ = run(capsys, "analyze", "--from", "2", "--to", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["tested"] == 1 and obj["histogram"] == {"1": 1}

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "analyze", "--from", "5", "--to", "2")
        assert code == 1

    def test_csv_histogram(self, capsys):
        code, out, _ = run(capsys, "analyze", "--from", "2", "--to", "20", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "length,count"
        assert "1,4" in out.splitlines()

    def test_jobs_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "analyze", "--from", "2", "--to", "3000")
        _, out8, _ = run(capsys, "analyze", "--from", "2", "--to", "3000", "--jobs", "4")
        assert out1 == out8

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_output_pinned(self, capsys, jobs):
        # 2..10^5 is several kernel live sets wide, so it splits into chunks
        # and --jobs 2 runs them in a pool.
        assert len(analyzer._chunks(2, 100_000, int(jobs), "numpy")) >= 2
        code, out, _ = run(capsys, "analyze", "--from", "2", "--to", "100000",
                           "--kernel", "numpy", "--jobs", jobs)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "34ec7dd67c1145b54363a8228128c41bfda1e8920743c737ee652425736f0a9b"
        )

    def test_kernels_byte_identical(self, capsys):
        outs = [
            run(capsys, "analyze", "--from", "2", "--to", "3000", "--kernel", k)
            for k in ("numpy", "python")
        ]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0][1] == outs[1][1]

    def test_unknown_kernel_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "analyze", "--from", "2", "--to", "20", "--kernel", "jit")
        assert code == 1 and out == ""

    def test_unknown_kernel_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SURDCF_KERNEL", "jit")
        code, out, err = run(capsys, "analyze", "--from", "2", "--to", "20")
        assert code == 1 and out == ""
        assert "numpy|python" in err


class TestSequences:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sequences", "--name", "pell-p", "--count", "5",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["index,value", "0,1", "1,1", "2,3", "3,7", "4,17"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sequences", "--name", "sqrt3-q", "--count", "3")
        assert code == 0
        vals = [json.loads(l)["value"] for l in out.splitlines()]
        assert vals == [1, 3, 4]

    def test_unknown_name(self, capsys):
        code, _, _ = run(capsys, "sequences", "--name", "mystery")
        assert code == 1


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1
