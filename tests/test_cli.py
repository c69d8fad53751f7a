import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from surdcf import analyzer, convergents, families, miner, sequences
from surdcf.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# stdout sha256 of `analyze --from 2 --to 100000`; the CI workflow checks the
# same digest on a real pipe.
ANALYZE_1E5_SHA256 = "34ec7dd67c1145b54363a8228128c41bfda1e8920743c737ee652425736f0a9b"
# stdout sha256 of `analyze --from 50000000 --to 50000999`, one numpy chunk
# whose longest period is 18,624 quotients; CI checks it on a pipe too.
ANALYZE_5E7_SHA256 = "e15e528e4397cf1bd8691350ed5ff3d97ecbd5b517b0cd82e53568dc227d689b"
# stdout sha256 of `analyze --from 1000000000 --to 1000000199`, one numpy
# chunk whose longest period is 59,879 quotients, so the drain's blocks
# reach their longest there; CI checks it on a pipe too.
ANALYZE_1E9_SHA256 = "352490f7a5aee4d6a6e624474af36e993a203e8354d73b1f4919130d99b69c43"
# stdout sha256 of `verify-families` over the whole registry (121 families,
# 25,789,730 bytes); CI checks it on a pipe too.
VERIFY_REGISTRY_SHA256 = "67ffc41c95a56dc12ced7194ec3e259a23d9dcafc42b6e7c2b914e4b797fb8b9"
# stdout sha256 of `verify-families --format text` over the whole registry
# (121 lines).
VERIFY_REGISTRY_TEXT_SHA256 = "81f2e51588cf8073d4ab6ef60699d691077346382228dbbef386f83ad472fb93"
# stdout sha256 of `mine --sweep --max-len 10 --max-entry 8` (8,481,992
# bytes); CI checks it on a pipe too.
MINE_SWEEP_SHA256 = "7abb8b49fb0f4633054b43587c8e5b6c7715ca41095a181ba5ddd94b43ff3b55"
# stdout sha256 of `mine --sweep --max-len 26 --max-entry 2` (24,574 lines,
# 4,892,910 bytes), where lengths 25 and 26 run on Python ints; CI checks
# it on a pipe too.
MINE_SWEEP_26_2_SHA256 = "e812190432623b241dbc278bb91186b4a226f918d792c8611646f1ac82b7a837"
# stdout sha256 of the 18 commands `sequences --name N --count 60 --format
# csv`, concatenated: N over SEQUENCES_PINNED, then odd-u, even-p and even-q,
# each at --m 1, 2 and 3 (1,098 lines, 22,638 bytes); CI checks it on a pipe
# too.
SEQUENCES_SHA256 = "b4252e2522c8891da8c90aa728448d61cf0cc043736e871ec8c9222c3271c06d"
SEQUENCES_PINNED = [
    "ab-a", "ab-b", "fibonacci", "pell-p", "pell-q",
    "sqrt3-p", "sqrt3-q", "triple113-p", "triple113-q",
]
SEQUENCES_WITH_M = ["odd-u", "even-p", "even-q"]
# stdout sha256 of `mine --sweep --max-len 7 --max-entry 6`, JSON and text.
MINE_7_6_SHA256 = "e5fb68478594b192d0257d91a9037452bb35ab673189c573282df08463648225"
MINE_7_6_TEXT_SHA256 = "1b718023a126e9af3cc5bcc680335e2a592561261c08e7aac28786be9931c5a9"


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

    def test_repeated_id_reports_each_time(self, capsys):
        code, out, _ = run(capsys, "verify-families", "--id", "euler-l1", "--id", "euler-l1",
                           "--id", "rep2-k1")
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert [r["id"] for r in recs] == ["euler-l1", "euler-l1", "rep2-k1"]
        assert recs[0] == recs[1]
        _, single, _ = run(capsys, "verify-families", "--id", "euler-l1")
        assert json.loads(single) == recs[0]

    def test_write_record_once_per_id_in_order(self, capsys, monkeypatch):
        # The CLI goes through the module's write_record, and that through
        # the module's expand_sqrt once per tested member.
        calls, expanded = [], []
        real_write, real_expand = families.write_record, families.expand_sqrt

        def counted_write(fam, budget, out):
            calls.append(fam.id)
            return real_write(fam, budget, out)

        def counted_expand(d):
            expanded.append(d)
            return real_expand(d)

        monkeypatch.setattr(families, "write_record", counted_write)
        monkeypatch.setattr(families, "expand_sqrt", counted_expand)
        ids = ["euler-l1", "rep2-k1", "euler-l1"]
        code, out, _ = run(capsys, "verify-families", *[arg for fid in ids for arg in ("--id", fid)],
                           "--n-max", "5")
        assert code == 0
        assert calls == ids
        assert len(expanded) == sum(json.loads(line)["tested"] for line in out.splitlines())

    def test_each_failure_is_written_before_the_next_expansion(self, monkeypatch):
        # At n <= 6, six of the seven members of l9-d-printed fail.  Each
        # failure is on stdout by the time the engine expands the next member.
        written, expanded = io.StringIO(), []
        real_expand = families.expand_sqrt

        def counted_expand(d):
            expanded.append((d, written.getvalue()))
            return real_expand(d)

        monkeypatch.setattr(families, "expand_sqrt", counted_expand)
        monkeypatch.setattr(sys, "stdout", written)
        code = main(["verify-families", "--id", "l9-d-printed", "--n-max", "6"])
        monkeypatch.undo()
        assert code == 0
        (rec,) = [json.loads(line) for line in written.getvalue().splitlines()]
        assert rec["tested"] == len(expanded) == 7 and len(rec["failures"]) == 6
        # stdout as the engine starts on the member after member j.
        seen_by = [stdout for _, stdout in expanded[1:]] + [written.getvalue()]
        expanded_ds = [d for d, _ in expanded]
        for failure in rec["failures"]:
            j = expanded_ds.index(failure["d"])
            assert json.dumps(failure, sort_keys=True) in seen_by[j]

    @pytest.mark.parametrize("option", ["--n-max", "--m-max", "--k-max"])
    def test_negative_budget_is_usage_error(self, capsys, option):
        code, out, err = run(capsys, "verify-families", "--id", "euler-l1", "--id", "rep2-k1",
                             option, "-5")
        assert (code, out) == (1, "")
        assert err == f"verify-families: need {option} >= 0\n"

    def test_zero_budget_is_legal(self, capsys):
        # l6-c1 starts n at 0, so --n-max 0 tests one member.
        code, out, _ = run(capsys, "verify-families", "--id", "l6-c1", "--n-max", "0")
        assert code == 0
        assert json.loads(out)["tested"] == 1

    @pytest.mark.parametrize(
        "argv",
        [("verify-families", "--jobs", "2"), ("verify-families", "--all"), ("mine", "--sweep", "--jobs", "2")],
        ids=["jobs", "all", "mine-jobs"],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    def test_registry_output_pinned(self, capsys):
        code, out, _ = run(capsys, "verify-families")
        assert code == 0
        data = out.encode()
        assert len(data) == 25_789_730
        assert hashlib.sha256(data).hexdigest() == VERIFY_REGISTRY_SHA256

    def test_registry_text_output_pinned(self, capsys):
        code, out, _ = run(capsys, "verify-families", "--format", "text")
        assert code == 0
        assert len(out.splitlines()) == 121
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REGISTRY_TEXT_SHA256

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


EULER_RECORD = {"id": "euler-l1", "params": [["n", 1, None]], "a_expr": "n", "b_expr": "1",
                "pattern": ["2*a"]}


def run_process(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "surdcf.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def write_registry(tmp_path, *records):
    path = tmp_path / "registry.jsonl"
    lines = ["# header comment"] + [json.dumps(rec) for rec in records]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestRegistryErrors:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1, 2], "record is not a JSON object"),
            ({k: v for k, v in EULER_RECORD.items() if k != "id"}, "record has no 'id'"),
            ({k: v for k, v in EULER_RECORD.items() if k != "params"}, "record has no 'params'"),
            (dict(EULER_RECORD, id="x", params=[["n", 1]]), "params entry ['n', 1] is not"),
            ({"id": "x", "generator": "nope", "params": [["k", 1, None]]},
             "unknown generator 'nope'"),
            ({k: v for k, v in EULER_RECORD.items() if k != "pattern"},
             "record has no generator and no 'pattern'"),
            ({"id": "g", "generator": "pair-m2m", "params": [["k", 1, None], ["n", 1, None]]},
             "generator 'pair-m2m' takes 'm', in neither params nor bind"),
            (dict(EULER_RECORD, id="x", budget={"n": "x"}),
             "budget {'n': 'x'} is not an object of integers"),
            ({"id": "x", "generator": "rep2", "params": [["n", 1, None]], "bind": {"k": "2"}},
             "bind {'k': '2'} is not an object of integers"),
            ({"id": "x", "generator": "rep2", "params": [["n", 1, None]], "bind": [2]},
             "bind [2] is not an object of integers"),
            (dict(EULER_RECORD, id="x", params=[["n", 1, None], ["n", 1, 2]]),
             "params [['n', 1, None], ['n', 1, 2]] repeat a name"),
            (dict(EULER_RECORD, id="x", a_expr=5), "expression 5 is not a string"),
            (dict(EULER_RECORD, id="x", pattern="2*a"), "pattern '2*a' is not a list"),
            # The parser warns about "1if" before it yields a tree, and the
            # warning must not reach stderr as a second line.
            (dict(EULER_RECORD, id="x", a_expr="1if n else 2"), "bad expression '1if n else 2'"),
        ],
        ids=["not-object", "no-id", "no-params", "bad-triple", "unknown-generator", "no-pattern",
             "generator-argument", "budget-value", "bind-value", "bind-list", "repeated-param",
             "expression-type", "pattern-type", "expression-grammar"],
    )
    def test_bad_record_names_its_line(self, tmp_path, bad, message):
        proc = run_process("verify-families", "--n-max", "3",
                           "--registry", write_registry(tmp_path, EULER_RECORD, bad))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith(f"verify-families: registry line 3: {message}")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_unbound_variable_stops_after_written_records(self, tmp_path):
        unbound = dict(EULER_RECORD, id="unbound", a_expr="n+x")
        proc = run_process("verify-families", "--n-max", "3",
                           "--registry", write_registry(tmp_path, EULER_RECORD, unbound))
        assert proc.returncode == 1
        assert [json.loads(line)["id"] for line in proc.stdout.splitlines()] == ["euler-l1"]
        assert proc.stderr == "verify-families: unbound: unbound variable 'x'\n"

    def test_failing_family_not_marked_erratum_exits_two(self, capsys, tmp_path):
        wrong = dict(EULER_RECORD, id="wrong", pattern=["a"])
        code, out, _ = run(capsys, "verify-families", "--n-max", "3",
                           "--registry", write_registry(tmp_path, wrong, EULER_RECORD))
        assert code == 2
        recs = [json.loads(line) for line in out.splitlines()]
        assert [(r["id"], r["status"], len(r["failures"])) for r in recs] == [
            ("wrong", "erratum", 3), ("euler-l1", "verified", 0)]

    def test_late_unbound_variable_leaves_no_partial_line(self, tmp_path):
        # The pattern holds x, first evaluated at n = 3 after a < 1 skips
        # n = 0, 1, 2; the erratum before it streams its failures first.
        wrong = dict(EULER_RECORD, id="wrong", pattern=["a"], status="erratum")
        late = dict(EULER_RECORD, id="late", params=[["n", 0, None]], a_expr="n-2",
                    pattern=["x", "2*a"])
        proc = run_process("verify-families", "--n-max", "5",
                           "--registry", write_registry(tmp_path, EULER_RECORD, wrong, late))
        assert proc.returncode == 1
        recs = [json.loads(line) for line in proc.stdout.splitlines()]
        assert proc.stdout.endswith("\n")
        assert [(r["id"], len(r["failures"])) for r in recs] == [("euler-l1", 0), ("wrong", 5)]
        assert proc.stderr == "verify-families: late: unbound variable 'x'\n"


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

    def test_sweep_output_pinned(self, capsys):
        code, out, _ = run(capsys, "mine", "--sweep", "--max-len", "7", "--max-entry", "6")
        assert code == 0
        assert len(out.splitlines()) == 1441
        assert hashlib.sha256(out.encode()).hexdigest() == MINE_7_6_SHA256

    def test_bench_size_sweep_output_pinned(self, capsys):
        # The mine-sweep benchmark's command, 74,897 palindromes.
        code, out, _ = run(capsys, "mine", "--sweep", "--max-len", "10", "--max-entry", "8")
        assert code == 0
        data = out.encode()
        assert len(data) == 8_481_992
        assert hashlib.sha256(data).hexdigest() == MINE_SWEEP_SHA256

    def test_text_sweep_output_pinned(self, capsys):
        code, out, _ = run(capsys, "mine", "--sweep", "--max-len", "7", "--max-entry", "6", "--format", "text")
        assert code == 0
        assert len(out.splitlines()) == 1441
        assert hashlib.sha256(out.encode()).hexdigest() == MINE_7_6_TEXT_SHA256

    def test_long_sweep_output_pinned(self, capsys):
        code, out, _ = run(capsys, "mine", "--sweep", "--max-len", "26", "--max-entry", "2")
        assert code == 0
        data = out.encode()
        assert (len(out.splitlines()), len(data)) == (24_574, 4_892_910)
        assert hashlib.sha256(data).hexdigest() == MINE_SWEEP_26_2_SHA256

    def test_sweep_on_python_ints_pinned(self, capsys, monkeypatch):
        # With the int64 bound at 0 every block runs on Python ints.
        dtypes = set()
        mine_block = miner._mine_block

        def spy(halves, length, abc):
            dtypes.update(col.dtype for col in (halves, *abc))
            return mine_block(halves, length, abc)

        monkeypatch.setattr(convergents, "INT64_MAX", 0)
        monkeypatch.setattr(miner, "_mine_block", spy)
        for fmt, digest in [("json", MINE_7_6_SHA256), ("text", MINE_7_6_TEXT_SHA256)]:
            code, out, _ = run(capsys, "mine", "--sweep", "--max-len", "7", "--max-entry", "6", "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert dtypes == {np.dtype(object)}

    def test_sweep_in_small_blocks_pinned(self, capsys, monkeypatch):
        sizes = []
        mine_block = miner._mine_block

        def spy(halves, length, abc):
            sizes.append(len(halves))
            return mine_block(halves, length, abc)

        monkeypatch.setattr(convergents, "BLOCK_ROWS", 64)
        monkeypatch.setattr(miner, "_mine_block", spy)
        code, out, _ = run(capsys, "mine", "--sweep", "--max-len", "7", "--max-entry", "6")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == MINE_7_6_SHA256
        assert max(sizes) == 64 and sum(sizes) == 1 + 2 * (6 + 6**2 + 6**3) + 6**4

    def test_big_pattern_pinned(self, capsys):
        code, out, _ = run(capsys, "mine", "--pattern", "1000000000000,1000000000000")
        assert code == 0
        assert out == (
            '{"a_modulus": 1000000000000000000000001, "a_residue": 500000000000, '
            '"b_expr": "2000000000000*c+1", "min_c": 1, "palindrome": [1000000000000, 1000000000000], '
            '"verified_instances": 5}\n'
        )

    def test_sweep_bounds_default_to_three(self, capsys):
        _, want, _ = run(capsys, "mine", "--sweep", "--max-len", "3", "--max-entry", "3")
        assert run(capsys, "mine", "--sweep") == (0, want, "")
        assert run(capsys, "mine", "--sweep", "--max-len", "3") == (0, want, "")

    @pytest.mark.parametrize(
        "bounds",
        [("--max-len", "9"), ("--max-entry", "0"), ("--max-len", "9", "--max-entry", "0")],
        ids=["max-len", "max-entry", "both"],
    )
    @pytest.mark.parametrize("pattern", [("--pattern", "2,2"), ()], ids=["pattern", "no-pattern"])
    def test_sweep_bounds_without_sweep_are_usage_errors(self, capsys, bounds, pattern):
        code, out, err = run(capsys, "mine", *pattern, *bounds)
        assert (code, out) == (1, "")
        assert err == "mine: --max-len and --max-entry need --sweep\n"

    @pytest.mark.parametrize("order", ["pattern-first", "sweep-first"])
    def test_pattern_with_sweep_is_usage_error(self, capsys, order):
        pattern, sweep = ["--pattern", "2,2"], ["--sweep", "--max-len", "0"]
        argv = pattern + sweep if order == "pattern-first" else sweep + pattern
        code, out, err = run(capsys, "mine", *argv)
        assert code == 1 and out == ""
        assert "not allowed with argument" in err

    def test_closed_pipe_exits_quietly(self):
        # The reader leaves after 100 bytes, while the families are still
        # being written.  stdout is block-buffered, as under a shell.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "surdcf.cli", "mine", "--sweep", "--max-len", "10",
             "--max-entry", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(100).startswith(b'{"a_modulus": 1, "a_residue": 0, "b_expr": "1", ')
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""


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

    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_csv_is_json_histogram(self, capsys, monkeypatch, kernel):
        # The histogram comes from period_stats: no claim is checked.
        _, out, _ = run(capsys, "analyze", "--from", "2", "--to", "3000", "--kernel", kernel)
        hist = {int(k): v for k, v in json.loads(out)["histogram"].items()}
        want = "length,count\n" + "".join(f"{k},{v}\n" for k, v in sorted(hist.items()))

        def no_claims(*args, **kwargs):
            raise AssertionError("check_claims called")

        monkeypatch.setattr(analyzer, "check_claims", no_claims)
        code, out, _ = run(capsys, "analyze", "--from", "2", "--to", "3000", "--kernel", kernel,
                           "--format", "csv")
        assert code == 0
        assert out == want

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
        assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_1E5_SHA256

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_million_output_pinned(self, capsys, jobs):
        # 556,014 center-lt-parity rows alone: the writer crosses thousands
        # of block edges.
        code, out, _ = run(capsys, "analyze", "--from", "2", "--to", "1000000", "--jobs", jobs)
        assert code == 0
        data = out.encode()
        assert len(data) == 35_721_081
        assert hashlib.sha256(data).hexdigest() == (
            "d3a354c355f3edb0a22d67142dc35d0c4fde366e048b5c7c96c42c458f9493c7"
        )

    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_long_period_window_pinned(self, capsys, kernel):
        # The numpy kernel finishes its last lanes in the scalar loop here.
        code, out, _ = run(capsys, "analyze", "--from", "50000000", "--to", "50000999",
                           "--kernel", kernel)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_5E7_SHA256

    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_deep_window_pinned(self, capsys, kernel):
        code, out, _ = run(capsys, "analyze", "--from", "1000000000", "--to", "1000000199",
                           "--kernel", kernel)
        assert code == 0
        assert max(map(int, json.loads(out)["histogram"])) == 59_879
        assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_1E9_SHA256

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs, fmt):
        code, out, err = run(capsys, "analyze", "--from", "2", "--to", "20", "--jobs", jobs,
                             "--format", fmt)
        assert (code, out, err) == (1, "", "analyze: need --jobs >= 1\n")

    def test_closed_pipe_exits_quietly(self):
        # The reader leaves after 100 bytes: the report breaks off mid-stream.
        # stdout is block-buffered, as under a shell.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "surdcf.cli", "analyze", "--from", "2", "--to", "1000000",
             "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(100).startswith(b'{"claims": [{"counterexamples": [], ')
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""

    def test_text_counts_match_json(self, capsys, monkeypatch):
        _, out, _ = run(capsys, "analyze", "--from", "2", "--to", "3000")
        want = {c["id"]: len(c["counterexamples"]) for c in json.loads(out)["claims"]}

        def no_dicts(self):
            raise AssertionError("counterexample dicts built")

        monkeypatch.setattr(analyzer.ClaimResult, "counterexamples", property(no_dicts))
        code, out, _ = run(capsys, "analyze", "--from", "2", "--to", "3000", "--format", "text")
        assert code == 0
        got = {}
        for line in out.splitlines()[1:]:
            cid, rest = line.strip().split(": ")
            got[cid] = int(rest.split(", ")[1].split()[0])
        assert got == want
        assert got["center-lt-parity"] > 0

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

    def test_kernel_env_is_ignored(self, capsys, monkeypatch):
        # --kernel alone picks the backend; the default is numpy whatever the
        # environment holds.
        _, want, _ = run(capsys, "analyze", "--from", "2", "--to", "3000")

        def exact_columns(lo, hi):
            raise AssertionError("the python backend ran")

        monkeypatch.setattr(analyzer, "_exact_columns", exact_columns)
        for value in ("python", "jit"):
            monkeypatch.setenv("SURDCF_KERNEL", value)
            assert run(capsys, "analyze", "--from", "2", "--to", "3000") == (0, want, "")


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

    def test_output_pinned(self, capsys):
        # The names are listed, not taken from NAMED_SEQUENCES, so that a
        # name that drops out of the table fails here.
        assert sorted(sequences.NAMED_SEQUENCES) == SEQUENCES_PINNED
        runs = [("--name", name) for name in SEQUENCES_PINNED]
        runs += [("--name", name, "--m", m) for name in SEQUENCES_WITH_M for m in ("1", "2", "3")]
        out = ""
        for argv in runs:
            code, chunk, err = run(capsys, "sequences", *argv, "--count", "60", "--format", "csv")
            assert (code, err) == (0, "")
            out += chunk
        data = out.encode()
        assert (len(out.splitlines()), len(data)) == (1_098, 22_638)
        assert hashlib.sha256(data).hexdigest() == SEQUENCES_SHA256

    @pytest.mark.parametrize(
        "name, count, want",
        [
            ("odd-u", "0", []), ("odd-u", "1", ["0,0"]),
            ("even-p", "0", []), ("even-p", "1", ["0,1"]),
        ],
    )
    def test_zero_and_one_count(self, capsys, name, count, want):
        code, out, _ = run(capsys, "sequences", "--name", name, "--count", count, "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["index,value", *want]

    @pytest.mark.parametrize("name", SEQUENCES_PINNED)
    def test_m_without_use_is_usage_error(self, capsys, name):
        code, out, err = run(capsys, "sequences", "--name", name, "--count", "3", "--m", "7")
        assert (code, out) == (1, "")
        assert err == f"sequences: sequence {name!r} takes no m\n"

    @pytest.mark.parametrize("name", SEQUENCES_WITH_M)
    def test_m_defaults_to_one(self, capsys, name):
        _, want, _ = run(capsys, "sequences", "--name", name, "--count", "8", "--m", "1")
        assert run(capsys, "sequences", "--name", name, "--count", "8") == (0, want, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("surd", "--p", "0", "--q", "1", "--d", "2"),
        ("verify-families", "--id", "euler-l1"),
        ("mine", "--pattern", "2,2"),
    ],
    ids=["surd", "verify-families", "mine"],
)
def test_csv_refused_where_not_written(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 1 and out == ""
    assert "invalid choice: 'csv'" in err


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1
