import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from legval import cli
from legval.arith import Prime, UsageError
from legval.cli import main
from legval.miner import ValuationTable, build_table
from legval.predictors import (
    predict_b_conjecture1,
    predict_by_recurrence,
    predict_vp_cigler,
    predict_vp_legendre_at_p_digits,
)
from legval.sequences import SequenceSpec
from legval.verify import _PREDICTORS

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_delannoy_range(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", "delannoy", "--n", "0..4")
        assert code == 0
        assert out.splitlines() == ["0 1", "1 3", "2 13", "3 63", "4 321"]

    def test_rational_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", "legendre", "--r", "2", "--n", "2..2")
        assert code == 0
        assert out.strip() == "2 11/2"

    def test_single_index_range(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", "cigler", "--r", "3", "--n", "2")
        assert code == 0
        assert out.strip() == "2 13"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "eval", "--seq", "delannoy", "--n", "0..2")
        assert code == 0
        assert out.splitlines() == ["n,value", "0,1", "1,3", "2,13"]

    def test_jsonl_format(self, capsys):
        code, out, _ = run(capsys, "--format", "jsonl", "eval", "--seq", "delannoy", "--n", "0..1")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [{"n": 0, "value": "1"}, {"n": 1, "value": "3"}]

    def test_missing_r_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--seq", "legendre", "--n", "0..3")
        assert code == 2
        assert "evaluation point" in err

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "eval", "--seq", "delannoy", "--n", "5..2")
        assert code == 2

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_value_beyond_int_str_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        n = 5620
        code, out, _ = run(capsys, "eval", "--seq", "delannoy", "--n", str(n))
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        index, value = out.split()
        assert index == str(n) and len(value) > 4300
        # D(n) = sum of C(n,k)**2 * 2**k; C(n,k) = C(n,n-k) halves the comb calls
        want = 0
        for k in range(n // 2 + 1):
            c2 = math.comb(n, k) ** 2
            want += (c2 << k) + (c2 << (n - k) if 2 * k < n else 0)
        sys.set_int_max_str_digits(0)
        try:
            assert int(value) == want
        finally:
            sys.set_int_max_str_digits(limit)


class TestValuate:
    def test_delannoy(self, capsys):
        code, out, _ = run(capsys, "valuate", "--seq", "delannoy", "--p", "3", "--n", "0..4")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()] == ["0", "1", "0", "2", "1"]

    def test_infinite_entry(self, capsys):
        code, out, _ = run(capsys, "valuate", "--seq", "dsum", "--p", "3", "--n", "0..0")
        assert code == 0
        assert out.strip() == "0 inf"

    def test_negative_valuation(self, capsys):
        code, out, _ = run(capsys, "valuate", "--seq", "legendre", "--r", "2", "--p", "2", "--n", "2..2")
        assert code == 0
        assert out.strip() == "2 -1"

    def test_composite_p_rejected(self, capsys):
        code, _, err = run(capsys, "valuate", "--seq", "delannoy", "--p", "9", "--n", "0..2")
        assert code == 2
        assert "not a prime" in err


class TestShortStream:
    # each row pairs an index with its value strictly: a stream that ends
    # early is a fault, not a shorter output with exit 0
    @pytest.mark.parametrize("argv, name", [
        (["eval", "--seq", "delannoy", "--n", "0..5"], "iter_sequence_values"),
        (["valuate", "--seq", "delannoy", "--p", "3", "--n", "0..5"], "iter_sequence_valuations"),
    ], ids=["eval", "valuate"])
    def test_stream_that_ends_early_raises(self, capsys, monkeypatch, argv, name):
        stream = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: list(stream(*args))[:-1])
        with pytest.raises(ValueError, match="shorter"):
            main(argv)
        assert len(capsys.readouterr().out.splitlines()) == 5


class TestFirstValueFailsBeforeOutput:
    # eval, valuate and predict compute their first row before writing, so a
    # stream that raises UsageError at its first value writes no csv header
    @pytest.mark.parametrize("argv, name", [
        (["eval", "--seq", "delannoy", "--n", "0..5"], "iter_sequence_values"),
        (["valuate", "--seq", "delannoy", "--p", "3", "--n", "0..5"], "iter_sequence_valuations"),
    ], ids=["eval", "valuate"])
    def test_stream_that_fails_first_writes_nothing(self, capsys, monkeypatch, argv, name):
        def stream(*args):
            raise UsageError("stream fails at its first value")
            yield

        monkeypatch.setattr(cli, name, stream)
        assert run(capsys, "--format", "csv", *argv) == (2, "", "error: stream fails at its first value\n")


class TestPredict:
    def test_thm4(self, capsys):
        code, out, _ = run(capsys, "predict", "--predictor", "thm4", "--p", "3", "--n", "0..4")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()] == ["0", "1", "0", "2", "1"]

    def test_thm3_requires_r(self, capsys):
        code, _, err = run(capsys, "predict", "--predictor", "thm3", "--p", "3", "--n", "0..4")
        assert code == 2

    def test_strauss_rejects_zero(self, capsys):
        code, _, err = run(capsys, "predict", "--predictor", "strauss", "--n", "0..4")
        assert code == 2

    def test_conj1_at_large_index(self, capsys):
        n = str(10**700)
        code, out, err = run(capsys, "predict", "--predictor", "conj1", "--n", f"{n}..{n}")
        assert (code, out, err) == (0, f"{n} 699\n", "")

    def test_streams_rows_as_computed(self, capsys, monkeypatch):
        # a predictor that fails at n = 3 finds rows 0..2 already written,
        # so a long range is never held in memory before printing
        def stub(n):
            if n == 3:
                raise RuntimeError("stub predictor stops at n = 3")
            return n

        monkeypatch.setitem(_PREDICTORS, "conj2", lambda: lambda lo, hi: map(stub, range(lo, hi)))
        with pytest.raises(RuntimeError):
            main(["predict", "--predictor", "conj2", "--n", "0..100000000"])
        assert capsys.readouterr().out.splitlines() == ["0 0", "1 1", "2 2"]

    @pytest.mark.parametrize("fmt", ["text", "csv", "jsonl"])
    @pytest.mark.parametrize("predictor, p", [("thm4-rec", "3"), ("thm4-digits", "3"), ("cigler", "3"), ("conj1", "3"),
                                              ("thm4-rec", "1000003"), ("thm4-digits", "1000003"),
                                              ("cigler", "1000003")])
    def test_range_forms_print_what_pointwise_prints(self, capsys, predictor, p, fmt):
        # 59000..59100 crosses 3**10, where predict cuts its range-form blocks;
        # at p = 1000003 the range forms must not allocate a list of p entries
        argv = ["--no-timestamp", "--format", fmt, "predict", "--predictor", predictor,
                "--p", p, "--n", "59000..59100"]
        pointwise = {"thm4-rec": predict_by_recurrence, "thm4-digits": predict_vp_legendre_at_p_digits,
                     "cigler": predict_vp_cigler, "conj1": lambda p, n: predict_b_conjecture1(n)}[predictor]
        rows = [(n, str(pointwise(Prime(int(p)), n))) for n in range(59000, 59101)]
        lines = {"text": [f"{n} {v}" for n, v in rows],
                 "csv": ["n,predicted"] + [f"{n},{v}" for n, v in rows],
                 "jsonl": [json.dumps({"n": n, "predicted": v}) for n, v in rows]}[fmt]
        assert run(capsys, *argv) == (0, "".join(line + "\n" for line in lines), "")


# the options each predictor requires, as its usage error names them
PREDICTOR_REQUIRES = {
    "thm3": "--p and --r", "thm3-oneline": "--p and --r", "q": "--p and --r",
    "thm4": "--p", "thm4-digits": "--p", "thm4-rec": "--p", "cigler": "--p",
    "thm5": None, "conj1": None, "conj2": None, "strauss": None,
}


class TestPredictorOptions:
    @pytest.mark.parametrize("predictor", tuple(_PREDICTORS))
    def test_without_options(self, capsys, predictor):
        code, out, err = run(capsys, "predict", "--predictor", predictor, "--n", "1..4")
        requires = PREDICTOR_REQUIRES[predictor]
        if requires is None:
            assert (code, err) == (0, "")
        else:
            assert (code, out, err) == (2, "", f"error: predictor {predictor} requires {requires}\n")

    @pytest.mark.parametrize("predictor", tuple(_PREDICTORS))
    def test_with_p_and_r(self, capsys, predictor):
        code, out, err = run(capsys, "predict", "--predictor", predictor,
                             "--p", "3", "--r", "9", "--n", "1..4")
        assert (code, err) == (0, "")
        assert [line.split()[0] for line in out.splitlines()] == ["1", "2", "3", "4"]


class TestVerify:
    def test_thm4_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "thm4", "--p", "3", "--n", "0..100")
        assert code == 0
        assert "pass" in out
        assert "101 checked" in out

    def test_thm3_hypothesis_violation(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "thm3", "--p", "3",
                           "--r", "1/3", "--n", "0..10")
        assert code == 2
        assert "vp" in err

    def test_conj1_digits_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "conj1", "--n", "0..2000",
                           "--against", "digits")
        assert code == 0

    def test_conj1_digits_mode_at_a_large_start(self, capsys):
        # the digit check starts at lo, not at 0, so 10**30 costs what 11 indices cost
        lo = 10**30
        code, out, _ = run(capsys, "--format", "jsonl", "--no-timestamp", "verify", "--theorem",
                           "conj1", "--n", f"{lo}..{lo + 10}", "--against", "digits")
        assert code == 0
        row = json.loads(out)
        assert (row["status"], row["checked"]) == ("pass", 11)

    def test_parallel_sweep_matches_serial(self, capsys):
        base = ("--no-timestamp", "verify", "--theorem", "thm4", "--p", "3", "--n", "0..400")
        _, serial, _ = run(capsys, *base)
        code, parallel, _ = run(capsys, "--jobs", "2", *base)
        assert code == 0
        assert serial == parallel

    def test_csv_deterministic_without_timestamp(self, capsys):
        args = ("--format", "csv", "--no-timestamp", "verify", "--theorem", "thm5", "--n", "0..50")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert out1.splitlines()[0] == "theorem,parameters,checked,mismatch_count,status,timestamp"

    def test_jsonl_report(self, capsys):
        code, out, _ = run(capsys, "--format", "jsonl", "--no-timestamp",
                           "verify", "--theorem", "lemma6", "--p", "3", "--n", "0..40")
        assert code == 0
        row = json.loads(out)
        assert row["status"] == "pass"
        assert row["mismatches"] == []
        assert "timestamp" not in row


class TestMine:
    def test_dsum_text_output(self, capsys):
        code, out, _ = run(capsys, "mine", "--seq", "dsum", "--p", "3",
                           "--N", "729", "--max-e", "2", "--min-support", "50")
        assert code == 0
        assert "V(3n) = V(n) + 2" in out
        assert "V(9n+2) = V(3n+1) + 1" in out
        assert "artifact-chosen defaults" in out

    def test_constant_style_relations(self, capsys):
        code, out, _ = run(capsys, "mine", "--seq", "cube2k", "--p", "5",
                           "--N", "400", "--max-e", "1", "--min-support", "20")
        assert code == 0

    def test_cache_round_trip(self, capsys, tmp_path):
        cache = str(tmp_path / "tables")
        args = ("--cache", cache, "--no-timestamp", "mine", "--seq", "dsum", "--p", "3",
                "--N", "729", "--max-e", "2")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert list((tmp_path / "tables").glob("*.table"))

    def test_no_relations_found(self, capsys):
        # at max_e 0 the one class (0, 0) has no candidate but itself
        code, out, _ = run(capsys, "--no-timestamp", "mine", "--seq", "dsum", "--p", "3",
                           "--N", "200", "--max-e", "0")
        assert code == 0
        assert out.splitlines()[-1] == "# no relations found"

    def test_corrupt_cache_file_is_rebuilt(self, capsys, tmp_path):
        # a cache file that does not load prints what a fresh run prints,
        # and is rewritten as a loadable table
        mine = ["--no-timestamp", "mine", "--seq", "dsum", "--p", "3", "--N", "729", "--max-e", "2"]
        fresh = run(capsys, *mine)
        path = tmp_path / "dsum_p3.table"
        path.write_text("# spec=dsum p=3 N=729\n0 0\n1 garbage\n")
        assert run(capsys, "--cache", str(tmp_path), *mine) == fresh
        assert ValuationTable.load(path) == build_table(SequenceSpec.dsum(), Prime(3), 729)

    @pytest.mark.parametrize("damage", ["tampered", "v1"])
    def test_tampered_or_v1_cache_file_is_rebuilt(self, capsys, tmp_path, damage):
        # a value line edited under the hash, or the whole table in the format
        # before the hash, prints what a fresh run prints and is rewritten as v2
        mine = ["--no-timestamp", "mine", "--seq", "dsum", "--p", "3", "--N", "729", "--max-e", "2"]
        fresh = run(capsys, *mine)
        table = build_table(SequenceSpec.dsum(), Prime(3), 729)
        path = tmp_path / "dsum_p3.table"
        if damage == "tampered":
            table.save(path)
            header, *lines = path.read_text().splitlines()
            lines[9] = "0"  # V(9) = V(3) + 2 = 4, so a table read from this file breaks V(3n) = V(n) + 2
            path.write_text("\n".join([header, *lines]) + "\n")
        else:
            path.write_text("# spec=dsum p=3 N=729\n" + "".join(f"{n} {v}\n" for n, v in enumerate(table.values)))
        assert run(capsys, "--cache", str(tmp_path), *mine) == fresh
        assert path.read_text().startswith("# legval-table v2 spec=dsum p=3 N=729 sha256=")
        assert ValuationTable.load(path) == table

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "mined.txt"
        code, out, _ = run(capsys, "--out", str(target), "mine", "--seq", "dsum",
                           "--p", "3", "--N", "729", "--max-e", "1")
        assert code == 0
        assert out == ""
        assert "V(3n) = V(n) + 2" in target.read_text()


class TestRank:
    def test_legendre_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "--seq", "legendre", "--r", "3", "--p", "3",
                           "--max-e", "2", "--prefix-len", "60")
        assert code == 0
        assert "rank legendre(3) p=3" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "--no-timestamp",
                           "rank", "--seq", "legendre", "--r", "3", "--p", "3",
                           "--max-e", "1", "--prefix-len", "40")
        assert code == 0
        header, row = out.splitlines()
        assert header.startswith("spec,p,max_e,prefix_len,rank")


class TestOeisCheck:
    def test_pass(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("".join(f"{n} {sum(math.comb(2*k, k) for k in range(n))}\n"
                                for n in range(1, 20)))
        code, out, _ = run(capsys, "oeis-check", "--seq", "dsum", "--bfile", str(path))
        assert code == 0
        assert "pass" in out

    def test_missing_file_skips_exit_zero(self, capsys, tmp_path):
        code, out, _ = run(capsys, "oeis-check", "--seq", "delannoy",
                           "--bfile", str(tmp_path / "none.txt"))
        assert code == 0
        assert "skipped" in out

    def test_mismatch_exit_one(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1\n1 4\n")
        code, out, _ = run(capsys, "oeis-check", "--seq", "delannoy", "--bfile", str(path))
        assert code == 1

    def test_malformed_exit_two(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1 junk\n")
        code, _, err = run(capsys, "oeis-check", "--seq", "delannoy", "--bfile", str(path))
        assert code == 2
        assert ":1:" in err


class TestArgparseContract:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_bad_seq_choice_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--seq", "nope", "--n", "0..3"])
        assert info.value.code == 2

    def test_bad_rational_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--seq", "legendre", "--r", "x/y", "--n", "0..3"])
        assert info.value.code == 2


class TestTimestamp:
    """A stamped run differs from a --no-timestamp run only by its stamp."""

    COMMANDS = {
        "verify": ("verify", "--theorem", "thm5", "--n", "0..20"),
        "mine": ("mine", "--seq", "dsum", "--p", "3", "--N", "243", "--max-e", "1"),
        "rank": ("rank", "--seq", "legendre", "--r", "3", "--p", "3",
                 "--max-e", "1", "--prefix-len", "20"),
    }

    @staticmethod
    def _check_stamp(stamp):
        parsed = datetime.fromisoformat(stamp)
        assert parsed.utcoffset() == timedelta(0)
        assert abs(datetime.now(timezone.utc) - parsed) < timedelta(minutes=5)

    def _pair(self, capsys, fmt, command):
        argv = ("--format", fmt) + self.COMMANDS[command]
        code, stamped, _ = run(capsys, *argv)
        code2, plain, _ = run(capsys, "--no-timestamp", *argv)
        assert code == code2 == 0
        return stamped, plain

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_text_has_generated_at_line(self, capsys, command):
        stamped, plain = self._pair(capsys, "text", command)
        first, rest = stamped.split("\n", 1)
        assert first.startswith("# generated-at ")
        self._check_stamp(first[len("# generated-at "):])
        assert rest == plain
        assert "generated-at" not in plain

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_csv_column_always_present(self, capsys, command):
        stamped, plain = self._pair(capsys, "csv", command)
        stamped_rows = list(csv.DictReader(io.StringIO(stamped)))
        plain_rows = list(csv.DictReader(io.StringIO(plain)))
        assert stamped.splitlines()[0] == plain.splitlines()[0]
        assert stamped.splitlines()[0].endswith(",timestamp")
        assert len(stamped_rows) == len(plain_rows) >= 1
        assert len({row["timestamp"] for row in stamped_rows}) == 1
        self._check_stamp(stamped_rows[0]["timestamp"])
        for row, bare in zip(stamped_rows, plain_rows):
            assert bare["timestamp"] == ""
            assert {**row, "timestamp": ""} == bare

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_jsonl_key_dropped_when_empty(self, capsys, command):
        stamped, plain = self._pair(capsys, "jsonl", command)
        stamped_rows = [json.loads(line) for line in stamped.splitlines()]
        plain_rows = [json.loads(line) for line in plain.splitlines()]
        assert len(stamped_rows) == len(plain_rows) >= 1
        assert len({row["timestamp"] for row in stamped_rows}) == 1
        self._check_stamp(stamped_rows[0]["timestamp"])
        for row, bare in zip(stamped_rows, plain_rows):
            assert "timestamp" not in bare
            row.pop("timestamp")
            assert row == bare


class TestBounds:
    def test_prime_beyond_proven_bound_exits_two(self, capsys):
        code, out, err = run(capsys, "valuate", "--seq", "delannoy",
                             "--p", "3317044064679887385961981", "--n", "0..2")
        assert code == 2
        assert out == ""
        assert "proven" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two(self, capsys, jobs):
        code, out, err = run(capsys, "--jobs", jobs, "verify", "--theorem", "thm5", "--n", "0..5")
        assert code == 2
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize("option", ["--N", "--c-bound"])
    def test_mine_negative_bound_exits_two(self, capsys, option):
        code, out, err = run(capsys, "--no-timestamp", "mine", "--seq", "dsum", "--p", "3", option, "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("options, message", [
        (["--N", "2000", "--min-support", "0"], "min_support must be >= 1"),
        (["--N", "2000", "--c-bound", "-1"], "c_bound must be >= 0"),
        (["--N", "100"], "table too short: level-2 classes have fewer than 50 indices"),
        (["--N", "-1", "--min-support", "0"], "table length must be >= 0"),
    ])
    def test_mine_bad_option_exits_two_before_a_table(self, capsys, monkeypatch, tmp_path, options, message):
        # a bad option is rejected before a table is built or written to the cache
        def build_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(cli, "build_table", build_table)
        cache = tmp_path / "tables"
        argv = ["--cache", str(cache), "mine", "--seq", "dsum", "--p", "3", *options]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not cache.exists()

    def test_mine_negative_length_with_warm_cache_exits_two(self, capsys, tmp_path):
        mine = ["--cache", str(tmp_path), "mine", "--seq", "dsum", "--p", "3", "--N"]
        assert run(capsys, *mine, "2000")[0] == 0
        assert run(capsys, *mine, "-1") == (2, "", "error: table length must be >= 0\n")


class TestFaultsAreNotUsageErrors:
    # main exits 2 on UsageError alone; any other ValueError is a fault and leaves it

    def test_predictor_fault_leaves_main(self, capsys, monkeypatch):
        def fault(n):
            raise ValueError("predictor fault")

        monkeypatch.setitem(_PREDICTORS, "conj1", lambda: lambda lo, hi: map(fault, range(lo, hi)))
        with pytest.raises(ValueError, match="predictor fault") as raised:
            main(["predict", "--predictor", "conj1", "--n", "0..3"])
        assert type(raised.value) is ValueError
        assert capsys.readouterr().out == ""

    def test_miner_fault_leaves_main(self, monkeypatch):
        def fault(*args, **kwargs):
            raise ValueError("miner fault")

        monkeypatch.setattr(cli, "mine_relations", fault)
        with pytest.raises(ValueError, match="miner fault") as raised:
            main(["mine", "--seq", "dsum", "--p", "3", "--N", "729", "--max-e", "2"])
        assert type(raised.value) is ValueError


class TestBrokenPipe:
    def test_reader_closing_early_exits_quietly(self):
        # as in `legval predict ... | head -1`: the reader closes the pipe
        # after one line, and the writer stops with exit 0 and no traceback
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["predict", "--predictor", "thm5", "--n", "0..200000"]
        proc = subprocess.Popen([sys.executable, "-c", "from legval.cli import entry; entry()", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"0 0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (0, b"")


def readme_examples() -> list[tuple[list[str], str]]:
    """Each '$ legval ...' line of README's CLI block, as its arguments and
    the stdout shown under it, up to the next blank line or fence."""
    examples: list[tuple[list[str], list[str]]] = []
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ legval "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif current is not None and line and not line.startswith("```"):
            current[1].append(line)
        else:
            current = None
    return [(argv, "".join(out + "\n" for out in shown)) for argv, shown in examples]


README_EXAMPLES = readme_examples()


class TestReadmeExamples:
    def test_readme_has_examples(self):
        assert len(README_EXAMPLES) >= 5

    @pytest.mark.parametrize("argv,shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
    def test_example_output(self, capsys, argv, shown):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == shown
