import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legval.arith import Prime
from legval.oeis import BFileError, oeis_check, parse_bfile
from legval.sequences import SequenceSpec
from legval.verify import Mismatch


def v3(x):
    v = 0
    while x % 3 == 0:
        x //= 3
        v += 1
    return v


def delannoy_lattice(n):
    row = [1] * (n + 1)
    for _ in range(n):
        new = [1] * (n + 1)
        for j in range(1, n + 1):
            new[j] = new[j - 1] + row[j] + row[j - 1]
        row = new
    return row[n]


def write_bfile(path, pairs, comment=None):
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.extend(f"{i} {v}" for i, v in pairs)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParse:
    def test_basic(self, tmp_path):
        path = write_bfile(tmp_path / "b.txt", [(0, 1), (1, 3), (2, 13)], comment="test")
        records = parse_bfile(path)
        assert [(r.index, r.value) for r in records] == [(0, 1), (1, 3), (2, 13)]

    def test_tolerates_whitespace(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("\n#c\n  0   1 \n\n1\t3\n")
        assert [(r.index, r.value) for r in parse_bfile(path)] == [(0, 1), (1, 3)]

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 1\n1 2 3\n")
        with pytest.raises(BFileError, match=":2:"):
            parse_bfile(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 x\n")
        with pytest.raises(BFileError):
            parse_bfile(path)

    def test_value_beyond_int_str_digit_limit(self, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        path = write_bfile(tmp_path / "b.txt", [(0, 1), (1, "9" * 4400)])
        assert [(r.index, r.value) for r in parse_bfile(path)] == [(0, 1), (1, 10**4400 - 1)]
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_decreasing_indices(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("3 1\n2 1\n")
        with pytest.raises(BFileError, match="increasing"):
            parse_bfile(path)


# one token without digits, which int() cannot read and which starts no comment
JUNK = st.text(alphabet="abcxyz./;:!?-+_", min_size=1)


def parse_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.txt"
        path.write_bytes(data)
        return parse_bfile(path)


class TestParseMangled:
    @given(data=st.binary(max_size=200))
    @settings(deadline=None)
    def test_any_bytes_parse_or_raise_bfile_error(self, data):
        try:
            records = parse_bytes(data)
        except BFileError:
            return
        indices = [r.index for r in records]
        assert indices == sorted(set(indices))

    @given(values=st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=20),
           where=st.integers(0, 19), how=st.sampled_from(("drop", "extra", "index", "value", "repeat")),
           junk=JUNK)
    @settings(deadline=None)
    def test_mangled_line_raises_with_its_number(self, values, where, how, junk):
        pos = where % len(values)
        assume(how != "repeat" or pos > 0)
        lines = [f"{i} {v}" for i, v in enumerate(values)]
        v = values[pos]
        lines[pos] = {
            "drop": f"{pos}",
            "extra": f"{pos} {v} {junk}",
            "index": f"{junk} {v}",
            "value": f"{pos} {junk}",
            "repeat": f"{pos - 1} {v}",
        }[how]
        with pytest.raises(BFileError, match=f":{pos + 1}:"):
            parse_bytes(("\n".join(lines) + "\n").encode())


class TestCheck:
    def test_delannoy_raw_values(self, tmp_path):
        pairs = [(n, delannoy_lattice(n)) for n in range(30)]
        path = write_bfile(tmp_path / "b001850.txt", pairs)
        report = oeis_check(SequenceSpec.delannoy(), path)
        assert report.status == "pass"
        assert report.checked == 30

    def test_inclusive_partial_sums_with_offset(self, tmp_path):
        # file index n holds sum of C(2k,k) for k <= n, which is d(n+1)
        pairs = [(n, sum(math.comb(2 * k, k) for k in range(n + 1))) for n in range(25)]
        path = write_bfile(tmp_path / "b006134.txt", pairs)
        report = oeis_check(SequenceSpec.dsum(), path, offset=1)
        assert report.status == "pass"

    def test_dsum_valuations(self, tmp_path):
        pairs = [(n, v3(sum(math.comb(2 * k, k) for k in range(n)))) for n in range(1, 40)]
        path = write_bfile(tmp_path / "b082490.txt", pairs)
        report = oeis_check(SequenceSpec.dsum(), path, p=Prime(3))
        assert report.status == "pass"

    def test_delannoy_valuations(self, tmp_path):
        pairs = [(n, v3(delannoy_lattice(n))) for n in range(30)]
        path = write_bfile(tmp_path / "b358360.txt", pairs)
        report = oeis_check(SequenceSpec.delannoy(), path, p=Prime(3))
        assert report.status == "pass"

    def test_mismatch_reported(self, tmp_path):
        pairs = [(0, 1), (1, 3), (2, 14)]
        path = write_bfile(tmp_path / "bad.txt", pairs)
        report = oeis_check(SequenceSpec.delannoy(), path)
        assert report.status == "fail"
        assert len(report.mismatches) == 1
        assert report.mismatches[0].n == 2

    def test_missing_file_skips(self, tmp_path):
        report = oeis_check(SequenceSpec.delannoy(), tmp_path / "nope.txt")
        assert report.status == "skipped"
        assert report.passed

    def test_empty_file_skips(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        report = oeis_check(SequenceSpec.delannoy(), path)
        assert report.status == "skipped"

    def test_limit_caps_work(self, tmp_path):
        pairs = [(n, delannoy_lattice(n)) for n in range(30)]
        path = write_bfile(tmp_path / "b.txt", pairs)
        report = oeis_check(SequenceSpec.delannoy(), path, limit=10)
        assert report.status == "pass"
        assert report.checked == 11

    def test_sparse_indices(self, tmp_path):
        pairs = [(n, delannoy_lattice(n)) for n in (1, 4, 9, 20)]
        path = write_bfile(tmp_path / "b.txt", pairs)
        report = oeis_check(SequenceSpec.delannoy(), path)
        assert report.status == "pass"
        assert report.checked == 4

    def test_infinite_valuation_is_mismatch(self, tmp_path):
        path = write_bfile(tmp_path / "b.txt", [(0, 0), (1, 0)])
        report = oeis_check(SequenceSpec.dsum(), path, p=Prime(3))
        assert report.status == "fail"  # our v3(d(0)) is infinite

    def test_rational_value_mismatch_text(self, tmp_path):
        path = write_bfile(tmp_path / "b.txt", [(0, 1), (1, 0), (2, 1)])
        report = oeis_check(SequenceSpec.legendre(Fraction(1, 2)), path)
        assert report.status == "fail"
        assert report.mismatches == [Mismatch(1, "0", "1/2"), Mismatch(2, "1", "-1/8")]

    def test_infinite_valuation_mismatch_text(self, tmp_path):
        path = write_bfile(tmp_path / "b.txt", [(0, 0), (1, 0), (2, 1)])
        report = oeis_check(SequenceSpec.dsum(), path, p=Prime(3))
        assert report.status == "fail"
        assert report.mismatches == [Mismatch(0, "0", "inf")]

    def test_offset_mismatch_names_bfile_index(self, tmp_path):
        # inclusive sums 1, 3, 9, 29 at file indices 0..3 are d(1)..d(4); 10 is wrong
        path = write_bfile(tmp_path / "b.txt", [(0, 1), (1, 3), (2, 10), (3, 29)])
        report = oeis_check(SequenceSpec.dsum(), path, offset=1)
        assert report.status == "fail"
        assert report.parameters == {"spec": "dsum", "file": "b.txt", "offset": "1"}
        assert report.mismatches == [Mismatch(2, "10", "9")]
