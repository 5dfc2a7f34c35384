from fractions import Fraction

import pytest

from legval.arith import Prime
from legval.verify import (
    CONJECTURE_IDS,
    THEOREM_IDS,
    Mismatch,
    UsageError,
    _report,
    run_verification,
    verify_conj1,
    verify_conj2,
    verify_eq_ma,
    verify_formula_agreement,
    verify_lemma6,
    verify_lemma8,
    verify_lemma9,
    verify_strauss,
    verify_thm3,
    verify_thm4,
    verify_thm5,
    verify_thm6,
    verify_thm7,
)


class TestStatusLogic:
    def test_pass_when_no_mismatches(self):
        assert _report("thm4", {}, 10, []).status == "pass"

    def test_fail_for_theorems(self):
        bad = [Mismatch(3, "1", "2")]
        assert _report("thm4", {}, 10, bad).status == "fail"

    def test_counterexample_for_conjectures(self):
        bad = [Mismatch(3, "1", "2", detail="value=123")]
        for cid in CONJECTURE_IDS:
            assert _report(cid, {}, 10, bad).status == "counterexample-found"

    def test_conjectures_are_campaigns(self):
        # both id sets are stated apart, so a conjecture id must also name a campaign
        assert CONJECTURE_IDS <= set(THEOREM_IDS)

    def test_passed_property(self):
        assert _report("thm4", {}, 1, []).passed
        assert not _report("conj2", {}, 1, [Mismatch(0, "0", "1")]).passed


class TestCampaignsPass:
    def test_thm4(self):
        report = verify_thm4(Prime(3), 0, 150)
        assert report.status == "pass"
        assert report.checked == 151

    def test_thm5(self):
        report = verify_thm5(0, 150)
        assert report.status == "pass"

    def test_thm3(self):
        report = verify_thm3(Prime(5), Fraction(25, 3), 0, 80)
        assert report.status == "pass"

    def test_thm6_counts_pairs(self):
        report = verify_thm6(Prime(3), 0, 40)
        assert report.status == "pass"
        assert report.checked == 41 * 3

    def test_thm7(self):
        report = verify_thm7(Prime(3), 0, 60)
        assert report.status == "pass"

    def test_conj1_both_modes(self):
        assert verify_conj1(0, 120, against="oracle").status == "pass"
        assert verify_conj1(0, 50_000, against="digits").status == "pass"

    def test_strauss(self):
        assert verify_strauss(1, 150).status == "pass"

    def test_lemma6(self):
        assert verify_lemma6(Prime(2), 0, 150).status == "pass"
        assert verify_lemma6(Prime(7), 0, 150).status == "pass"

    def test_lemma8_lemma9(self):
        r8 = verify_lemma8(Prime(3), Fraction(3), 0, 60)
        r9 = verify_lemma9(Prime(3), Fraction(3), 0, 60)
        assert r8.status == r9.status == "pass"
        assert r8.checked == 31  # even indices only
        assert r9.checked == 30
        assert verify_lemma9(Prime(2), Fraction(2), 0, 60).status == "pass"

    def test_eq_ma(self):
        report = verify_eq_ma(0, 25)
        assert report.status == "pass"
        assert "2," not in report.parameters["points"].replace("/2,", "")

    def test_formula_agreement(self):
        assert verify_formula_agreement(0, 25).status == "pass"


class TestStreamedCampaigns:
    def test_thm5_holds_no_table(self):
        # the campaign reads each valuation from the stream as it checks it;
        # a table of 10**5 + 1 entries, or one object per distinct value,
        # would take several MiB
        import tracemalloc

        tracemalloc.start()
        try:
            report = verify_thm5(0, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.status, report.checked) == ("pass", 10**5 + 1)
        assert peak < 2**20

    def test_thm6_holds_no_table(self):
        # the parents n and the children p*n + a come from two streams; a
        # table of 0..3*10**4 + 2 would take hundreds of KiB
        import tracemalloc

        tracemalloc.start()
        try:
            report = verify_thm6(Prime(3), 0, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.status, report.checked) == ("pass", 3 * (10**4 + 1))
        assert peak < 64 * 2**10

    def test_conj1_digits_holds_one_block(self):
        # the two predictor lists cover one block of indices at a time; lists
        # of 10**6 + 1 ints each would take tens of MiB
        import tracemalloc

        tracemalloc.start()
        try:
            report = verify_conj1(0, 10**6, against="digits")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.status, report.checked) == ("pass", 10**6 + 1)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("campaign", [lambda: verify_thm5(0, 50), lambda: verify_thm6(Prime(3), 0, 5)],
                             ids=["thm5", "thm6"])
    def test_stream_that_ends_early_raises(self, monkeypatch, campaign):
        # an index the stream never reached must not be counted as checked
        from legval import verify

        stream = verify.iter_sequence_valuations
        monkeypatch.setattr(verify, "iter_sequence_valuations", lambda *args: list(stream(*args))[:-1])
        with pytest.raises(ValueError):
            campaign()

    @pytest.mark.parametrize("lo,hi,checked", [(1, 1, 0), (0, 0, 1), (1, 2, 1), (3, 9, 3)])
    def test_even_indices_of_short_ranges(self, lo, hi, checked):
        # lemma8 reads every second index of the q stream; a range with no
        # even index checks none and passes
        report = verify_lemma8(Prime(3), Fraction(3), lo, hi)
        assert (report.status, report.checked) == ("pass", checked)


class TestHypothesisRejection:
    def test_thm3_low_valuation(self):
        with pytest.raises(UsageError, match="vp"):
            verify_thm3(Prime(3), Fraction(1, 3), 0, 10)

    def test_thm4_needs_odd_prime(self):
        with pytest.raises(UsageError, match="odd prime"):
            verify_thm4(Prime(2), 0, 10)

    def test_thm7_rejects_two(self):
        with pytest.raises(UsageError):
            verify_thm7(Prime(2), 0, 10)

    def test_strauss_needs_positive_start(self):
        with pytest.raises(UsageError):
            verify_strauss(0, 10)

    def test_lemma8_hypothesis(self):
        with pytest.raises(UsageError, match="vp"):
            verify_lemma8(Prime(3), Fraction(7), 0, 10)

    def test_missing_parameters(self):
        with pytest.raises(UsageError):
            run_verification("thm3", 0, 10)
        with pytest.raises(UsageError):
            run_verification("lemma6", 0, 10)

    def test_bad_range(self):
        with pytest.raises(UsageError):
            verify_thm5(10, 3)

    def test_unknown_id(self):
        with pytest.raises(UsageError, match="unknown theorem"):
            run_verification("thm99", 0, 10)

    def test_conj1_unknown_comparison(self):
        with pytest.raises(UsageError, match="conj1 comparison must be 'oracle' or 'digits', got 'bogus'"):
            verify_conj1(0, 5, against="bogus")


class TestDispatch:
    def test_all_ids_runnable(self):
        kwargs = {
            "thm3": dict(p=Prime(3), r=Fraction(3)),
            "thm4": dict(p=Prime(3)),
            "thm6": dict(p=Prime(3)),
            "thm7": dict(p=Prime(3)),
            "lemma6": dict(p=Prime(3)),
            "lemma8": dict(p=Prime(3), r=Fraction(3)),
            "lemma9": dict(p=Prime(3), r=Fraction(3)),
        }
        for tid in THEOREM_IDS:
            lo, hi = (1, 12) if tid == "strauss" else (0, 12)
            report = run_verification(tid, lo, hi, **kwargs.get(tid, {}))
            assert report.status == "pass", tid
            assert report.theorem_id == tid


class TestMismatchText:
    """One forced mismatch per comparison shape, by replacing a name in verify."""

    @staticmethod
    def _bump(monkeypatch, name, when, by=1):
        import legval.verify as verify

        original = getattr(verify, name)

        def fake(*args):
            value = original(*args)
            return value + by if when(*args) else value

        monkeypatch.setattr(verify, name, fake)

    def test_thm4_names_each_predictor(self, monkeypatch):
        self._bump(monkeypatch, "predict_vp_legendre_at_p_cases", lambda p, n: n == 3, by=97)
        report = verify_thm4(Prime(3), 0, 6)
        assert report.status == "fail"
        assert report.checked == 7
        assert report.mismatches == [Mismatch(3, "cases=99 digits=2 recurrence=2", "2")]

    def test_thm6_detail_names_parent_and_digit(self, monkeypatch):
        self._bump(monkeypatch, "recurrence_step", lambda p, f, n, a: (n, a) == (2, 1), by=7)
        report = verify_thm6(Prime(3), 0, 6)
        assert report.status == "fail"
        assert report.checked == 21
        assert report.mismatches == [Mismatch(7, "8", "1", detail="n=2 a=1")]

    def test_conj2_dumps_value_as_counterexample(self, monkeypatch):
        self._bump(monkeypatch, "predict_cube_sum_v3", lambda n: n == 3, by=97)
        report = verify_conj2(0, 6)
        assert report.status == "counterexample-found"
        assert report.mismatches == [Mismatch(3, "99", "2", detail="value=171")]

    def test_conj2_value_beyond_int_str_digit_limit(self, monkeypatch):
        from legval.arith import unlimited_int_digits
        from legval.sequences import cube_sum_2k

        self._bump(monkeypatch, "predict_cube_sum_v3", lambda n: n == 5300, by=97)
        report = verify_conj2(5300, 5300)
        assert report.status == "counterexample-found"
        [m] = report.mismatches
        assert (m.n, int(m.predicted)) == (5300, int(m.actual) + 97)
        with unlimited_int_digits():
            assert m.detail == f"value={cube_sum_2k(5300)}"
        assert len(m.detail) > 4300

    @pytest.mark.parametrize("offset", [0, 3**10 - 1, 3**10, 3**10 + 7, 2 * 3**10 + 10])
    def test_conj1_digits_mismatch_in_any_block(self, monkeypatch, offset):
        # from lo = 5: the range's first index, the last of the first block,
        # the first and an inner one of the second, and the range's last
        import legval.verify as verify
        from legval.predictors import predict_b_conjecture1

        lo, block = 5, verify._BLOCK
        assert block == 3**10
        bad = lo + offset
        original = verify.predict_b_conjecture1_range

        def fake(start, stop):
            values = original(start, stop)
            if start <= bad < stop:
                values[bad - start] += 1
            return values

        monkeypatch.setattr(verify, "predict_b_conjecture1_range", fake)
        report = verify_conj1(lo, lo + 2 * block + 10, against="digits")
        b = predict_b_conjecture1(bad)
        assert report.status == "counterexample-found"
        assert report.checked == 2 * block + 11
        assert report.mismatches == [Mismatch(bad, str(b + 1), str(b))]

    def test_lemma6_digit_form(self, monkeypatch):
        self._bump(monkeypatch, "digit_sum", lambda p, m: m == 4)
        report = verify_lemma6(Prime(3), 0, 6)
        assert report.status == "fail"
        assert report.mismatches == [Mismatch(4, "2 / 2", "digit form 6/(p-1)")]

    def test_formula_agreement_names_each_formula(self, monkeypatch):
        import legval.verify as verify

        self._bump(monkeypatch, "legendre_eval_square_form", lambda n, x: n == 3)
        monkeypatch.setattr(verify, "DEFAULT_RATIONAL_POINTS", (Fraction(1), Fraction(1, 2)))
        report = verify_formula_agreement(0, 6)
        assert report.status == "fail"
        assert report.checked == 14
        assert report.mismatches == [
            Mismatch(3, "binomial=1 rodrigues=1", "square=2", detail="x=1"),
            Mismatch(3, "binomial=-7/16 rodrigues=-7/16", "square=9/16", detail="x=1/2"),
        ]

    def test_eq_ma_rational_detail(self, monkeypatch):
        import legval.verify as verify
        from legval.sequences import cigler_eval

        self._bump(monkeypatch, "cigler_eval", lambda n, x: n == 3)
        monkeypatch.setattr(verify, "DEFAULT_RATIONAL_POINTS", (Fraction(1, 2), Fraction(2)))
        report = verify_eq_ma(0, 6)
        left = cigler_eval(3, Fraction(1, 2))
        assert report.status == "fail"
        assert report.checked == 7  # x = 2 is dropped
        assert report.mismatches == [
            Mismatch(3, str(left + 1), str(left), detail="x=1/2")]
        assert "/" in str(left)
