from fractions import Fraction
from itertools import chain, islice

import pytest

from legval.arith import Prime
from legval.verify import (
    _PREDICTORS,
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

    # lemma8 and lemma9 read every second value of the q stream: with hi of
    # both parities, the value short or extra falls at an even and an odd offset
    _Q_PARITY_CAMPAIGNS = {f"{name}-0..{hi}": lambda fn=fn, hi=hi: fn(Prime(3), Fraction(3), 0, hi)
                           for name, fn in (("lemma8", verify_lemma8), ("lemma9", verify_lemma9))
                           for hi in (50, 51)}

    @pytest.mark.parametrize("campaign", [lambda: verify_thm5(0, 50), lambda: verify_thm6(Prime(3), 0, 5),
                                          *_Q_PARITY_CAMPAIGNS.values()],
                             ids=["thm5", "thm6", *_Q_PARITY_CAMPAIGNS])
    def test_stream_that_ends_early_raises(self, monkeypatch, campaign):
        # an index the stream never reached must not be counted as checked,
        # and a stream that skips a value the campaign does not read is as wrong
        from legval import verify

        stream = verify.iter_sequence_valuations
        monkeypatch.setattr(verify, "iter_sequence_valuations", lambda *args: list(stream(*args))[:-1])
        with pytest.raises(ValueError):
            campaign()

    @pytest.mark.parametrize("campaign", [lambda: verify_thm5(0, 50), lambda: verify_strauss(1, 50),
                                          lambda: verify_conj1(0, 50), lambda: verify_thm6(Prime(3), 0, 5),
                                          *_Q_PARITY_CAMPAIGNS.values()],
                             ids=["thm5", "strauss", "conj1", "thm6", *_Q_PARITY_CAMPAIGNS])
    def test_stream_that_runs_long_raises(self, monkeypatch, campaign):
        # a stream with more values than its range is as wrong as a short one
        from legval import verify

        stream = verify.iter_sequence_valuations
        monkeypatch.setattr(verify, "iter_sequence_valuations", lambda *args: chain(stream(*args), [0]))
        with pytest.raises(ValueError):
            campaign()

    def test_thm6_children_stream_that_ends_early_raises(self, monkeypatch):
        # each parent n is paired with its children p*n + a, so a parent whose
        # children never came must not be counted as checked
        from legval import verify

        valuations = verify._valuations

        def short_children(spec, p, indices):
            values = valuations(spec, p, indices)
            return islice(values, len(indices) - 1) if len(indices) == 18 else values  # the 3 * 6 children

        monkeypatch.setattr(verify, "_valuations", short_children)
        with pytest.raises(ValueError):
            verify_thm6(Prime(3), 0, 5)

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


# campaign: how to run it, and the _PREDICTORS ids it reads with their builders'
# arguments and the names its mismatches print them under (none for one id)
_READERS = {
    "thm3": (lambda: verify_thm3(Prime(3), Fraction(9), 0, 10),
             {"thm3": (Prime(3), Fraction(9)), "thm3-oneline": (Prime(3), Fraction(9))}, ("cases", "oneline")),
    "thm4": (lambda: verify_thm4(Prime(3), 0, 10),
             {"thm4": (Prime(3),), "thm4-digits": (Prime(3),), "thm4-rec": (Prime(3),)},
             ("cases", "digits", "recurrence")),
    "thm5": (lambda: verify_thm5(0, 10), {"thm5": ()}, ()),
    "conj1-oracle": (lambda: verify_conj1(0, 10, against="oracle"), {"conj1": ()}, ()),
    "conj1-digits": (lambda: verify_conj1(0, 10, against="digits"), {"conj1": ()}, ()),
    "conj2": (lambda: verify_conj2(0, 10), {"conj2": ()}, ()),
    "strauss": (lambda: verify_strauss(1, 10), {"strauss": ()}, ()),
}


class TestCampaignsReadPredictors:
    """Each campaign that compares range forms finds its predictors in ``_PREDICTORS``."""

    @pytest.mark.parametrize("campaign, key", [(c, key) for c, (_, ids, _) in _READERS.items() for key in ids])
    def test_bumped_predictor_is_a_mismatch(self, monkeypatch, campaign, key):
        run, ids, names = _READERS[campaign]
        bad = 5
        values = {k: next(iter(_PREDICTORS[k](*args)(bad, bad + 1))) for k, args in ids.items()}
        make = _PREDICTORS[key]

        def bumped(*args):
            form = make(*args)
            return lambda lo, hi: (v + (n == bad) for n, v in zip(range(lo, hi), form(lo, hi)))

        monkeypatch.setitem(_PREDICTORS, key, bumped)
        report = run()
        values[key] += 1
        predicted = " ".join(f"{name}={values[k]}" for name, k in zip(names, ids)) or str(values[key])
        assert report.status == ("counterexample-found" if campaign.startswith("conj") else "fail")
        assert [(m.n, m.predicted, m.actual) for m in report.mismatches] == [(bad, predicted, str(values[key] - 1))]

    @pytest.mark.parametrize("lazy", [False, True], ids=["list", "lazy"])
    @pytest.mark.parametrize("campaign", list(_READERS))
    def test_range_form_one_value_short_raises(self, monkeypatch, campaign, lazy):
        run, ids, _ = _READERS[campaign]
        key = list(ids)[-1]
        make = _PREDICTORS[key]

        def short(*args):
            form = make(*args)
            if lazy:
                return lambda lo, hi: islice(form(lo, hi), hi - lo - 1)
            return lambda lo, hi: list(form(lo, hi))[:-1]

        monkeypatch.setitem(_PREDICTORS, key, short)
        with pytest.raises(ValueError):
            run()


# the offsets of test_conj1_digits_mismatch_in_any_block: from lo = 5, with
# blocks cut at the multiples of 3**10, the range's first index, the last of the
# first block, the first and three inner ones of the second, and the range's
# last, in the third
_BLOCK_OFFSETS = [0, 3**10 - 6, 3**10 - 5, 3**10 - 1, 3**10, 3**10 + 7, 2 * 3**10 + 10]


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

    def test_thm7_cigler_side_prints_as_predicted(self, monkeypatch):
        # vp(M_3(3)) = vp(63) = 2; with M_3 bumped to 64 the Cigler side reads 0
        self._bump(monkeypatch, "cigler_eval", lambda n, x: n == 3)
        report = verify_thm7(Prime(3), 0, 6)
        assert report.status == "fail"
        assert report.checked == 7
        assert report.mismatches == [Mismatch(3, "0", "2")]

    @pytest.mark.parametrize("campaign, bad, mismatch", [(verify_lemma8, 4, Mismatch(4, "8", "1")),
                                                         (verify_lemma9, 5, Mismatch(5, "10", "3"))],
                             ids=["lemma8", "lemma9"])
    def test_q_prediction_prints_as_predicted(self, monkeypatch, campaign, bad, mismatch):
        # predict_vp_Q is asked only at the campaign's parity, and its value is the predicted side
        asked = []
        self._bump(monkeypatch, "predict_vp_Q", lambda ctx, n: asked.append(n) or n == bad, by=7)
        report = campaign(Prime(3), Fraction(9), 0, 9)
        assert asked == list(range(bad % 2, 10, 2))
        assert report.status == "fail"
        assert report.checked == 5
        assert report.mismatches == [mismatch]

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

    @staticmethod
    def _bump_range_form(monkeypatch, name, bad):
        # the range form named ``name`` in verify, with its value at index ``bad`` raised by 1
        import legval.verify as verify

        original = getattr(verify, name)

        def fake(*args):
            start, stop = args[-2:]
            values = original(*args)
            if start <= bad < stop:
                values[bad - start] += 1
            return values

        monkeypatch.setattr(verify, name, fake)

    @pytest.mark.parametrize("offset", _BLOCK_OFFSETS)
    @pytest.mark.parametrize("name, bumped", [("predict_vp_legendre_at_p_digits_range", "digits"),
                                              ("predict_by_recurrence_range", "recurrence")])
    def test_thm4_range_form_mismatch_in_any_block(self, monkeypatch, name, bumped, offset):
        # thm4 reads its digit and recurrence forms a block at a time, as conj1 does
        from legval.predictors import predict_vp_legendre_at_p_cases

        lo, block = 5, 3**10
        bad = lo + offset
        self._bump_range_form(monkeypatch, name, bad)
        report = verify_thm4(Prime(3), lo, lo + 2 * block + 10)
        v = predict_vp_legendre_at_p_cases(Prime(3), bad)
        predicted = {"digits": f"cases={v} digits={v + 1} recurrence={v}",
                     "recurrence": f"cases={v} digits={v} recurrence={v + 1}"}[bumped]
        assert report.status == "fail"
        assert report.checked == 2 * block + 11
        assert report.mismatches == [Mismatch(bad, predicted, str(v))]

    @pytest.mark.parametrize("offset", _BLOCK_OFFSETS)
    def test_conj1_oracle_mismatch_in_any_block(self, monkeypatch, offset):
        from legval.predictors import predict_b_conjecture1

        lo, block = 5, 3**10
        bad = lo + offset
        self._bump_range_form(monkeypatch, "predict_b_conjecture1_range", bad)
        report = verify_conj1(lo, lo + 2 * block + 10, against="oracle")
        b = predict_b_conjecture1(bad)
        assert report.status == "counterexample-found"
        assert report.checked == 2 * block + 11
        assert report.mismatches == [Mismatch(bad, str(b + 1), str(b))]

    @pytest.mark.parametrize("offset", [0, 3**10 - 6, 3**10 - 5, 3**10 - 1, 3**10, 3**10 + 7, 2 * 3**10 + 10])
    def test_conj1_digits_mismatch_in_any_block(self, monkeypatch, offset):
        # blocks are cut at the multiples of 3**10; from lo = 5: the range's
        # first index, the last of the first block, the first and three inner
        # ones of the second, and the range's last, in the third
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
