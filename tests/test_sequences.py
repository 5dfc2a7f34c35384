import math
from fractions import Fraction
from itertools import chain
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legval.arith import INF, Prime, UsageError
from legval.sequences import (
    SequenceKind,
    SequenceSpec,
    central_delannoy,
    cigler_eval,
    cube_sum_2k,
    eval_sequence,
    iter_sequence_valuations,
    iter_sequence_values,
    iter_valuations_with_bits,
    legendre_eval_binomial,
    legendre_eval_rodrigues,
    legendre_eval_square_form,
    partial_sum_central_binomial,
)

X_SET = [
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(3),
    Fraction(-3),
    Fraction(9),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
    Fraction(2, 3),
    Fraction(-5, 7),
    Fraction(11, 4),
]


def legendre_sympy(n, x):
    """Exact Legendre value via sympy, as an independent oracle."""
    import sympy

    v = sympy.legendre(n, sympy.Rational(x.numerator, x.denominator))
    v = sympy.nsimplify(v, rational=True)
    return Fraction(int(sympy.numer(v)), int(sympy.denom(v)))


def delannoy_lattice(n):
    """Central Delannoy number by king-move lattice path counting."""
    row = [1] * (n + 1)
    for _ in range(n):
        new = [1] * (n + 1)
        for j in range(1, n + 1):
            new[j] = new[j - 1] + row[j] + row[j - 1]
        row = new
    return row[n]


def cigler_comb(n, x):
    return sum(math.comb(n, k) ** 2 * (x - 1) ** k for k in range(n + 1))


# Plain term sums of the three Legendre formulas in Fraction arithmetic, with
# every binomial from math.comb: oracles for the running-term evaluators.
def binomial_comb(n, x):
    return sum(math.comb(n, k) * math.comb(n + k, k) * ((x - 1) / 2) ** k for k in range(n + 1))


def rodrigues_comb(n, x):
    return sum((-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n) * x ** (n - 2 * k)
               for k in range(n // 2 + 1)) / 2**n


def square_comb(n, x):
    return sum(math.comb(n, k) ** 2 * (x - 1) ** k * (x + 1) ** (n - k)
               for k in range(n + 1)) / 2**n


TERM_SUMS = [
    pytest.param(legendre_eval_binomial, binomial_comb, id="binomial"),
    pytest.param(legendre_eval_rodrigues, rodrigues_comb, id="rodrigues"),
    pytest.param(legendre_eval_square_form, square_comb, id="square"),
    pytest.param(cigler_eval, cigler_comb, id="cigler"),
]


class TestSpec:
    def test_canonical_round_trip(self):
        # table headers and cache file names are built from this text
        specs = {
            "legendre(3)": SequenceSpec.legendre(3),
            "legendre(3/5)": SequenceSpec.legendre(Fraction(3, 5)),
            "legendre(-7/2)": SequenceSpec.legendre(Fraction(-7, 2)),
            "q(2)": SequenceSpec.q(2),
            "cigler(5)": SequenceSpec.cigler(Fraction(5)),
            "delannoy": SequenceSpec.delannoy(),
            "dsum": SequenceSpec.dsum(),
            "cube2k": SequenceSpec.cube2k(),
        }
        for text, spec in specs.items():
            assert spec.canonical() == text
            assert SequenceSpec.parse(spec.canonical()) == spec

    @given(spec=st.one_of(
        st.builds(SequenceSpec.legendre, st.fractions()),
        st.builds(SequenceSpec.q, st.fractions()),
        st.builds(SequenceSpec.cigler, st.fractions()),
        st.sampled_from([SequenceSpec.delannoy(), SequenceSpec.dsum(), SequenceSpec.cube2k()])))
    def test_canonical_round_trip_at_any_point(self, spec):
        assert SequenceSpec.parse(spec.canonical()) == spec

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            SequenceSpec(SequenceKind.LEGENDRE)
        with pytest.raises(ValueError):
            SequenceSpec(SequenceKind.DELANNOY, Fraction(3))
        with pytest.raises(ValueError):
            SequenceSpec.parse("nosuch")
        with pytest.raises(ValueError):
            SequenceSpec.parse("legendre(3/0)")
        with pytest.raises(UsageError, match=r"malformed sequence spec: 'legendre\(1\)\(2\)'"):
            SequenceSpec.parse("legendre(1)(2)")


class TestLegendreEvals:
    def test_binomial_examples(self):
        assert legendre_eval_binomial(0, Fraction(7, 3)) == 1
        assert legendre_eval_binomial(2, 3) == 13
        assert legendre_eval_binomial(3, 3) == 63

    def test_rodrigues_examples(self):
        assert legendre_eval_rodrigues(1, Fraction(5, 4)) == Fraction(5, 4)
        assert legendre_eval_rodrigues(2, 2) == Fraction(11, 2)
        assert legendre_eval_rodrigues(3, 9) == 1809

    def test_square_form_examples(self):
        for n in range(0, 8):
            assert legendre_eval_square_form(n, 1) == 1
        assert legendre_eval_square_form(2, 3) == 13
        assert legendre_eval_square_form(1, -1) == -1

    def test_q_examples(self):
        assert eval_sequence(SequenceSpec.q(Fraction(7, 5)), 1) == Fraction(14, 5)
        assert eval_sequence(SequenceSpec.q(Fraction(-3)), 0) == 1
        assert eval_sequence(SequenceSpec.q(3), 2) == 52

    @pytest.mark.parametrize("x", X_SET)
    def test_three_formulas_agree(self, x):
        for n in range(0, 40):
            a = legendre_eval_binomial(n, x)
            b = legendre_eval_rodrigues(n, x)
            c = legendre_eval_square_form(n, x)
            assert a == b == c

    @pytest.mark.parametrize("x", [Fraction(3), Fraction(-1, 2), Fraction(7, 4)])
    def test_against_sympy(self, x):
        for n in range(0, 25):
            assert legendre_eval_rodrigues(n, x) == legendre_sympy(n, x)

    @pytest.mark.parametrize("x", X_SET)
    def test_q_scaling(self, x):
        for n in range(0, 30):
            assert eval_sequence(SequenceSpec.q(x), n) == 2**n * legendre_eval_rodrigues(n, x)

    def test_parity_symmetry(self):
        for x in (Fraction(5, 3), Fraction(4)):
            for n in range(0, 20):
                lhs = legendre_eval_rodrigues(n, -x)
                rhs = (-1) ** n * legendre_eval_rodrigues(n, x)
                assert lhs == rhs


class TestTermSumOracles:
    # x = 1 makes x-1 = 0, x = -1 makes x+1 = 0 and x = 0 makes a = 0: the
    # points where a running term drops to zero or its ratio divides by zero
    @pytest.mark.parametrize("f, oracle", TERM_SUMS)
    @pytest.mark.parametrize("x", [Fraction(1), Fraction(-1), Fraction(0), Fraction(-3),
                                   Fraction(-5, 7), Fraction(7, 3), Fraction(-9, 4)], ids=str)
    def test_against_term_sum(self, f, oracle, x):
        for n in [*range(61), 97, 200, 333]:
            assert f(n, x) == oracle(n, x), n

    @pytest.mark.parametrize("f, oracle", TERM_SUMS)
    @settings(deadline=None)
    @given(a=st.integers(-50, 50), b=st.integers(1, 50), n=st.integers(0, 80))
    def test_against_term_sum_anywhere(self, f, oracle, a, b, n):
        x = Fraction(a, b)
        assert f(n, x) == oracle(n, x)


class TestCigler:
    def test_examples(self):
        for n in range(0, 8):
            assert cigler_eval(n, 1) == 1
        assert cigler_eval(1, 3) == 3
        assert cigler_eval(2, 3) == 13

    @pytest.mark.parametrize("x", [Fraction(3), Fraction(5), Fraction(-2, 3)])
    def test_against_comb_sum(self, x):
        for n in range(0, 30):
            assert cigler_eval(n, x) == cigler_comb(n, x)

    @pytest.mark.parametrize("x", [x for x in X_SET if x != 2])
    def test_substitution_identity(self, x):
        # M_n(x) = (2-x)**n * P_n(x / (2-x))
        for n in range(0, 30):
            rhs = (2 - x) ** n * legendre_eval_rodrigues(n, x / (2 - x))
            assert cigler_eval(n, x) == rhs


class TestIntegerSequences:
    def test_delannoy_examples(self):
        assert central_delannoy(0) == 1
        assert central_delannoy(2) == 13
        assert central_delannoy(4) == 321

    def test_delannoy_against_lattice_dp(self):
        for n in range(0, 40):
            assert central_delannoy(n) == delannoy_lattice(n)

    def test_delannoy_bridge(self):
        for n in range(0, 60):
            assert central_delannoy(n) == legendre_eval_binomial(n, 3)

    def test_dsum_examples(self):
        assert partial_sum_central_binomial(0) == 0
        assert partial_sum_central_binomial(2) == 3
        assert partial_sum_central_binomial(3) == 9

    def test_dsum_increment(self):
        for n in range(0, 80):
            diff = partial_sum_central_binomial(n + 1) - partial_sum_central_binomial(n)
            assert diff == math.comb(2 * n, n)

    def test_cube_sum_examples(self):
        assert cube_sum_2k(0) == 1
        assert cube_sum_2k(2) == 21
        assert cube_sum_2k(5) == 14283

    def test_cube_sum_against_comb(self):
        for n in range(0, 50):
            assert cube_sum_2k(n) == sum(
                math.comb(n, k) ** 3 * 2**k for k in range(n + 1)
            )


class TestCube2kCertificate:
    """Proves the order-3 recurrence that the stepper uses for cube2k.

    With F(n,k) = C(n,k)**3 * 2**k and the certificate
    R(n,k) = k**3 * P(n,k) / ((n+1-k)(n+2-k)(n+3-k))**3, Zeilberger's
    telescoping identity reads
        sum_i c_i(n) * F(n+i,k) = G(n,k+1) - G(n,k),  G = R*F,
    where c_3 = D(n+3) and c_{3-j} = -A_j(n+3) for the library's
    D(m)*U_m = A_1(m)*U_{m-1} + A_2(m)*U_{m-2} + A_3(m)*U_{m-3}.
    Dividing by F(n,k) and clearing the denominators of R turns it into the
    polynomial identity checked below.  In factorial form
    G(n,k) = k**3 * P(n,k) * 2**k * (n! / (k! (n+3-k)!))**3, which vanishes
    at k = 0 and for k >= n+4, so summing the identity over all k leaves
    sum_i c_i(n) * U_{n+i} = 0 for every n >= 0 (Petkovsek, Wilf &
    Zeilberger, A=B, 1996).
    """

    def test_telescoping_identity(self):
        import sympy

        from legval.sequences import _KINDS, _at

        n, k = sympy.symbols("n k")
        p_coeffs = [  # of k**0, ..., k**6
            -(n + 1)**2 * (n + 2) * (n + 3)**2 * (93*n**4 + 742*n**3 + 2219*n**2 + 2936*n + 1438),
            3 * (n + 1)**2 * (n + 3) * (123*n**5 + 1343*n**4 + 5850*n**3 + 12679*n**2 + 13636*n + 5803),
            -3 * (n + 1)**2 * (240*n**5 + 2819*n**4 + 13160*n**3 + 30477*n**2 + 34954*n + 15850),
            3 * (n + 1)**2 * (273*n**4 + 2569*n**3 + 8989*n**2 + 13844*n + 7907),
            -3 * (n + 1)**2 * (3*n + 7) * (60*n**2 + 280*n + 319),
            9 * (n + 1)**2 * (3*n + 7) * (7*n + 16),
            -9 * (n + 1)**2 * (3*n + 7),
        ]

        def P(kk):
            return sum(c * kk**j for j, c in enumerate(p_coeffs))

        D, A = _KINDS[SequenceKind.CUBE2K].recurrence(None)
        d, a = _at(D, n + 3), [_at(c, n + 3) for c in A]
        assert len(a) == 3
        c = [-a[2], -a[1], -a[0], d]
        lhs = sum(c[i] * sympy.prod([n + j for j in range(1, i + 1)])**3
                  * sympy.prod([n + j - k for j in range(i + 1, 4)])**3 for i in range(4))
        rhs = 2 * P(k + 1) * (n + 3 - k)**3 - k**3 * P(k)
        assert sympy.expand(lhs - rhs) == 0


# r = 0, a negative point, 3 | b (legendre and q at p = 3), 2b - a = 5 and
# 2b - a = 2 (cigler at p = 5 and p = 2), 3**2 | b, and an integer point
RECORD_POINTS = [Fraction(0), Fraction(-7, 2), Fraction(1, 3), Fraction(4, 3), Fraction(2, 9), Fraction(3)]


class TestRecurrenceRecords:
    """Each ``_KINDS`` record (D, (A_1, ..., A_k)) of coefficient tuples,
    checked against its kind's direct summation, with no stepper between."""

    @pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda kind: kind.value)
    def test_records_match_direct_sums(self, kind):
        from legval.sequences import _ARGUMENT_KINDS, _KINDS, _at

        record = _KINDS[kind]
        for r in RECORD_POINTS if kind in _ARGUMENT_KINDS else [None]:
            D, A = record.recurrence(r)
            U = [record.direct(n, r) for n in range(61)]
            for n in range(len(A), 61):
                rhs = sum(_at(c, n) * U[n - i] for i, c in enumerate(A, 1))
                assert _at(D, n) * U[n] == rhs, (kind, r, n)
                assert _at(D, n) != 0, (kind, r, n)

    @pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda kind: kind.value)
    def test_differences_step_every_coefficient(self, kind):
        # the stream's tables from n = k, stepped as it steps them, give
        # D(n) and A_i(n) at every n
        from legval.sequences import _KINDS, _at, _differences

        D, A = _KINDS[kind].recurrence(Fraction(-7, 2))
        for poly in (D, *A):
            table = _differences(poly, len(A))
            assert len(table) == 4
            for n in range(len(A), 61):
                assert table[0] == _at(poly, n), (poly, n)
                table = [x + y for x, y in zip(table, table[1:])] + table[3:]

    @pytest.mark.parametrize("record", [
        ((1,), ((1,), (1,), (1,), (1,))),  # order 4
        ((0, 0, 0, 0, 1), ((1,), (1,))),  # D of degree 4
        ((1,), ((1,), (0, 0, 0, 0, 1))),  # A_2 of degree 4
    ], ids=["order-4", "degree-4-D", "degree-4-A"])
    def test_records_beyond_order_or_degree_three_fail(self, record, monkeypatch):
        from legval import sequences

        kinds = dict(sequences._KINDS)
        kinds[SequenceKind.DELANNOY] = sequences._Kind(
            direct=lambda n, r: 1, base=lambda r: 1, recurrence=lambda r: record, loss=lambda r, p, N: 0)
        monkeypatch.setattr(sequences, "_KINDS", kinds)
        with pytest.raises(ValueError, match="unpack"):
            next(sequences.iter_valuations_with_bits(SequenceSpec.delannoy(), Prime(3), 100, 50))

    @pytest.mark.parametrize("loss", [None, 0], ids=["trivial-bound", "proven"])
    def test_vanishing_d_fails_instead_of_looping(self, loss, monkeypatch):
        # D(n) = n - 3 is 0 at n = 3 >= k; splitting a power of p off 0 would
        # never end, in the trivial bound's sum as in a step
        from legval import sequences

        kinds = dict(sequences._KINDS)
        kinds[SequenceKind.DELANNOY] = sequences._Kind(
            direct=lambda n, r: 1, base=lambda r: 1, recurrence=lambda r: ((-3, 1), ((1,), (1,))),
            loss=lambda r, p, N: loss)
        monkeypatch.setattr(sequences, "_KINDS", kinds)
        with pytest.raises(AssertionError, match=r"D\(n\) = 0"):
            list(sequences.iter_valuations_with_bits(SequenceSpec.delannoy(), Prime(3), 10))


class TestEvalSequence:
    def test_dispatch(self):
        assert eval_sequence(SequenceSpec.delannoy(), 2) == 13
        assert eval_sequence(SequenceSpec.legendre(3), 2) == 13
        assert eval_sequence(SequenceSpec.cube2k(), 0) == 1
        assert eval_sequence(SequenceSpec.legendre(2), 2) == Fraction(11, 2)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            eval_sequence(SequenceSpec.delannoy(), -1)


ITER_SPECS = [
    SequenceSpec.legendre(3),
    SequenceSpec.legendre(Fraction(3, 5)),
    SequenceSpec.legendre(2),
    SequenceSpec.q(Fraction(-7, 2)),
    SequenceSpec.cigler(3),
    SequenceSpec.cigler(Fraction(5, 3)),
    SequenceSpec.delannoy(),
    SequenceSpec.dsum(),
    SequenceSpec.cube2k(),
]


class TestIterators:
    @pytest.mark.parametrize("spec", ITER_SPECS)
    def test_values_match_direct(self, spec):
        got = list(iter_sequence_values(spec, 60))
        want = [eval_sequence(spec, n) for n in range(60)]
        assert got == want

    @pytest.mark.parametrize("start", [1, 2, 3, 27, 37])
    @pytest.mark.parametrize("spec", ITER_SPECS)
    def test_offset_start_matches(self, spec, start):
        got = list(iter_sequence_values(spec, 50, start=start))
        want = [eval_sequence(spec, n) for n in range(start, 50)]
        assert got == want

    def test_valuations_match_values(self):
        from legval.arith import vp_rat

        for p in (Prime(2), Prime(3)):
            for spec in (
                SequenceSpec.legendre(3),
                SequenceSpec.legendre(Fraction(3, 5)),
                SequenceSpec.legendre(2),
                SequenceSpec.q(2),
                SequenceSpec.cigler(Fraction(5, 3)),
                SequenceSpec.delannoy(),
                SequenceSpec.dsum(),
                SequenceSpec.cube2k(),
            ):
                got = list(iter_sequence_valuations(spec, p, 50))
                want = [vp_rat(p, eval_sequence(spec, n)) for n in range(50)]
                assert got == want

    def test_values_reject_stop_before_start(self):
        with pytest.raises(UsageError, match=r"bad index range \[5, 3\)"):
            list(iter_sequence_values(SequenceSpec.delannoy(), 3, 5))

    def test_valuations_reject_stop_before_start(self):
        # raised when called, before any step: the stream is returned, not yielded
        with pytest.raises(UsageError, match=r"bad index range \[5, 3\)"):
            iter_valuations_with_bits(SequenceSpec.delannoy(), Prime(3), 3, 5)

    def test_dsum_zero_gives_infinity(self):
        vals = list(iter_sequence_valuations(SequenceSpec.dsum(), Prime(3), 3))
        assert vals[0] is INF or vals[0].is_infinite
        assert vals[1] == 0
        assert vals[2] == 1


class TestPlainIntStreams:
    """A valuation stream yields each finite valuation as a plain int and
    ``INF`` at a zero, and keeps none of the values it has yielded."""

    @pytest.mark.parametrize("exact", [False, True], ids=["modular", "exact"])
    @pytest.mark.parametrize("spec,p", [(SequenceSpec.legendre(2), Prime(2)), (SequenceSpec.legendre(0), Prime(3))],
                             ids=lambda x: x.canonical() if isinstance(x, SequenceSpec) else str(int(x)))
    def test_finite_valuations_are_plain_ints(self, spec, p, exact, monkeypatch):
        from legval import sequences

        if exact:  # no margin and a trivial bound of 0 hand the range to the exact stepper
            monkeypatch.setattr(sequences, "_MARGIN", 0)
            monkeypatch.setattr(sequences, "_vp_steps", lambda D, p, lo, hi: 0)
        got = list(iter_sequence_valuations(spec, p, 300))
        assert got == exact_valuations(spec, p, 300)
        assert all(type(v) is int for v in got if v != INF)
        assert all(v is INF for v in got if v == INF)
        assert got.count(INF) == (150 if spec.r == 0 else 0)  # P_n(0) = 0 at every odd n

    def test_stream_holds_no_value_it_yielded(self):
        # v2(P_n(2)) = (n mod 2) - v2(n!) takes about 10**5 distinct values
        # here; one object kept per value would take several MiB
        import tracemalloc

        tracemalloc.start()
        try:
            for _v in iter_sequence_valuations(SequenceSpec.legendre(2), Prime(2), 10**5):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


JUMP_SPECS = [
    SequenceSpec.legendre(3),
    SequenceSpec.legendre(Fraction(3, 5)),
    SequenceSpec.q(Fraction(-2, 3)),
    SequenceSpec.cigler(Fraction(7, 2)),
    SequenceSpec.delannoy(),
    SequenceSpec.dsum(),  # D(n) = n - 1 vanishes at n = 1
    SequenceSpec.cube2k(),  # order 3
]


class TestJumpAhead:
    """A range that starts past 1: ``_iter_scaled`` and
    ``iter_valuations_with_bits`` both step there from n = 0, with no jump,
    and yield from the start; every value either yields must equal the
    direct summation."""

    @pytest.mark.parametrize("start", [2, 3, 4, 242, 243, 244, 1000])
    @pytest.mark.parametrize("spec", JUMP_SPECS, ids=SequenceSpec.canonical)
    def test_matches_direct(self, spec, start):
        from legval.arith import vp_rat
        from legval.sequences import _KINDS, _iter_scaled, iter_valuations_with_bits

        stop = start + 4
        kind = _KINDS[spec.kind]
        scaled = [kind.direct(n, spec.r) for n in range(start, stop)]
        assert list(_iter_scaled(spec, start, stop)) == scaled
        values = [eval_sequence(spec, n) for n in range(start, stop)]
        assert list(iter_sequence_values(spec, stop, start)) == values
        for p in (Prime(2), Prime(3)):
            got = list(iter_valuations_with_bits(spec, p, stop, start))
            assert [val for val, _bits in got] == [vp_rat(p, v) for v in values]
            # bits: the length of the integer the stepper carried (a residue
            # modulo a power of p), > 0 for a finite valuation and 0 for inf
            assert all((bits > 0) != (val is INF) for val, bits in got)

    @pytest.mark.parametrize("spec", JUMP_SPECS, ids=SequenceSpec.canonical)
    def test_short_ranges(self, spec):
        from legval.sequences import _iter_scaled

        sweep = list(_iter_scaled(spec, 0, 247))
        for length in range(4):  # up to one past the seeds of an order-3 recurrence
            assert list(_iter_scaled(spec, 243, 243 + length)) == sweep[243:243 + length]


MODULAR_SPECS = [
    SequenceSpec.legendre(3),  # at p = 2, vp(U_n) = n: past n = 32 the stream restarts with a raised margin
    SequenceSpec.legendre(2),  # at p = 2, vp(A_1(n)) = 2 and vp(A_2(n)) >= 2
    SequenceSpec.q(Fraction(-7, 2)),
    SequenceSpec.cigler(Fraction(5, 3)),
    SequenceSpec.cigler(Fraction(4, 3)),  # 2b - a = 2: at p = 2 only the p = 2 proof covers it
    SequenceSpec.legendre(Fraction(1, 3)),  # 3 | b: the trivial bound at p = 3
    SequenceSpec.cigler(Fraction(1, 3)),  # 2b - a = 5: the trivial bound at p = 5
    SequenceSpec.delannoy(),
    SequenceSpec.dsum(),
    SequenceSpec.cube2k(),
]
# U_n = 0 at every odd n of these, because A_1(n) = 0 and U_1 = 0: the
# stepper flags those exact zeros and yields inf, with no fallback
ZERO_SPECS = [SequenceSpec.legendre(0), SequenceSpec.q(0)]
PRIMES = [Prime(2), Prime(3), Prime(5), Prime(7)]


def exact_valuations(spec, p, stop, start=0):
    """The oracle: vp of the exact values that ``_iter_scaled`` steps to."""
    from legval.arith import vp_rat

    return [vp_rat(p, v) for v in iter_sequence_values(spec, stop, start)]


def no_fallback(spec, p, shift, start, stop):
    """Stands in for ``sequences._exact_valuations`` where none may run."""
    raise AssertionError(f"fallback to the exact stepper at {start}")


def no_budget(D, p, lo, hi):
    """Stands in for ``sequences._vp_steps`` where neither the trivial bound
    nor a restart may be summed."""
    raise AssertionError("trivial bound or restart summed")


def chunk_starts(p):
    """0, 1, 2 and p**j - 1, p**j, p**j + 1 for the p**j up to 300."""
    starts = {0, 1, 2}
    pj = p
    while pj <= 300:
        starts |= {pj - 1, pj, pj + 1}
        pj *= p
    return sorted(starts)


class TestModularStepper:
    """``iter_valuations_with_bits`` steps modulo p**P from n = 0 and yields
    from the range start; every valuation must equal the exact stepper's."""

    @pytest.mark.parametrize("p", PRIMES, ids=int)
    @pytest.mark.parametrize("spec", MODULAR_SPECS + ZERO_SPECS, ids=SequenceSpec.canonical)
    def test_tables_match_exact(self, spec, p):
        from legval import miner

        N = 300
        want = exact_valuations(spec, p, N + 1)
        for jobs in (1, 2):
            assert list(miner.build_table(spec, p, N, jobs=jobs).values) == want

    @pytest.mark.parametrize("p", PRIMES, ids=int)
    @pytest.mark.parametrize("spec", MODULAR_SPECS + ZERO_SPECS, ids=SequenceSpec.canonical)
    def test_chunk_starts_match_exact(self, spec, p):
        from legval.sequences import iter_valuations_with_bits

        starts = chunk_starts(p)
        want = exact_valuations(spec, p, starts[-1] + 40)
        for start in starts:
            for stop in (start, start + 1, start + 2, start + 40):
                got = [v for v, _bits in iter_valuations_with_bits(spec, p, stop, start)]
                assert got == want[start:stop], (start, stop)

    @pytest.mark.parametrize("spec", MODULAR_SPECS + ZERO_SPECS, ids=SequenceSpec.canonical)
    def test_no_margin_falls_back_exactly(self, spec, monkeypatch):
        # With no digits beyond the loss bound, indices are left
        # undetermined, so the restart with a raised margin, and after it the
        # exact fallback, run over and over.
        from legval import sequences

        fallbacks = []
        exact, modular = sequences._exact_valuations, sequences._modular_valuations

        def counted(spec, p, shift, start, stop):
            fallbacks.append(start)
            return exact(spec, p, shift, start, stop)

        def restarts_counted(spec, p, start, stop, raised=None):
            if raised is not None:
                fallbacks.append(start)
            return modular(spec, p, start, stop, raised)

        monkeypatch.setattr(sequences, "_MARGIN", 0)
        monkeypatch.setattr(sequences, "_exact_valuations", counted)
        monkeypatch.setattr(sequences, "_modular_valuations", restarts_counted)
        for p in PRIMES:
            starts = chunk_starts(p)
            want = exact_valuations(spec, p, starts[-1] + 300)
            for start in starts:
                for stop in (start + 40, start + 300):
                    got = [v for v, _bits in sequences.iter_valuations_with_bits(spec, p, stop, start)]
                    assert got == want[start:stop], (int(p), start, stop)
        assert len(fallbacks) > 20

    def test_fallback_in_skipped_prefix_resumes_at_start(self, monkeypatch):
        # U_n = U_{n-1} - U_{n-2} from 1, 1 is 0 at n = 2, 5, 8, ..., never as
        # an exact zero, so the residue at n = 2 falls back; the exact stepper
        # must start at 1001, not at 2.  Its transition matrices are integral,
        # so L = 0 is a valid bound, given by ``loss`` and as the trivial one.
        from legval import sequences

        fallbacks = []
        exact = sequences._exact_valuations

        def counted(spec, p, shift, start, stop):
            fallbacks.append(start)
            return exact(spec, p, shift, start, stop)

        monkeypatch.setattr(sequences, "_exact_valuations", counted)
        spec, p = SequenceSpec.delannoy(), Prime(3)
        for loss in (None, 0):
            kinds = dict(sequences._KINDS)
            kinds[SequenceKind.DELANNOY] = sequences._Kind(
                direct=lambda n, r: 1, base=lambda r: 1, recurrence=lambda r: ((1,), ((1,), (-1,))),
                loss=lambda r, p, N: loss)
            monkeypatch.setattr(sequences, "_KINDS", kinds)
            fallbacks.clear()
            got = [v for v, _bits in sequences.iter_valuations_with_bits(spec, p, 1005, 1001)]
            assert fallbacks == [1001], loss
            assert got == exact_valuations(spec, p, 1005, 1001) == [INF, 0, 0, INF]

    def test_unsettled_index_restarts_with_raised_margin(self, monkeypatch):
        # legendre(1/s) with s**2 = 3 mod 11**40 has U_2 = 2*(3 - s**2), so
        # vp_11(U_2) >= 40, above the 32 digits the first pass settles; the
        # stream restarts from n = 0 at the same constant precision with the
        # margin raised by the trivial bound, which settles it, and never
        # steps the exact integers
        from legval import sequences

        mod = 11**40
        s = 5  # 5**2 = 3 mod 11, lifted by Newton's iteration
        for _ in range(6):
            s = (s - (s * s - 3) * pow(2 * s, -1, mod)) % mod
        spec, p = SequenceSpec.legendre(Fraction(1, s)), Prime(11)
        want = exact_valuations(spec, p, 300)
        assert want[2] >= 40
        monkeypatch.setattr(sequences, "_exact_valuations", no_fallback)
        for start in (0, 2, 3, 150):
            got = [v for v, _bits in sequences.iter_valuations_with_bits(spec, p, 300, start)]
            assert got == want[start:], start
        assert sum(1 for _ in sequences.iter_valuations_with_bits(spec, p, 3000)) == 3000

    @pytest.mark.parametrize("p", PRIMES, ids=int)
    @pytest.mark.parametrize("spec", ZERO_SPECS, ids=SequenceSpec.canonical)
    def test_exact_zeros_do_not_fall_back(self, spec, p, monkeypatch):
        from legval import sequences

        want = exact_valuations(spec, p, 1001)
        monkeypatch.setattr(sequences, "_exact_valuations", no_fallback)
        for start in (0, 1, 2, 3, 500, 501):
            got = [v for v, _bits in sequences.iter_valuations_with_bits(spec, p, 1001, start)]
            assert got == want[start:]
        assert want[1::2] == [INF] * 500

    @pytest.mark.parametrize("spec", [SequenceSpec.legendre(3**40), SequenceSpec.cigler(Fraction(3**40, 2))],
                             ids=SequenceSpec.canonical)
    def test_large_seed_valuation_settles(self, spec, monkeypatch):
        # vp(U_n) >= 40 at every odd n, above _MARGIN: the constant precision
        # keeps the seeds' valuations too, so no index is left open
        from legval import sequences

        three = Prime(3)
        want = exact_valuations(spec, three, 301)
        monkeypatch.setattr(sequences, "_exact_valuations", no_fallback)
        assert [v for v, _bits in sequences.iter_valuations_with_bits(spec, three, 301)] == want
        assert min(want[1::2]) >= 40

    @pytest.mark.parametrize("p", PRIMES, ids=int)
    @pytest.mark.parametrize("spec", MODULAR_SPECS, ids=SequenceSpec.canonical)
    def test_loss_bound_holds(self, spec, p):
        # The constant precision needs vp(T(j, n)) >= -L for k-1 <= j < n <= N,
        # T(j, n) = M(n)...M(j+1) / (D(j+1)...D(n)).  Step the integer
        # companion products from every origin j, modulo p**K with K above
        # every vp(D(j+1)...D(n)), so a residue 0 means enough valuation.
        # Where no bound is proven, L is the trivial one the stepper sums.
        from legval.arith import vp_int
        from legval.sequences import _KINDS, _at, _vp_steps

        kind = _KINDS[spec.kind]
        e = 5 if p <= 3 else 3
        N = p**e
        D, A = kind.recurrence(spec.r)
        k = len(A)
        L = kind.loss(spec.r, p, N + 1)
        proven = L is not None
        if not proven:
            L = _vp_steps(D, p, k, N + 1)
        steps = [(_at(D, n), [_at(c, n) for c in A]) for n in range(N + 1)]
        owed = [0] * (k + 1)  # owed[n] = vp(D(k)...D(n-1))
        for d, _a in steps[k:]:
            owed.append(owed[-1] + vp_int(p, d).value)
        mod = p ** (owed[-1] + 1)
        vp_of = {p**i: i for i in range(owed[-1] + 2)}  # vp of a gcd with mod, a power of p
        lost = 0
        for j in range(k - 1, N):
            rows = [[int(i == c) for c in range(k)] for i in range(k)]
            for n in range(j + 1, N + 1):
                d, a = steps[n]
                top = [sum(map(mul, a, col)) % mod for col in zip(*rows)]
                rows = [top] + [[d * x for x in row] for row in rows[:-1]]
                kept = vp_of[math.gcd(mod, *chain.from_iterable(rows))]
                lost = max(lost, owed[n + 1] - owed[j + 1] - kept)
        assert lost <= L
        if not proven or spec.kind in (SequenceKind.DSUM, SequenceKind.CUBE2K):
            return
        c = -steps[2][1][1]  # A_2(2) = -c of n*U_n = α*(2n-1)*U_{n-1} - c*(n-1)*U_{n-2}
        if c % p:
            assert lost == e  # the Casoratian bound ⌊log_p N⌋, attained at N = p**e
        else:
            assert lost <= e + 1  # 2 | c: the p = 2 bound ⌊log_2 N⌋ + 1

    @pytest.mark.parametrize("p, N", [(3, 3**9 + 10), (5, 5**6 + 10)])
    def test_tables_at_scale_match_digit_formula(self, p, N):
        # far past the p**j boundaries of the N = 300 grid; the thm4 digit
        # formula is an oracle that shares no code with the stepper
        from legval import miner
        from legval.predictors import predict_vp_legendre_at_p_digits

        p = Prime(p)
        table = miner.build_table(SequenceSpec.legendre(p), p, N)
        assert list(table.values) == [predict_vp_legendre_at_p_digits(p, n) for n in range(N + 1)]

    def test_vp_steps(self):
        from legval.sequences import _vp_steps

        two = Prime(2)
        # vp(D) of D(n) = 2n over n = 2..5 is 2 + 1 + 3 + 1
        assert _vp_steps((0, 2), two, 2, 6) == 7
        assert _vp_steps((0, 1), Prime(3), 1, 10) == 4  # v_3(9!)
        assert _vp_steps((0, 2), two, 2, 2) == 0  # no steps

    def test_growing_valuation_ends_exact(self, monkeypatch):
        # U_n = 4*U_{n-1} + 4*U_{n-2} from 1, 2 has vp_2(U_n) = n, which
        # outgrows any precision the restart holds (here none: D(n) = 1 and no
        # margin), so the stream hands its range, from n = 2 or from its
        # start, to the exact stepper, and every valuation stays exact.
        from legval import sequences

        kinds = dict(sequences._KINDS)
        kinds[SequenceKind.DELANNOY] = sequences._Kind(
            direct=lambda n, r: (1, 2)[n], base=lambda r: 1, recurrence=lambda r: ((1,), ((4,), (4,))))
        monkeypatch.setattr(sequences, "_KINDS", kinds)
        monkeypatch.setattr(sequences, "_MARGIN", 0)
        fallbacks = []
        exact = sequences._exact_valuations

        def counted(spec, p, shift, start, stop):
            fallbacks.append(start)
            return exact(spec, p, shift, start, stop)

        monkeypatch.setattr(sequences, "_exact_valuations", counted)
        spec, two = SequenceSpec.delannoy(), Prime(2)
        assert exact_valuations(spec, two, 60) == list(range(60))
        for start in (0, 1, 2, 7, 8, 9, 31, 32, 33):
            fallbacks.clear()
            got = [v for v, _bits in sequences.iter_valuations_with_bits(spec, two, 60, start)]
            assert got == list(range(start, 60)), start
            assert fallbacks == [max(2, start)], start

    @pytest.mark.parametrize("spec,p", [
        (SequenceSpec.legendre(3), Prime(2)), (SequenceSpec.legendre(3), Prime(3)),
        (SequenceSpec.legendre(0), Prime(3)), (SequenceSpec.q(0), Prime(2)), (SequenceSpec.q(0), Prime(3)),
    ], ids=lambda x: x.canonical() if isinstance(x, SequenceSpec) else str(int(x)))
    def test_exact_fallback_shares_one_value_per_valuation(self, spec, p, monkeypatch):
        # no margin and a trivial bound of 0 leave an early index undetermined
        # on both passes, so the exact stepper yields the rest of the range,
        # in which valuations repeat; the table built from it shares one
        # PadicVal per value
        from legval import sequences
        from legval.arith import PadicVal
        from legval.miner import build_table

        fallbacks = []
        exact = sequences._exact_valuations

        def counted(spec, p, shift, start, stop):
            fallbacks.append(start)
            return exact(spec, p, shift, start, stop)

        monkeypatch.setattr(sequences, "_MARGIN", 0)
        monkeypatch.setattr(sequences, "_vp_steps", lambda D, p, lo, hi: 0)
        monkeypatch.setattr(sequences, "_exact_valuations", counted)
        N = 300
        got = list(build_table(spec, p, N - 1).values)
        assert got == exact_valuations(spec, p, N)
        [start] = fallbacks
        assert start <= 3
        if spec.r == 0:  # U_n = 0 at every odd n
            assert all(v is INF for v in got[1::2])
        finite = [v for v in got[start:] if not v.is_infinite]
        assert all(type(v) is PadicVal for v in finite)
        assert len({id(v) for v in finite}) == len(set(finite)) < len(finite)

    @pytest.mark.parametrize("spec", [SequenceSpec.legendre(2), SequenceSpec.q(Fraction(4, 3)),
                                      SequenceSpec.cigler(Fraction(4, 3))], ids=SequenceSpec.canonical)
    def test_two_adic_streams_stay_at_constant_precision(self, spec, monkeypatch):
        # 2 divides c in n*U_n = α*(2n-1)*U_{n-1} - c*(n-1)*U_{n-2} here, and
        # the p = 2 proof above ``_Kind`` bounds the loss: the stream neither
        # sums the trivial bound nor steps the exact integers, past 2**12 as well
        from legval import sequences
        from legval.predictors import predict_vp_legendre_at_2

        two, N = Prime(2), 2**12 + 10
        if spec.kind is SequenceKind.LEGENDRE:  # Theorem 5's formula, which shares no code with the stepper
            want = [predict_vp_legendre_at_2(n) for n in range(N)]
        else:
            want = exact_valuations(spec, two, N)
        monkeypatch.setattr(sequences, "_vp_steps", no_budget)
        monkeypatch.setattr(sequences, "_exact_valuations", no_fallback)
        for start in (0, 1, 2, 2**12 - 1, 2**12, 2**12 + 1):
            got = [v for v, _bits in sequences.iter_valuations_with_bits(spec, two, N, start)]
            assert got == want[start:], start

    def test_cube2k_at_three_stays_at_constant_precision(self, monkeypatch):
        # the p = 3 proof above ``_Kind`` bounds the loss of cube2k, the
        # stream conj2 reads: it neither sums the trivial bound nor steps the
        # exact integers, past 3**7 as well
        from legval import sequences

        spec, three, N = SequenceSpec.cube2k(), Prime(3), 3**7 + 10
        want = exact_valuations(spec, three, N)
        monkeypatch.setattr(sequences, "_vp_steps", no_budget)
        monkeypatch.setattr(sequences, "_exact_valuations", no_fallback)
        for start in (0, 1, 2, 3**7 - 1, 3**7, 3**7 + 1):
            got = [v for v, _bits in sequences.iter_valuations_with_bits(spec, three, N, start)]
            assert got == want[start:], start

    def test_steps_settle_without_vp_int(self, monkeypatch):
        # each step settles on a plain-int valuation: ``vp_int`` runs only for
        # the base B and the seeds U_0 = 1 and U_1 = 6 of legendre(3)
        from legval import sequences
        from legval.predictors import predict_vp_legendre_at_p_digits

        calls = []
        vp_int = sequences.vp_int

        def counted(p, n):
            calls.append(n)
            return vp_int(p, n)

        monkeypatch.setattr(sequences, "vp_int", counted)
        three, N = Prime(3), 10**4
        got = list(sequences.iter_sequence_valuations(SequenceSpec.legendre(3), three, N))
        assert sorted(calls) == [1, 2, 6]
        assert got == [predict_vp_legendre_at_p_digits(three, n) for n in range(N)]

    @pytest.mark.parametrize("spec", [SequenceSpec.legendre(3), SequenceSpec.q(3)], ids=SequenceSpec.canonical)
    def test_odd_point_streams_at_two_step_no_exact_integer(self, spec, monkeypatch):
        # a and b odd: U_n is 2**n times the odd central Delannoy number
        # P_n(3), past the first pass's margin from n = 33 on, and the
        # restart's margin, raised by v_2((N-1)!), settles every index
        from legval import sequences

        two, N = Prime(2), 2**10 + 10
        want = exact_valuations(spec, two, N)
        assert want == ([0] * N if spec.kind is SequenceKind.LEGENDRE else list(range(N)))
        monkeypatch.setattr(sequences, "_exact_valuations", no_fallback)
        for start in (0, 1, 2, 2**10 - 1, 2**10, 2**10 + 1):
            got = [v for v, _bits in sequences.iter_valuations_with_bits(spec, two, N, start)]
            assert got == want[start:], start
