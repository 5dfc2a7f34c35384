"""Verification campaigns: closed-form predictors against the exact oracle.

Each campaign sweeps an inclusive index range, compares a predictor with the
independently computed exact valuation (or two independent exact evaluations
with each other), and returns a ``VerificationReport`` listing every mismatch.
Exact valuations come from streams, read as each index is checked, so no
campaign holds a table (thm6 reads n and p*n + a from two).  Every mismatch
but lemma6's comes from one strict walk, ``_mismatches``, of the indices, the
actual values and the predicted ones.  thm3, thm4, thm5, conj1, conj2 and
strauss are each one ``_compare`` of range forms, which adds a skip of the
``_BLOCK``-index blocks whose lists all agree: their ``_PREDICTORS`` against
the stream (conj1 ``--against digits``: thm4's digit form).  Open conjectures
report a mismatch as ``counterexample-found``, not ``fail``.
A bad input or a violated hypothesis raises ``UsageError`` where it is checked.
``_CAMPAIGNS`` and ``_PREDICTORS`` map the ids of ``legval verify`` and
``legval predict`` to their campaigns and to the builders of the predictors'
range forms, which ``predict`` streams through ``_predictions``.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import chain, islice, starmap
from math import comb
from operator import itemgetter

from .arith import Prime, UsageError, digit_sum, unlimited_int_digits, vp_int, vp_rat
from .miner import build_table  # not called here; bench/tracing.py patches verify.build_table
from .predictors import (
    PredictionContext,
    predict_b_conjecture1_range,
    predict_by_recurrence_range,
    predict_cube_sum_v3,
    predict_strauss_shallit,
    predict_vp_Q,
    predict_vp_legendre_at_2,
    predict_vp_legendre_at_p_cases,
    predict_vp_legendre_at_p_digits_range,
    predict_vp_legendre_general,
    predict_vp_legendre_general_oneline,
    recurrence_step,
)
from .sequences import (
    SequenceSpec,
    cigler_eval,
    cube_sum_2k,
    iter_sequence_valuations,
    legendre_eval_binomial,
    legendre_eval_rodrigues,
    legendre_eval_square_form,
)

__all__ = [
    "Mismatch",
    "VerificationReport",
    "THEOREM_IDS",
    "CONJECTURE_IDS",
    "CONJ1_AGAINST",
    "DEFAULT_RATIONAL_POINTS",
    "run_verification",
]


@dataclass(frozen=True)
class Mismatch:
    n: int
    predicted: str
    actual: str
    detail: str = ""


@dataclass
class VerificationReport:
    theorem_id: str
    parameters: dict[str, str]
    checked: int
    mismatches: list[Mismatch] = field(default_factory=list)
    status: str = "pass"

    @property
    def passed(self) -> bool:
        return self.status in ("pass", "skipped")


_BLOCK = 3**10  # a range form's list holds at most this many indices (see ``_blocks``)

DEFAULT_RATIONAL_POINTS: tuple[Fraction, ...] = (
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
)


def _report(theorem_id: str, parameters: dict[str, str], checked: int,
            mismatches: Iterable[Mismatch]) -> VerificationReport:
    """The report of a campaign.  ``mismatches`` come from ``_mismatches``
    (lemma6's from its own check), and ``_compare`` adds the block skip; their
    text holds exact values, so they are read with the digit limit lifted."""
    with unlimited_int_digits():
        mismatches = list(mismatches)
    if not mismatches:
        status = "pass"
    elif theorem_id in CONJECTURE_IDS:
        status = "counterexample-found"
    else:
        status = "fail"
    return VerificationReport(theorem_id, parameters, checked, mismatches, status)


def _require_odd(p: Prime, theorem_id: str) -> Prime:
    if p < 3:
        raise UsageError(f"{theorem_id} requires an odd prime p >= 3, got p={int(p)}")
    return p


def _range_params(lo: int, hi: int, **extra: str) -> dict[str, str]:
    if lo < 0 or hi < lo:
        raise UsageError(f"bad index range {lo}..{hi}")
    params = {"n": f"{lo}..{hi}"}
    params.update(extra)
    return params


def _blocks(lo: int, stop: int) -> Iterator[tuple[int, int]]:
    """The (start, stop) of the pieces of [lo, stop) cut at the multiples of
    ``_BLOCK``, for range forms that hold one piece's list at a time."""
    cuts = range(lo - lo % _BLOCK + _BLOCK, stop, _BLOCK)
    return zip(chain([lo], cuts), chain(cuts, [stop]))


def _predictions(form: Callable[[int, int], Iterable], indices: range) -> Iterator:
    """The values of the range form ``form`` at ``indices``, a range of step 1,
    read one ``_blocks`` piece at a time."""
    return chain.from_iterable(starmap(form, _blocks(indices.start, indices.stop)))


def _each(fn: Callable[[int], object]) -> Callable[[int, int], Iterator]:
    """The range form of a per-index predictor, computed lazily, one index at a time."""
    return lambda lo, hi: map(fn, range(lo, hi))


def _valuations(spec: SequenceSpec, p: Prime, indices: range) -> Iterator[int | float]:
    """vp at each n of ``indices``, a range of step 1 or 2, from one stream of
    [start, stop), paired with that whole range strictly: a value missing or
    extra at any offset raises ``ValueError``, not only at the indices read."""
    vals = iter_sequence_valuations(spec, p, indices.stop, indices.start)
    whole = zip(range(indices.start, indices.stop), vals, strict=True)
    return islice(map(itemgetter(1), whole), 0, None, indices.step)


def _streamed(spec: SequenceSpec, p: Prime, indices: range) -> Callable[[int, int], Iterator]:
    """The range form of the valuations at ``indices`` (step 1) from one stream, read in
    order: the next hi - lo values, and at the end all that are left, for a strict zip."""
    vals = iter(iter_sequence_valuations(spec, p, indices.stop, indices.start))
    return lambda lo, hi: islice(vals, hi - lo if hi < indices.stop else None)


def _mismatches(indices: Iterable[int], actual: Iterable, *predicted: Iterable,
                names: tuple[str, ...] = ()) -> Iterator[Mismatch]:
    """A ``Mismatch`` at each index where the ``predicted`` values differ from
    the ``actual`` one, walking all sides with a strict zip: a side one value
    short or long raises ``ValueError``.  With ``names``, predictions print as
    ``name=value``."""
    for n, row in zip(indices, zip(actual, *predicted, strict=True), strict=True):
        if row.count(row[0]) != len(row):
            predicted = " ".join(f"{name}={v}" for name, v in zip(names, row[1:])) if names else str(row[1])
            yield Mismatch(n, predicted, str(row[0]))


def _compare(indices: range, actual: Callable, *predicted: Callable, names: tuple[str, ...] = ()
             ) -> Iterator[Mismatch]:
    """The ``_mismatches`` of the range forms ``predicted`` against ``actual`` at
    ``indices``, a range of step 1, read a ``_blocks`` piece at a time: a piece
    whose lists all equal is skipped, and any other walked."""
    for lo, hi in _blocks(indices.start, indices.stop):
        want, *got = actual(lo, hi), *(form(lo, hi) for form in predicted)
        if not all(values == want for values in got):  # never all for a lazy side
            yield from _mismatches(range(lo, hi), want, *got, names=names)
        del want, got  # one piece's lists at a time: dropped before the next is made


def verify_thm4(p: Prime, lo: int, hi: int) -> VerificationReport:
    """All three predictors for vp(P_n(p)), odd p, against the exact oracle."""
    p = _require_odd(p, "thm4")
    params, indices = _range_params(lo, hi, p=str(int(p))), range(lo, hi + 1)
    return _report("thm4", params, len(indices), _compare(
        indices, _streamed(SequenceSpec.legendre(p), p, indices),
        *(_PREDICTORS[key](p) for key in ("thm4", "thm4-digits", "thm4-rec")),
        names=("cases", "digits", "recurrence")))


def verify_thm5(lo: int, hi: int) -> VerificationReport:
    """The 2-adic formula for vp(P_n(2)) against the exact oracle."""
    params, indices = _range_params(lo, hi), range(lo, hi + 1)
    return _report("thm5", params, len(indices), _compare(
        indices, _streamed(SequenceSpec.legendre(2), Prime(2), indices), _PREDICTORS["thm5"]()))


def verify_thm3(p: Prime, r: Fraction, lo: int, hi: int) -> VerificationReport:
    """Both general predictors for vp(P_n(r)), vp(r) >= 1, against the oracle."""
    forms = _PREDICTORS["thm3"](p, r), _PREDICTORS["thm3-oneline"](p, r)
    params, indices = _range_params(lo, hi, p=str(int(p)), r=str(Fraction(r))), range(lo, hi + 1)
    return _report("thm3", params, len(indices), _compare(
        indices, _streamed(SequenceSpec.legendre(r), p, indices), *forms, names=("cases", "oneline")))


def verify_thm6(p: Prime, lo: int, hi: int) -> VerificationReport:
    """The digit recurrence step f(pn+a) from f(n), against the exact oracle."""
    p = _require_odd(p, "thm6")
    params = _range_params(lo, hi, p=str(int(p)))
    spec, q = SequenceSpec.legendre(p), int(p)
    parents, children = range(lo, hi + 1), range(q * lo, q * hi + q)  # child p*n + a of parent n
    steps = (recurrence_step(p, f_n, n, a)
             for n, f_n in zip(parents, _valuations(spec, p, parents), strict=True) for a in range(q))
    mismatches = _mismatches(children, _valuations(spec, p, children), steps)
    return _report("thm6", params, len(children), (
        replace(m, detail=f"n={m.n // q} a={m.n % q}") for m in mismatches))


def verify_thm7(p: Prime, lo: int, hi: int) -> VerificationReport:
    """vp of the Cigler value M_n(p) vs vp of P_n(p), both by direct summation.

    The two sides use unrelated formulas (squared-binomial sum vs Rodrigues
    alternating sum), so their agreement is a genuine cross-check.
    """
    p = _require_odd(p, "thm7")
    params, indices = _range_params(lo, hi, p=str(int(p))), range(lo, hi + 1)
    x = Fraction(int(p))
    return _report("thm7", params, len(indices), _mismatches(
        indices, (vp_rat(p, legendre_eval_rodrigues(n, x)) for n in indices),
        (vp_rat(p, cigler_eval(n, x)) for n in indices)))


def verify_conj1(lo: int, hi: int, against: str = "oracle") -> VerificationReport:
    """Conjectured 3-adic Delannoy valuations, either against the exact
    Delannoy oracle or against the digit formula (fast, for huge ranges)."""
    if against not in CONJ1_AGAINST:
        raise UsageError(f"conj1 comparison must be {' or '.join(map(repr, CONJ1_AGAINST))}, got {against!r}")
    params, indices = _range_params(lo, hi, against=against), range(lo, hi + 1)
    actual = (_streamed(SequenceSpec.delannoy(), Prime(3), indices) if against == "oracle"
              else _PREDICTORS["thm4-digits"](Prime(3)))
    return _report("conj1", params, len(indices), _compare(indices, actual, _PREDICTORS["conj1"]()))


def verify_conj2(lo: int, hi: int) -> VerificationReport:
    """Open conjecture: digit formula for v3 of sum C(n,k)**3 * 2**k.  A
    mismatch dumps the full exact integer, summed directly, for scrutiny."""
    params, indices = _range_params(lo, hi), range(lo, hi + 1)
    mismatches = _compare(indices, _streamed(SequenceSpec.cube2k(), Prime(3), indices), _PREDICTORS["conj2"]())
    return _report("conj2", params, len(indices), (
        replace(m, detail=f"value={cube_sum_2k(m.n)}") for m in mismatches))


def verify_strauss(lo: int, hi: int) -> VerificationReport:
    """v3 of partial sums of central binomials vs v3(C(2n,n)) + 2*v3(n)."""
    if lo < 1:
        raise UsageError("strauss is defined for n >= 1 (the n = 0 sum is zero)")
    params, indices = _range_params(lo, hi), range(lo, hi + 1)
    return _report("strauss", params, len(indices), _compare(
        indices, _streamed(SequenceSpec.dsum(), Prime(3), indices), _PREDICTORS["strauss"]()))


def verify_lemma6(p: Prime, lo: int, hi: int) -> VerificationReport:
    """The odd-index binomial valuation identity, all three expressions,
    plus the exact valuation of the actual binomial coefficients.

    The binomials are maintained by exact ratio updates (from-scratch
    ``comb`` anchors every 512 steps) so long sweeps stay linear.
    """
    params = _range_params(lo, hi, p=str(int(p)))
    central = comb(2 * lo, lo)  # C(2m, m)

    def check(m: int) -> Mismatch | None:
        nonlocal central
        if m > lo:
            central = central * 2 * (2 * m - 1) // m
        if m % 512 == 0:
            assert central == comb(2 * m, m), "ratio update drifted from comb()"
        odd = central * (2 * m + 1) // (m + 1)  # C(2m+1, m)
        lhs = vp_int(p, 2 * m + 1) + vp_int(p, central)
        mid = vp_int(p, m + 1) + vp_int(p, odd)
        num = 2 * digit_sum(p, m) - digit_sum(p, 2 * m + 1) + 1
        q, rem = divmod(num, int(p) - 1)
        if rem == 0 and lhs == mid == q:
            return None
        return Mismatch(m, f"{lhs} / {mid}", f"digit form {num}/(p-1)")

    return _report("lemma6", params, hi - lo + 1, filter(None, map(check, range(lo, hi + 1))))


def _verify_q_parity(theorem_id: str, parity: int, p: Prime, r: Fraction,
                     lo: int, hi: int) -> VerificationReport:
    ctx = PredictionContext(p, r)
    params = _range_params(lo, hi, p=str(int(p)), r=str(ctx.r))
    indices = range(lo + (lo + parity) % 2, hi + 1, 2)
    return _report(theorem_id, params, len(indices), _mismatches(
        indices, _valuations(SequenceSpec.q(r), p, indices), (predict_vp_Q(ctx, n) for n in indices)))


def verify_lemma8(p: Prime, r: Fraction, lo: int, hi: int) -> VerificationReport:
    """vp(Q_n(r)) at even n equals vp of the central binomial coefficient."""
    return _verify_q_parity("lemma8", 0, p, r, lo, hi)


def verify_lemma9(p: Prime, r: Fraction, lo: int, hi: int) -> VerificationReport:
    """vp(Q_n(r)) at odd n, including the extra +1 for p = 2."""
    return _verify_q_parity("lemma9", 1, p, r, lo, hi)


def verify_eq_ma(lo: int, hi: int) -> VerificationReport:
    """Substitution identity M_n(x) = (2-x)**n * P_n(x/(2-x)) for x != 2."""
    points = tuple(x for x in DEFAULT_RATIONAL_POINTS if x != 2)
    params, indices = _range_params(lo, hi, points=",".join(str(x) for x in points)), range(lo, hi + 1)
    return _report("eq-ma", params, len(points) * len(indices), (
        replace(m, detail=f"x={x}") for x in points for m in _mismatches(
            indices, ((2 - x) ** n * legendre_eval_rodrigues(n, x / (2 - x)) for n in indices),
            (cigler_eval(n, x) for n in indices))))


def verify_formula_agreement(lo: int, hi: int) -> VerificationReport:
    """The three Legendre evaluation formulas agree exactly on a point set."""
    points = DEFAULT_RATIONAL_POINTS
    params, indices = _range_params(lo, hi, points=",".join(str(x) for x in points)), range(lo, hi + 1)
    return _report("formula-agreement", params, len(points) * len(indices), (
        replace(m, actual=f"square={m.actual}", detail=f"x={x}") for x in points for m in _mismatches(
            indices, (legendre_eval_square_form(n, x) for n in indices),
            (legendre_eval_binomial(n, x) for n in indices), (legendre_eval_rodrigues(n, x) for n in indices),
            names=("binomial", "rodrigues"))))


_CAMPAIGNS: dict[str, Callable[..., VerificationReport]] = {
    "thm3": verify_thm3,
    "thm4": verify_thm4,
    "thm5": verify_thm5,
    "thm6": verify_thm6,
    "thm7": verify_thm7,
    "conj1": verify_conj1,
    "conj2": verify_conj2,
    "strauss": verify_strauss,
    "lemma6": verify_lemma6,
    "lemma8": verify_lemma8,
    "lemma9": verify_lemma9,
    "eq-ma": verify_eq_ma,
    "formula-agreement": verify_formula_agreement,
}
THEOREM_IDS = tuple(_CAMPAIGNS)
# a mismatch is a counterexample-found, not a fail: conj1 is proved only in the
# p = 3 reading and kept flagged; conj2 is open, and its mismatches are findings
CONJECTURE_IDS = frozenset({"conj1", "conj2"})
# what conj1 compares its predictor with: the exact oracle, or the thm4 digit formula at p = 3
CONJ1_AGAINST = ("oracle", "digits")

# predictor id: the builder of its range form f(lo, hi), the values at lo .. hi - 1
# (``_each`` of its per-index form where it has no other), whose parameters are the
# options it requires.  ``predict`` and every campaign that calls ``_compare`` take
# their predictors from here, by id.  Builders look predictor names up when called:
# bench/tracing.py counts calls to these names, and would count 0 from predictors.py.
_PREDICTORS = {
    "thm3": lambda p, r: _each(partial(predict_vp_legendre_general, PredictionContext(p, r))),
    "thm3-oneline": lambda p, r: _each(partial(predict_vp_legendre_general_oneline, PredictionContext(p, r))),
    "thm4": lambda p: _each(partial(predict_vp_legendre_at_p_cases, p)),
    "thm4-digits": lambda p: partial(predict_vp_legendre_at_p_digits_range, p),
    "thm4-rec": lambda p: partial(predict_by_recurrence_range, p),
    "thm5": lambda: _each(predict_vp_legendre_at_2),
    "q": lambda p, r: _each(partial(predict_vp_Q, PredictionContext(p, r))),
    "cigler": lambda p: partial(predict_vp_legendre_at_p_digits_range, p),
    "conj1": lambda: predict_b_conjecture1_range,
    "conj2": lambda: _each(predict_cube_sum_v3),
    "strauss": lambda: _each(predict_strauss_shallit),
}


def run_verification(
    theorem_id: str,
    lo: int,
    hi: int,
    *,
    p: Prime | None = None,
    r: Fraction | None = None,
    against: str = "oracle",
) -> VerificationReport:
    """Runs a campaign by id with the parameters it takes (see ``_bind_options``)."""
    run = _CAMPAIGNS.get(theorem_id)
    if run is None:
        raise UsageError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    given = {"p": p, "r": r, "against": against}
    return run(lo=lo, hi=hi, **_bind_options(theorem_id, run, given))


def _bind_options(name: str, fn: Callable, given: dict[str, object]) -> dict[str, object]:
    """The entries of ``given`` that ``fn`` takes as parameters.  A parameter
    it requires (one without a default) must not be ``None``; else the
    ``UsageError`` names ``name`` and every required option."""
    takes = inspect.signature(fn).parameters
    required = [key for key in takes if key in given and takes[key].default is inspect.Parameter.empty]
    if any(given[key] is None for key in required):
        raise UsageError(f"{name} requires " + " and ".join(f"--{key}" for key in required))
    return {key: given[key] for key in takes if key in given}
