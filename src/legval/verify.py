"""Verification campaigns: closed-form predictors against the exact oracle.

Each campaign sweeps an inclusive index range, compares a predictor with the
independently computed exact valuation (or two independent exact evaluations
with each other), and returns a ``VerificationReport`` listing every mismatch.
Exact valuations come from streams, read as each index is checked, so no
campaign holds a table (thm6 reads n and p*n + a from two), and conj1 against
digits holds its predictor lists one block at a time, from any start.  Open
conjectures report a mismatch as ``counterexample-found``, not ``fail``.
A bad input or a violated hypothesis raises ``UsageError`` where it is checked.
``_CAMPAIGNS`` and ``_PREDICTORS`` map the ids of ``legval verify`` and
``legval predict`` to their campaigns and predictor builders.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import islice, product
from math import comb

from .arith import Prime, UsageError, digit_sum, unlimited_int_digits, vp_int, vp_rat
from .miner import build_table  # not called here; bench/tracing.py patches verify.build_table
from .predictors import (
    PredictionContext,
    predict_b_conjecture1,
    predict_b_conjecture1_range,
    predict_by_recurrence,
    predict_cube_sum_v3,
    predict_strauss_shallit,
    predict_vp_Q,
    predict_vp_cigler,
    predict_vp_legendre_at_2,
    predict_vp_legendre_at_p_cases,
    predict_vp_legendre_at_p_digits,
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


_BLOCK = 3**10  # conj1 --against digits holds its two predictor lists this many indices at a time

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
            mismatches: Iterable[Mismatch | None]) -> VerificationReport:
    """The report of a campaign.  ``mismatches`` may hold ``None`` for each
    case that agreed, so a campaign can pass one ``_differ`` per case.  Their
    text holds exact values, so they are read with the digit limit lifted."""
    with unlimited_int_digits():
        mismatches = [m for m in mismatches if m is not None]
    if not mismatches:
        status = "pass"
    elif theorem_id in CONJECTURE_IDS:
        status = "counterexample-found"
    else:
        status = "fail"
    return VerificationReport(theorem_id, parameters, checked, mismatches, status)


def _differ(n: int, predicted, actual, detail: str = "") -> Mismatch | None:
    """``None`` when every predicted value equals every actual one, else the
    mismatch.  Several values on one side come as a dict of named values and
    print as ``name=value``."""
    if predicted == actual:  # a dict side equals no scalar, and no dict with other names
        return None
    values = [v for side in (predicted, actual)
              for v in (side.values() if isinstance(side, dict) else (side,))]
    if all(v == values[0] for v in values):
        return None
    return Mismatch(n, _side_text(predicted), _side_text(actual), detail)


def _side_text(side) -> str:
    if isinstance(side, dict):
        return " ".join(f"{name}={value}" for name, value in side.items())
    return str(side)


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


def _valuations(spec: SequenceSpec, p: Prime, indices: range) -> Iterator[tuple[int, int | float]]:
    """(n, vp at n) for each n of ``indices``, a range of step 1 or 2, from one stream."""
    vals = iter_sequence_valuations(spec, p, indices.stop, indices.start)
    return zip(indices, islice(vals, 0, None, indices.step), strict=True)


def verify_thm4(p: Prime, lo: int, hi: int) -> VerificationReport:
    """All three predictors for vp(P_n(p)), odd p, against the exact oracle."""
    p = _require_odd(p, "thm4")
    params = _range_params(lo, hi, p=str(int(p)))
    return _report("thm4", params, hi - lo + 1, (_differ(n, {
        "cases": predict_vp_legendre_at_p_cases(p, n),
        "digits": predict_vp_legendre_at_p_digits(p, n),
        "recurrence": predict_by_recurrence(p, n),
    }, actual) for n, actual in _valuations(SequenceSpec.legendre(p), p, range(lo, hi + 1))))


def verify_thm5(lo: int, hi: int) -> VerificationReport:
    """The 2-adic formula for vp(P_n(2)) against the exact oracle."""
    params = _range_params(lo, hi)
    return _report("thm5", params, hi - lo + 1, (_differ(n, predict_vp_legendre_at_2(n), actual)
        for n, actual in _valuations(SequenceSpec.legendre(2), Prime(2), range(lo, hi + 1))))


def verify_thm3(p: Prime, r: Fraction, lo: int, hi: int) -> VerificationReport:
    """Both general predictors for vp(P_n(r)), vp(r) >= 1, against the oracle."""
    ctx = PredictionContext(p, r)
    params = _range_params(lo, hi, p=str(int(p)), r=str(ctx.r))
    return _report("thm3", params, hi - lo + 1, (_differ(n, {
        "cases": predict_vp_legendre_general(ctx, n),
        "oneline": predict_vp_legendre_general_oneline(ctx, n),
    }, actual) for n, actual in _valuations(SequenceSpec.legendre(r), p, range(lo, hi + 1))))


def verify_thm6(p: Prime, lo: int, hi: int) -> VerificationReport:
    """The digit recurrence step f(pn+a) from f(n), against the exact oracle."""
    p = _require_odd(p, "thm6")
    params = _range_params(lo, hi, p=str(int(p)))
    spec, q = SequenceSpec.legendre(p), int(p)
    children = zip(*[_valuations(spec, p, range(q * lo, q * hi + q))] * q)  # p*n + a, p at a time
    return _report("thm6", params, (hi - lo + 1) * q, (_differ(
        m, recurrence_step(p, f_n, n, a), actual, detail=f"n={n} a={a}")
        for (n, f_n), kids in zip(_valuations(spec, p, range(lo, hi + 1)), children)
        for a, (m, actual) in enumerate(kids)))


def verify_thm7(p: Prime, lo: int, hi: int) -> VerificationReport:
    """vp of the Cigler value M_n(p) vs vp of P_n(p), both by direct summation.

    The two sides use unrelated formulas (squared-binomial sum vs Rodrigues
    alternating sum), so their agreement is a genuine cross-check.
    """
    p = _require_odd(p, "thm7")
    params = _range_params(lo, hi, p=str(int(p)))
    x = Fraction(int(p))
    return _report("thm7", params, hi - lo + 1, (_differ(
        n, vp_rat(p, cigler_eval(n, x)), vp_rat(p, legendre_eval_rodrigues(n, x)))
        for n in range(lo, hi + 1)))


def verify_conj1(lo: int, hi: int, against: str = "oracle") -> VerificationReport:
    """Conjectured 3-adic Delannoy valuations, either against the exact
    Delannoy oracle or against the digit formula (fast, for huge ranges)."""
    if against not in ("oracle", "digits"):
        raise UsageError(f"conj1 comparison must be 'oracle' or 'digits', got {against!r}")
    params = _range_params(lo, hi, against=against)
    p3 = Prime(3)
    if against == "oracle":
        return _report("conj1", params, hi - lo + 1, (_differ(i, predict_b_conjecture1(i), actual)
            for i, actual in _valuations(SequenceSpec.delannoy(), p3, range(lo, hi + 1))))
    blocks = (range(a, min(a + _BLOCK, hi + 1)) for a in range(lo, hi + 1, _BLOCK))
    return _report("conj1", params, hi - lo + 1, (_differ(i, b, d) for block in blocks
        for i, b, d in zip(block, predict_b_conjecture1_range(block.start, block.stop),
                           predict_vp_legendre_at_p_digits_range(p3, block.start, block.stop),
                           strict=True) if b != d))


def verify_conj2(lo: int, hi: int) -> VerificationReport:
    """Open conjecture: digit formula for v3 of sum C(n,k)**3 * 2**k.  A
    mismatch dumps the full exact integer, summed directly, for scrutiny."""
    params = _range_params(lo, hi)
    mismatches = (_differ(n, predict_cube_sum_v3(n), actual)
                  for n, actual in _valuations(SequenceSpec.cube2k(), Prime(3), range(lo, hi + 1)))
    return _report("conj2", params, hi - lo + 1, (
        m and replace(m, detail=f"value={cube_sum_2k(m.n)}") for m in mismatches))


def verify_strauss(lo: int, hi: int) -> VerificationReport:
    """v3 of partial sums of central binomials vs v3(C(2n,n)) + 2*v3(n)."""
    if lo < 1:
        raise UsageError("strauss is defined for n >= 1 (the n = 0 sum is zero)")
    params = _range_params(lo, hi)
    return _report("strauss", params, hi - lo + 1, (_differ(n, predict_strauss_shallit(n), actual)
        for n, actual in _valuations(SequenceSpec.dsum(), Prime(3), range(lo, hi + 1))))


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

    return _report("lemma6", params, hi - lo + 1, map(check, range(lo, hi + 1)))


def _verify_q_parity(theorem_id: str, parity: int, p: Prime, r: Fraction,
                     lo: int, hi: int) -> VerificationReport:
    ctx = PredictionContext(p, r)
    params = _range_params(lo, hi, p=str(int(p)), r=str(ctx.r))
    indices = range(lo + (lo + parity) % 2, hi + 1, 2)
    return _report(theorem_id, params, len(indices), (_differ(n, predict_vp_Q(ctx, n), actual)
        for n, actual in _valuations(SequenceSpec.q(r), p, indices)))


def verify_lemma8(p: Prime, r: Fraction, lo: int, hi: int) -> VerificationReport:
    """vp(Q_n(r)) at even n equals vp of the central binomial coefficient."""
    return _verify_q_parity("lemma8", 0, p, r, lo, hi)


def verify_lemma9(p: Prime, r: Fraction, lo: int, hi: int) -> VerificationReport:
    """vp(Q_n(r)) at odd n, including the extra +1 for p = 2."""
    return _verify_q_parity("lemma9", 1, p, r, lo, hi)


def verify_eq_ma(lo: int, hi: int) -> VerificationReport:
    """Substitution identity M_n(x) = (2-x)**n * P_n(x/(2-x)) for x != 2."""
    points = tuple(x for x in DEFAULT_RATIONAL_POINTS if x != 2)
    params = _range_params(lo, hi, points=",".join(str(x) for x in points))
    return _report("eq-ma", params, len(points) * (hi - lo + 1), (_differ(
        n, cigler_eval(n, x), (2 - x) ** n * legendre_eval_rodrigues(n, x / (2 - x)),
        detail=f"x={x}") for x, n in product(points, range(lo, hi + 1))))


def verify_formula_agreement(lo: int, hi: int) -> VerificationReport:
    """The three Legendre evaluation formulas agree exactly on a point set."""
    points = DEFAULT_RATIONAL_POINTS
    params = _range_params(lo, hi, points=",".join(str(x) for x in points))
    return _report("formula-agreement", params, len(points) * (hi - lo + 1), (_differ(n, {
        "binomial": legendre_eval_binomial(n, x),
        "rodrigues": legendre_eval_rodrigues(n, x),
    }, {"square": legendre_eval_square_form(n, x)}, detail=f"x={x}")
        for x, n in product(points, range(lo, hi + 1))))


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

# predictor id: the builder of its per-index function, whose parameters are the
# options it requires.  Builders look predictor names up here when a command runs:
# bench/tracing.py counts calls to these names, and would count 0 from predictors.py.
_PREDICTORS = {
    "thm3": lambda p, r: partial(predict_vp_legendre_general, PredictionContext(p, r)),
    "thm3-oneline": lambda p, r: partial(predict_vp_legendre_general_oneline, PredictionContext(p, r)),
    "thm4": lambda p: partial(predict_vp_legendre_at_p_cases, p),
    "thm4-digits": lambda p: partial(predict_vp_legendre_at_p_digits, p),
    "thm4-rec": lambda p: partial(predict_by_recurrence, p),
    "thm5": lambda: predict_vp_legendre_at_2,
    "q": lambda p, r: partial(predict_vp_Q, PredictionContext(p, r)),
    "cigler": lambda p: partial(predict_vp_cigler, p),
    "conj1": lambda: predict_b_conjecture1,
    "conj2": lambda: predict_cube_sum_v3,
    "strauss": lambda: predict_strauss_shallit,
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
