"""Exact p-adic valuations of Legendre-family sequences.

Evaluate Legendre, Cigler, and companion combinatorial sequences exactly at
rational points; predict their p-adic valuations with closed-form digit
formulas; verify predictor-vs-oracle agreement at scale; and mine affine
p-kernel relations from valuation tables.
"""

from .arith import (
    INF,
    PadicVal,
    Prime,
    binomial_valuation_digits,
    digit_sum,
    digit_sums,
    factorial_valuation_digits,
    factorial_valuation_floor,
    kummer_carries,
    parse_rational,
    vp_int,
    vp_rat,
)
from .miner import (
    KernelRankEstimate,
    MinedRelation,
    RelationCandidate,
    ValuationTable,
    build_table,
    estimate_kernel_rank,
    format_relation,
    mine_relations,
    verify_relation,
)
from .oeis import BFileError, BFileRecord, oeis_check, parse_bfile
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
    SequenceKind,
    SequenceSpec,
    central_delannoy,
    cigler_eval,
    cube_sum_2k,
    eval_sequence,
    iter_sequence_valuations,
    iter_sequence_values,
    legendre_eval_binomial,
    legendre_eval_rodrigues,
    legendre_eval_square_form,
    partial_sum_central_binomial,
)
from .verify import (
    CONJECTURE_IDS,
    DEFAULT_RATIONAL_POINTS,
    THEOREM_IDS,
    Mismatch,
    UsageError,
    VerificationReport,
    run_verification,
)

__version__ = "0.1.0"
