"""Exact p-adic valuations of Legendre-family sequences.

Evaluate Legendre, Cigler, and companion combinatorial sequences exactly at
rational points; predict their p-adic valuations with closed-form digit
formulas; verify predictor-vs-oracle agreement at scale; and mine affine
p-kernel relations from valuation tables.

The package exports every name in the ``__all__`` of each of its modules
``arith``, ``miner``, ``oeis``, ``predictors``, ``sequences`` and ``verify``.
"""

from .arith import *
from .miner import *
from .oeis import *
from .predictors import *
from .sequences import *
from .verify import *

__version__ = "0.1.0"
