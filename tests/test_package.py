import importlib
import pkgutil
from fractions import Fraction

import pytest

import legval

MODULES = [m.name for m in pkgutil.iter_modules(legval.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_package_exports_each_name_of_module_all(module):
    # the package re-exports each module's __all__, the one list of its public names
    mod = importlib.import_module(f"legval.{module}")
    for name in getattr(mod, "__all__", ()):
        assert getattr(legval, name, None) is getattr(mod, name), name


def _load_malformed_table(tmp_path):
    path = tmp_path / "bad.table"
    path.write_text("# spec=dsum p=3 N=1\n0 0\n1 x\n")
    return legval.ValuationTable.load(path)


_P3 = legval.Prime(3)
INPUT_CHECKS = {
    "arith.Prime": lambda tmp_path: legval.Prime(4),
    "arith.digit_sum": lambda tmp_path: legval.digit_sum(_P3, -1),
    "sequences.SequenceSpec": lambda tmp_path: legval.SequenceSpec(legval.SequenceKind.LEGENDRE),
    "sequences.SequenceSpec.parse": lambda tmp_path: legval.SequenceSpec.parse("bogus"),
    "predictors.PredictionContext": lambda tmp_path: legval.PredictionContext(_P3, Fraction(1, 3)),
    "predictors.predict_vp_Q": lambda tmp_path: legval.predict_vp_Q(legval.PredictionContext(_P3, 3), -1),
    "miner.build_table": lambda tmp_path: legval.build_table(legval.SequenceSpec.dsum(), _P3, -1),
    "miner.mine_relations": lambda tmp_path: legval.mine_relations(
        legval.build_table(legval.SequenceSpec.dsum(), _P3, 100), -1),
    "miner.ValuationTable.load": _load_malformed_table,
}


@pytest.mark.parametrize("check", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_check_raises_usage_error(check, tmp_path):
    # bad input has one type, raised where it is checked; the CLI converts nothing
    with pytest.raises(legval.UsageError):
        check(tmp_path)


def test_usage_error_is_one_type():
    assert legval.UsageError is legval.arith.UsageError is legval.verify.UsageError
    assert issubclass(legval.UsageError, ValueError)
    assert issubclass(legval.BFileError, legval.UsageError)
