"""The benchmark's tracer (``bench/tracing.py``) against the current library.

The tracer patches names that one legval module binds from another and looks
up when it runs.  A refactor that unbinds one of them, or binds it where the
tracer cannot see it, breaks the benchmark's per-layer counters; this test
finds that in milliseconds instead of in a benchmark run.
"""

from pathlib import Path

import pytest

from legval import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_install_then_uninstall_restores_every_patch(tracing, capsys):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer._restore)
    try:
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        argv = ["--no-timestamp", "verify", "--theorem", "lemma9", "--p", "3", "--r", "9", "--n", "0..6"]
        assert cli.main(argv) == 0
        assert cli.main(["--no-timestamp", "verify", "--theorem", "thm6", "--p", "3", "--n", "0..2"]) == 0
        assert cli.main(["predict", "--predictor", "q", "--p", "3", "--r", "9", "--n", "0..4"]) == 0
        argv = ["--no-timestamp", "rank", "--seq", "legendre", "--r", "3", "--p", "3", "--max-e", "1",
                "--prefix-len", "3"]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert len(patched) == 37
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    # lemma9 checks the odd n in 0..6 and thm6 the 3n + a for n in 0..2, both
    # on streams with no table; predict runs 5 indices; rank builds a table of
    # 0..8 and calls no predictor
    assert tracer.count["verify.checked"] == 3 + 9
    assert tracer.count["miner.build_indices"] == 9
    assert tracer.count["predictors.calls"] == 3 + 9 + 5
    assert tracer.count["sequences.bits_total"] > 0
