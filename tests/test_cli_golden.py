"""Golden CLI corpus: exit code, stdout and stderr of every recorded run.

``cli_golden.jsonl`` beside this file holds one record per command, grouped
so that the commands of one group share a fresh working directory in order
(the warm-cache group relies on it).  Outside the ``usage`` group each
command runs once per output format, with ``--no-timestamp``.  A record maps
each format to the exit code, stdout and stderr of its run, followed, when
the argv names ``--cache``, by the cache directory's file names after it.
``{tmp}`` in an argv stands for the group's working directory, which also
holds the b-files of ``BFILES``, and is written back in place of it in the
outputs.

Regenerate the corpus only when an output change is intended, and review its
diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from legval.cli import _PREDICTORS, main
from legval.verify import THEOREM_IDS

CORPUS = Path(__file__).resolve().parent / "cli_golden.jsonl"
FORMATS = ("text", "csv", "jsonl")

BFILES = {
    "delannoy.b": "# A001850\n0 1\n1 3\n2 13\n3 63\n4 321\n5 1683\n6 8989\n",
    "delannoy_bad.b": "0 1\n1 3\n2 14\n3 63\n4 320\n",
    "malformed.b": "0 1\n1 3 5\n",
}

# spec options of all six kinds, two points for each kind that takes one
# ("--r=-2/3": argparse reads a separate "-2/3" as an option)
_SPECS = [
    ["--seq", kind, f"--r={r}"] for kind in ("legendre", "q", "cigler") for r in ("3", "-2/3")
] + [["--seq", kind] for kind in ("delannoy", "dsum", "cube2k")]

# --p in {none, 2, 3, 5, 4} times --r in {none, 3, 9, 1/3, 0, 2}
_OPTION_GRID = [
    p + r
    for p in [[]] + [["--p", p] for p in ("2", "3", "5", "4")]
    for r in [[]] + [["--r", r] for r in ("3", "9", "1/3", "0", "2")]
]


def cases() -> dict[str, list[list[str]]]:
    """The argv of every command, by group."""
    cache = ["--cache", "{tmp}/cache"]
    return {
        "predict": [
            ["predict", "--predictor", predictor, *options,
             "--n", "1..6" if predictor == "strauss" else "0..5"]
            for predictor in _PREDICTORS
            for options in _OPTION_GRID
        ],
        "verify": [
            ["verify", "--theorem", theorem, *options, "--n", "1..6" if theorem == "strauss" else "0..6"]
            for theorem in THEOREM_IDS
            for options in _OPTION_GRID
        ] + [
            ["verify", "--theorem", "conj1", "--against", against, "--n", "0..40"]
            for against in ("digits", "oracle")
        ] + [
            ["--jobs", "2", "verify", "--theorem", theorem, *options, "--n", "0..300"]
            for theorem, options in (("thm4", ["--p", "3"]), ("thm5", []), ("conj1", []),
                                     ("lemma9", ["--p", "2", "--r", "2"]))
        ],
        "sequences": [
            ["eval", *spec, "--n", "0..6"] for spec in _SPECS
        ] + [
            command
            for spec in _SPECS
            for p in ("2", "3", "5")
            for command in (
                ["valuate", *spec, "--p", p, "--n", "0..12"],
                ["mine", *spec, "--p", p, "--max-e", "2", "--min-support", "10", "--N", "300"],
                ["rank", *spec, "--p", p, "--max-e", "2", "--prefix-len", "12"],
            )
        ],
        "jobs": [
            ["--jobs", "2", *command]
            for spec, p in ((["--seq", "dsum"], "3"), (["--seq", "legendre", "--r", "3"], "3"),
                            (["--seq", "cube2k"], "2"))
            for command in (
                ["mine", *spec, "--p", p, "--max-e", "2", "--min-support", "20", "--N", "400"],
                ["rank", *spec, "--p", p, "--max-e", "2", "--prefix-len", "40"],
            )
        ],
        "cache": [
            [*cache, *command]
            for command in (
                ["mine", "--seq", "dsum", "--p", "3", "--N", "2000"],
                ["mine", "--seq", "dsum", "--p", "3", "--N", "2000"],
                ["mine", "--seq", "dsum", "--p", "3", "--N", "1000"],
                ["rank", "--seq", "dsum", "--p", "3", "--max-e", "2", "--prefix-len", "50"],
                ["mine", "--seq", "dsum", "--p", "3", "--N", "-1"],
                ["mine", "--seq", "dsum", "--p", "3", "--N", "3000"],
                ["mine", "--seq", "legendre", "--r", "3/5", "--p", "5", "--max-e", "1", "--N", "600"],
                ["rank", "--seq", "legendre", "--r", "3/5", "--p", "5", "--max-e", "1",
                 "--prefix-len", "60"],
                ["rank", "--seq", "q", "--r=-7/2", "--p", "7", "--max-e", "1", "--prefix-len", "30"],
                ["--jobs", "2", "mine", "--seq", "cigler", "--r", "5/3", "--p", "3", "--N", "500",
                 "--min-support", "20"],
                ["mine", "--seq", "cigler", "--r", "5/3", "--p", "3", "--N", "400",
                 "--min-support", "20"],
            )
        ],
        "oeis-check": [
            ["oeis-check", *command]
            for command in (
                ["--seq", "delannoy", "--bfile", "{tmp}/delannoy.b"],
                ["--seq", "delannoy", "--bfile", "{tmp}/delannoy.b", "--p", "3"],
                ["--seq", "delannoy", "--bfile", "{tmp}/delannoy.b", "--offset", "1", "--limit", "4"],
                ["--seq", "delannoy", "--bfile", "{tmp}/delannoy_bad.b"],
                ["--seq", "delannoy", "--bfile", "{tmp}/delannoy_bad.b", "--p", "2"],
                ["--seq", "delannoy", "--bfile", "{tmp}/malformed.b"],
                ["--seq", "delannoy", "--bfile", "{tmp}/missing.b"],
                ["--seq", "legendre", "--bfile", "{tmp}/delannoy.b"],
            )
        ],
        "usage": [
            [],
            ["bogus"],
            ["eval"],
            ["--format", "xml", "eval", "--seq", "delannoy", "--n", "0"],
            ["eval", "--seq", "nope", "--n", "0"],
            ["eval", "--seq", "delannoy", "--n", "5..2"],
            ["eval", "--seq", "delannoy", "--n", "a..b"],
            ["eval", "--seq", "delannoy", "--n", "1..2..3"],
            ["eval", "--seq", "delannoy", "--r", "3", "--n", "0"],
            ["eval", "--seq", "legendre", "--n", "0"],
            ["eval", "--seq", "legendre", "--r", "1/0", "--n", "0"],
            ["eval", "--seq", "legendre", "--r", "x", "--n", "0"],
            ["eval", "--seq", "legendre", "--r", "-2/3", "--n", "0"],
            ["--jobs", "0", "eval", "--seq", "delannoy", "--n", "0"],
            ["--jobs", "x", "eval", "--seq", "delannoy", "--n", "0"],
            ["valuate", "--seq", "delannoy", "--p", "4", "--n", "0..3"],
            ["valuate", "--seq", "delannoy", "--p", "3"],
            ["predict", "--predictor", "nope", "--n", "0"],
            ["predict", "--predictor", "thm4", "--p", "3", "--n", "3..1"],
            ["predict", "--predictor", "q", "--p", "3", "--r", "1/3", "--n", "0..3"],
            ["predict", "--predictor", "strauss", "--n", "0..3"],
            ["verify", "--theorem", "nope", "--n", "0"],
            ["verify", "--theorem", "thm4", "--p", "3", "--n", "-1..3"],
            ["verify", "--theorem", "conj1", "--against", "nope", "--n", "0"],
            ["mine", "--seq", "dsum", "--p", "3", "--max-e", "-1"],
            ["mine", "--seq", "dsum", "--p", "3", "--N", "-1"],
            ["mine", "--seq", "dsum", "--p", "3", "--c-bound", "-1", "--N", "300"],
            ["mine", "--seq", "dsum", "--p", "3", "--N", "100"],
            ["mine", "--seq", "dsum", "--p", "3", "--min-support", "0", "--N", "100"],
            ["rank", "--seq", "dsum", "--p", "3", "--prefix-len", "0"],
            ["rank", "--seq", "dsum", "--p", "3", "--max-e", "-1"],
            ["rank", "--seq", "dsum", "--p", "3", "--N", "5"],
            ["oeis-check", "--seq", "delannoy"],
            ["--format", "csv", "predict", "--predictor", "conj1", "--n", "0..2"],
        ],
    }


def run_once(argv: list[str], tmp: str) -> list:
    """[exit code, stdout, stderr] of one in-process run of ``argv``, plus
    the cache file names when it names ``--cache``.  When argparse rejects
    the argv, stderr keeps only its last line, the message: the usage lines
    above it wrap at the terminal width, differently across Python versions."""
    out, err = io.StringIO(), io.StringIO()
    rejected = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        except SystemExit as exc:
            code, rejected = exc.code, True
    err_text = err.getvalue().splitlines()[-1] + "\n" if rejected else err.getvalue()
    result = [code, out.getvalue().replace(tmp, "{tmp}"), err_text.replace(tmp, "{tmp}")]
    if "--cache" in argv:
        result.append(sorted(os.listdir(os.path.join(tmp, "cache"))))
    return result


def run_group(group: str, argvs: list[list[str]]) -> list[dict]:
    """The records of ``argvs``, run in order in one fresh directory holding
    ``BFILES``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in BFILES.items():
            Path(tmp, name).write_text(text, encoding="ascii")
        if group == "usage":
            return [{"group": group, "argv": argv, "runs": {"": run_once(argv, tmp)}} for argv in argvs]
        return [{"group": group, "argv": argv, "runs": {
            fmt: run_once(["--format", fmt, "--no-timestamp", *argv], tmp) for fmt in FORMATS}}
            for argv in argvs]


def _load() -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    with CORPUS.open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            groups.setdefault(record["group"], []).append(record)
    return groups


@pytest.mark.parametrize("group", list(cases()))
def test_golden_corpus(group):
    want, argvs = _load()[group], cases()[group]
    assert [record["argv"] for record in want] == argvs, "corpus out of date"
    changed = [(w, g) for w, g in zip(want, run_group(group, argvs)) if w != g]
    assert not changed, f"{len(changed)} commands changed; first, recorded then now: {changed[0]}"


if __name__ == "__main__":
    with CORPUS.open("w", encoding="utf-8") as handle:
        for group, argvs in cases().items():
            for record in run_group(group, argvs):
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
