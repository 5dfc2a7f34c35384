"""The benchmark's workloads: seeded inputs, one-off setup, the operations of
one pass, and the check of every operation's output.

Each workload is a fixed list of operations of fixed cost.  The seed moves
inputs within families of that cost (rational points, small shifts of N that
move chunk boundaries), so the same seed always gives the same inputs and
different seeds give the same amount of work.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("sweep", "tables", "cli")
FORMATS = ("text", "csv", "jsonl")

# The seven level <= 2 relations the README prints for `mine --seq dsum --p 3`.
README_DSUM_RELATIONS = [
    "V(3n) = V(n) + 2",
    "V(9n+1) = V(3n+1)",
    "V(9n+2) = V(3n+1) + 1",
    "V(9n+4) = V(3n+1)",
    "V(9n+5) = V(3n+2) + 1",
    "V(9n+7) = V(3n+2)",
    "V(9n+8) = V(3n+2) + 1",
]
MINE_RUNS = (("dsum", 3, (2, 3, 4)), ("dsum", 5, (2, 3)), ("dsum", 7, (2, 3)),
             ("delannoy", 5, (2, 3)), ("delannoy", 7, (2, 3)))
# README's four oeis-check examples: b-file name, sequence options, and which
# independent oracle writes the file.
BFILES = (("b001850.txt", ["--seq", "delannoy"], "delannoy-values"),
          ("b006134.txt", ["--seq", "dsum", "--offset", "1"], "dsum-inclusive-values"),
          ("b082490.txt", ["--seq", "dsum", "--p", "3"], "dsum-v3"),
          ("b358360.txt", ["--seq", "delannoy", "--p", "3"], "delannoy-v3"))


def table_jobs() -> int:
    """Two workers for the parallel table, never more than the usable CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        # Four points per prime with vp(r) >= 1, shaped like the release
        # gate's p, p^2, p/(p-2) and 3p, with small seeded unit factors.
        pairs = []
        for p in (3, 5, 7):
            units = [u for u in (1, 2, 4, 5, 7, 8) if u % p]
            c, d = rng.sample([u for u in units if u != 1], 2)
            pairs += [(p, p * rng.choice(units)), (p, p * p * rng.choice(units)),
                      (p, f"{p * c}/{d}"), (p, 3 * p * rng.choice(units))]
        return {"pairs": [(p, str(Fraction(r))) for p, r in pairs]}
    if workload == "tables":
        return {"dsum_N": 3**9 + rng.randrange(13),
                "delannoy_N": 16199 + rng.randrange(13),
                "legendre_N": 16199 + rng.randrange(13)}
    if workload == "cli":
        return {"eval_hi": 2000 + rng.randrange(13),
                "digits_lo": 5620 + rng.randrange(7),
                "valuate_hi": 4000 + rng.randrange(13),
                "predict_hi": 20000 + rng.randrange(13),
                "verify_hi": 2000 + rng.randrange(13),
                "mine_N": 19683 + rng.randrange(13),
                "rank_N": 16199 + rng.randrange(13),
                "bfile_values_hi": 500 + rng.randrange(13),
                "bfile_valuations_hi": 3000 + rng.randrange(13),
                "comb_sample": sorted(rng.sample(range(601), 12)) + [rng.randrange(900, 1001)]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Setup: everything a pass needs that is not part of the timed work.
# ---------------------------------------------------------------------------


def setup(workload: str, inputs: dict, workdir: Path) -> None:
    """Writes the workload's cached tables, b-files and reference outputs."""
    reference: dict = {}
    if workload == "tables":
        reference["dsum"] = [oracles.v3_dsum(n) for n in range(inputs["dsum_N"] + 1)]
        top = max(inputs["delannoy_N"], inputs["legendre_N"])
        reference["delannoy"] = [oracles.vp_legendre_at_p(3, n) for n in range(top + 1)]
    elif workload == "cli":
        _setup_cli(inputs, workdir)
        reference["comb"] = {str(n): str(oracles.delannoy_comb(n)) for n in inputs["comb_sample"]}
    (workdir / "reference.json").write_text(json.dumps(reference), encoding="ascii")


def _setup_cli(inputs: dict, workdir: Path) -> None:
    base = ["--no-timestamp", "--cache", str(workdir / "cache"), "--out", str(workdir / "setup.out")]
    for seq, p, _ in MINE_RUNS:
        _run_cli(base + ["mine", "--seq", seq, "--p", str(p), "--N", str(inputs["mine_N"]),
                         "--max-e", "0"])
    _run_cli(base + ["rank", "--seq", "legendre", "--r", "3", "--p", "3", "--max-e", "4",
                     "--prefix-len", "200", "--N", str(inputs["rank_N"])])

    values_hi, vals_hi = inputs["bfile_values_hi"], inputs["bfile_valuations_hi"]
    delannoy = oracles.delannoy_by_recurrence(vals_hi + 1)
    dsum, total = [], 0
    for n in range(1, vals_hi + 1):
        total += math.comb(2 * n - 2, n - 1)
        dsum.append((n, oracles.valuation(3, total)))
    content = {
        "delannoy-values": enumerate(oracles.delannoy_lattice(values_hi + 1)),
        "dsum-inclusive-values": enumerate(oracles.inclusive_central_binomial_sums(values_hi + 1)),
        "dsum-v3": dsum,
        "delannoy-v3": ((n, oracles.valuation(3, d)) for n, d in enumerate(delannoy)),
    }
    for name, _, source in BFILES:
        lines = [f"# {name}: {source}, written by the benchmark\n"]
        lines += [f"{n} {v}\n" for n, v in content[source]]
        (workdir / name).write_text("".join(lines), encoding="ascii")


# ---------------------------------------------------------------------------
# Operations of one pass.
# ---------------------------------------------------------------------------


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]


def _run_cli(argv: list[str]) -> None:
    from legval import cli  # looked up per call, so a traced cli.main is used

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    if code != 0:
        raise RuntimeError(f"legval exited with code {code}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_ops(workload: str, inputs: dict, workdir: Path, passdir: Path) -> list[Op]:
    reference = json.loads((workdir / "reference.json").read_text(encoding="ascii"))
    if workload == "sweep":
        return _sweep_ops(inputs)
    if workload == "tables":
        return _tables_ops(inputs, reference, passdir)
    return _cli_ops(inputs, reference, workdir, passdir)


def _sweep_ops(inputs: dict) -> list[Op]:
    pairs = [(p, r) for p, r in inputs["pairs"]]
    campaigns = [("thm4", {"p": p}, 0, 2000, 2001) for p in (3, 5, 7, 11)]
    campaigns.append(("thm5", {}, 0, 2000, 2001))
    campaigns += [("thm3", {"p": p, "r": r}, 0, 500, 501) for p, r in pairs]
    campaigns += [("thm6", {"p": p}, 0, 500, 501 * p) for p in (3, 5, 7)]
    campaigns += [("thm7", {"p": p}, 0, 800, 801) for p in (3, 5, 7)]
    campaigns.append(("conj1", {"against": "oracle"}, 0, 2000, 2001))
    campaigns.append(("conj1", {"against": "digits"}, 0, 10**6, 10**6 + 1))
    campaigns.append(("strauss", {}, 1, 2000, 2000))
    campaigns.append(("conj2", {}, 0, 1500, 1501))
    campaigns += [("lemma6", {"p": p}, 0, 2000, 2001) for p in (2, 3, 5, 7)]
    q_pairs = pairs + [(2, "2"), (2, "4/3"), (2, "6")]
    campaigns += [("lemma8", {"p": p, "r": r}, 0, 500, 251) for p, r in q_pairs]
    campaigns += [("lemma9", {"p": p, "r": r}, 0, 500, 250) for p, r in q_pairs]
    campaigns.append(("eq-ma", {}, 0, 200, 12 * 201))
    campaigns.append(("formula-agreement", {}, 0, 200, 13 * 201))

    def make(theorem_id, params, lo, hi, expected):
        from legval import verify
        from legval.arith import Prime

        kwargs = dict(params)
        if "p" in kwargs:
            kwargs["p"] = Prime(kwargs["p"])
        if "r" in kwargs:
            kwargs["r"] = Fraction(kwargs["r"])

        def run():
            report = verify.run_verification(theorem_id, lo, hi, **kwargs)
            return (report.theorem_id, report.parameters, report.checked,
                    len(report.mismatches), report.status)

        def check(summary):
            _, _, checked, _, status = summary
            if status != "pass" or checked != expected:
                return [f"status {status}, {checked} checked, expected pass with {expected}"]
            return []

        label = "-".join([theorem_id] + [f"{k}{v}" for k, v in params.items()])
        return Op(label, run, check, lambda s: _sha(json.dumps(s, sort_keys=True).encode()))

    return [make(*c) for c in campaigns]


def _tables_ops(inputs: dict, reference: dict, passdir: Path) -> list[Op]:
    from legval import miner
    from legval.arith import Prime
    from legval.sequences import SequenceSpec

    builds = [("dsum", SequenceSpec.dsum(), inputs["dsum_N"], 1, reference["dsum"]),
              ("delannoy", SequenceSpec.delannoy(), inputs["delannoy_N"], 1, reference["delannoy"]),
              ("legendre3", SequenceSpec.legendre(3), inputs["legendre_N"], table_jobs(),
               reference["delannoy"])]  # P_n(3) is the central Delannoy number D_n

    def make(name, spec, N, jobs, expected):
        path = passdir / f"{name}.table"

        def run():
            table = miner.build_table(spec, Prime(3), N, jobs=jobs)
            table.save(path)
            return table

        def check(table):
            got = [None if v.is_infinite else v.value for v in table.values]
            problems = []
            if got != expected[: N + 1]:
                problems.append(f"v3 differs from the oracle ({len(got)} entries, N={N})")
            if miner.ValuationTable.load(path) != table:
                problems.append("saved table does not load back equal")
            return problems

        return Op(name, run, check, lambda _t: _sha(path.read_bytes()))

    return [make(*b) for b in builds]


def _cli_ops(inputs: dict, reference: dict, workdir: Path, passdir: Path) -> list[Op]:
    eval_hi, lo5620 = inputs["eval_hi"], inputs["digits_lo"]
    commands = [
        ("eval", ["eval", "--seq", "delannoy", "--n", f"0..{eval_hi}"],
         _check_eval(0, eval_hi, reference["comb"])),
        # From n = 5620 the values pass 4300 digits, CPython's default limit
        # for int-to-str; a known defect, counted as a failed operation.
        ("eval-digits", ["eval", "--seq", "delannoy", "--n", f"{lo5620}..{lo5620 + 5}"],
         _check_eval(lo5620, lo5620 + 5, {})),
        ("valuate", ["valuate", "--seq", "legendre", "--r", "3", "--p", "3",
                     "--n", f"0..{inputs['valuate_hi']}"],
         _check_column("valuation", inputs["valuate_hi"])),
        ("predict-thm4-rec", ["predict", "--predictor", "thm4-rec", "--p", "3",
                              "--n", f"0..{inputs['predict_hi']}"],
         _check_column("predicted", inputs["predict_hi"])),
        ("predict-conj1", ["predict", "--predictor", "conj1", "--n", f"0..{inputs['predict_hi']}"],
         _check_column("predicted", inputs["predict_hi"])),
        ("verify-thm4", ["verify", "--theorem", "thm4", "--p", "3", "--n", f"0..{inputs['verify_hi']}"],
         _check_report(inputs["verify_hi"] + 1)),
    ]
    dsum_v3 = [oracles.v3_dsum(n) for n in range(inputs["mine_N"] + 1)]
    for seq, p, depths in MINE_RUNS:
        for e in depths:
            expected = README_DSUM_RELATIONS if (seq, p, e) == ("dsum", 3, 2) else None
            oracle = dsum_v3 if (seq, p) == ("dsum", 3) else None
            commands.append((f"mine-{seq}-p{p}-e{e}",
                             ["mine", "--seq", seq, "--p", str(p), "--N", str(inputs["mine_N"]),
                              "--max-e", str(e)],
                             _check_mine(expected, oracle)))
    for e in (3, 4):
        commands.append((f"rank-e{e}", ["rank", "--seq", "legendre", "--r", "3", "--p", "3",
                                        "--max-e", str(e), "--prefix-len", "200",
                                        "--N", str(inputs["rank_N"])], _check_rank(e)))
    for name, options, _ in BFILES:
        records = sum(1 for line in (workdir / name).read_text(encoding="ascii").splitlines()
                      if not line.startswith("#"))
        commands.append((f"oeis-{name[:7]}", ["oeis-check", *options, "--bfile", str(workdir / name)],
                         _check_report(records)))

    base = ["--no-timestamp", "--cache", str(workdir / "cache")]

    def make(name, argv, check, fmt):
        out = passdir / f"{name}.{fmt}"

        def run():
            _run_cli(base + ["--format", fmt, "--out", str(out)] + argv)
            return out

        return Op(f"{name}.{fmt}", run, lambda path: check(fmt, path.read_text(encoding="utf-8")),
                  lambda path: _sha(path.read_bytes()))

    return [make(name, argv, check, fmt) for name, argv, check in commands for fmt in FORMATS]


# ---------------------------------------------------------------------------
# Checks of cli output against independent expectations.
# ---------------------------------------------------------------------------


def _rows(fmt: str, text: str, columns: list[str]) -> list[dict]:
    """The output's records as dicts of strings, whatever the format."""
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    if fmt == "jsonl":
        return [{k: str(v) for k, v in json.loads(line).items()} for line in text.splitlines()]
    return [dict(zip(columns, line.split(" ", 1))) for line in text.splitlines()]


def _check_eval(lo: int, hi: int, comb: dict[str, str]):
    def check(fmt, text):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # parse the output; the pass has already run
        try:
            rows = _rows(fmt, text, ["n", "value"])
            if [int(r["n"]) for r in rows] != list(range(lo, hi + 1)):
                return ["indices are not the requested range"]
            values = [int(r["value"]) for r in rows]
            anchors = {int(n): int(v) for n, v in comb.items()}
            if lo < 2:
                anchors.update({0: 1, 1: 3})
            else:
                first = oracles.delannoy_by_recurrence(lo + 2)
                anchors.update({lo: first[lo], lo + 1: first[lo + 1]})
        finally:
            sys.set_int_max_str_digits(limit)
        problems = [f"D({n}) differs from the oracle" for n, v in anchors.items()
                    if lo <= n <= hi and values[n - lo] != v]
        if not oracles.delannoy_recurrence_ok(values, lo):
            problems.append("values break the Delannoy recurrence")
        return problems

    return check


def _check_column(column: str, hi: int):
    """Valuations and predictions of v3(P_n(3)) = v3(D_n) on 0..hi."""

    def check(fmt, text):
        rows = _rows(fmt, text, ["n", column])
        got = [(int(r["n"]), int(r[column])) for r in rows]
        want = [(n, oracles.vp_legendre_at_p(3, n)) for n in range(hi + 1)]
        if got != want:
            bad = next((a for a, b in zip(got, want) if a != b), None)
            return [f"{column} differs from the digit formula (first {bad})"]
        return []

    return check


def _check_report(expected_checked: int):
    def check(fmt, text):
        if fmt == "text":
            status, _, rest = text.splitlines()[0].partition(": ")[2].partition(" (")
            checked = rest.split(" ")[0]
        else:
            row = _rows(fmt, text, [])[0]
            status, checked = row["status"], row["checked"]
        if status != "pass" or int(checked) != expected_checked:
            return [f"status {status}, {checked} checked, expected pass with {expected_checked}"]
        return []

    return check


def _parse_relation(text: str) -> tuple[int, int, int, int, int]:
    """'V(9n+4) = V(3n+1) + 1' -> (9, 4, 3, 1, 1)."""
    lhs, _, rhs = text.partition(" = ")

    def side(s):
        inner = s[s.index("(") + 1: s.index(")")]
        head, _, offset = inner.partition("+")
        return int(head[:-1] or 1), int(offset or 0)

    c = 0
    if ") + " in rhs:
        c = int(rhs.rsplit(" + ", 1)[1])
    elif ") - " in rhs:
        c = -int(rhs.rsplit(" - ", 1)[1])
    return (*side(lhs), *side(rhs), c)


def _check_mine(expected: list[str] | None, oracle: list[int | None] | None):
    def check(fmt, text):
        if fmt == "text":
            relations = [line.split("   [")[0] for line in text.splitlines() if not line.startswith("#")]
        else:
            relations = [r["relation"] for r in _rows(fmt, text, []) if "relation" in r]
        problems = []
        if expected is not None and relations != expected:
            problems.append(f"mined {relations}, expected the README's seven relations")
        if oracle is not None:
            for rel in relations:
                a, i, b, j, c = _parse_relation(rel)
                for n in range((len(oracle) - 1 - max(i, j)) // max(a, b) + 1):
                    x, y = oracle[a * n + i], oracle[b * n + j]
                    if x is not None and y is not None and x != y + c:
                        problems.append(f"{rel} fails on the oracle at n={n}")
                        break
        return problems

    return check


def _check_rank(max_e: int):
    def check(fmt, text):
        if fmt == "text":
            lines = text.splitlines()
            rank = lines[0].rsplit(": ", 1)[1]
            dropped = "".join(line for line in lines if "dropped" in line)
        else:
            row = _rows(fmt, text, [])[0]
            rank, dropped = row["rank"], row["dropped"]
        if rank != "3" or dropped:
            return [f"rank {rank} (dropped {dropped!r}) at max_e={max_e}, expected 3 with none dropped"]
        return []

    return check
