"""Command-line front end.

Subcommands: ``eval`` (exact values), ``valuate`` (exact valuations),
``predict`` (closed-form predictors), ``verify`` (predictor-vs-oracle
campaigns), ``mine`` (kernel relation search), ``rank`` (kernel rank
estimate), ``oeis-check`` (b-file comparison).  ``predict`` and ``verify`` read
their tables from ``legval.verify``, so this module imports no predictor;
``predict`` streams a predictor's range form block by block.
``mine`` and ``rank`` with ``--cache`` read a saved table only if it loads
whole (``ValuationTable.load`` checks its header, sha256 and length), and
else rebuild it and write it again.

Exit codes: 0 all checks passed or skipped, 1 a mathematical mismatch was
found, 2 argparse's usage errors and ``UsageError``, the one type the library
raises on bad input, which ``main`` catches alone.  Output is byte-identical
across runs in csv/jsonl modes, except for a timestamp field suppressible with
``--no-timestamp``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import cache
from itertools import chain, islice, starmap
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from .arith import Prime, UsageError, parse_rational, unlimited_int_digits
from .miner import (
    DEFAULT_MIN_SUPPORT,
    ValuationTable,
    build_table,
    check_mine_options,
    default_c_bound,
    estimate_kernel_rank,
    format_relation,
    kernel_rank_last_index,
    mine_relations,
)
from .oeis import oeis_check
from .sequences import SequenceKind, SequenceSpec, iter_sequence_valuations, iter_sequence_values
from .verify import (
    _PREDICTORS,
    CONJ1_AGAINST,
    THEOREM_IDS,
    VerificationReport,
    _bind_options,
    _predictions,
    run_verification,
)


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive 'a..b' range; a bare 'k' means k..k."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"malformed range {text!r}; expected 'a..b' or 'a'") from None
    if lo < 0 or hi < lo:
        raise UsageError(f"bad index range {text!r}")
    return lo, hi


def _spec_from_args(args: argparse.Namespace) -> SequenceSpec:
    return SequenceSpec(SequenceKind(args.seq), args.r)


@contextmanager
def _output(args: argparse.Namespace) -> Iterator[TextIO]:
    """Writes to --out or stdout."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        yield handle


def _emit(args: argparse.Namespace, fieldnames: list[str], rows: Iterable[dict],
          text_lines: Iterable[str], *, stamped: bool = True) -> None:
    """Writes ``text_lines`` in text format, else ``rows``; each is consumed
    as it is written.  A stamped output carries the timestamp as a first
    ``# generated-at`` line in text, as a last csv column that is always
    present, and as a jsonl key that is dropped when empty."""
    stamp = "" if args.no_timestamp or not stamped else datetime.now(timezone.utc).isoformat()
    with _output(args) as out:
        if args.format == "text":
            if stamp:
                out.write(f"# generated-at {stamp}\n")
            for line in text_lines:
                out.write(line + "\n")
        elif args.format == "csv":
            records = map(itemgetter(*fieldnames), rows)  # every row has exactly these keys
            if stamped:
                fieldnames = fieldnames + ["timestamp"]
                records = (record + (stamp,) for record in records)
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(fieldnames)
            writer.writerows(records)
        else:
            # one encoder for every row, the one json.dumps(row, sort_keys=True) makes per call
            encode = json.JSONEncoder(sort_keys=True).encode
            if stamp:
                rows = ({**row, "timestamp": stamp} for row in rows)
            for row in rows:
                out.write(encode(row) + "\n")


def _stream_rows(args: argparse.Namespace, column: str, indices: range, values: Iterable) -> None:
    """Writes (n, value) rows as computed, with no timestamp; a short stream raises ``ValueError``."""
    pairs = zip(indices, values, strict=True)
    pairs = chain(list(islice(pairs, 1)), pairs)  # the first pair before any output, so bad input writes none
    rows = ({"n": n, column: str(v)} for n, v in pairs)
    # only one of rows and the text lines is consumed, so values is read once
    _emit(args, ["n", column], rows, starmap("{} {!s}".format, pairs), stamped=False)


def cmd_eval(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    lo, hi = _parse_range(args.n)
    # str of a Fraction is its exact 'num/den' form, with no '/1' on an integer
    _stream_rows(args, "value", range(lo, hi + 1), iter_sequence_values(spec, hi + 1, lo))
    return 0


def cmd_valuate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    p = Prime(args.p)
    lo, hi = _parse_range(args.n)
    _stream_rows(args, "valuation", range(lo, hi + 1), iter_sequence_valuations(spec, p, hi + 1, lo))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    make = _PREDICTORS[args.predictor]
    p = Prime(args.p) if args.p is not None else None
    form = make(**_bind_options(f"predictor {args.predictor}", make, {"p": p, "r": args.r}))
    lo, hi = _parse_range(args.n)
    indices = range(lo, hi + 1)
    _stream_rows(args, "predicted", indices, _predictions(form, indices))
    return 0


def _emit_report(args: argparse.Namespace, report: VerificationReport) -> int:
    params = " ".join(f"{k}={v}" for k, v in report.parameters.items())
    row = {
        "theorem": report.theorem_id,
        "parameters": params,
        "checked": report.checked,
        "mismatch_count": len(report.mismatches),
        "status": report.status,
    }
    if args.format == "jsonl":
        row["mismatches"] = [
            {"n": m.n, "predicted": m.predicted, "actual": m.actual, "detail": m.detail}
            for m in report.mismatches
        ]
    text = [
        f"{report.theorem_id} {params}: {report.status} "
        f"({report.checked} checked, {len(report.mismatches)} mismatches)"]
    for m in report.mismatches:
        extra = f" [{m.detail}]" if m.detail else ""
        text.append(f"  n={m.n} predicted={m.predicted} actual={m.actual}{extra}")
    _emit(args, ["theorem", "parameters", "checked", "mismatch_count", "status"], [row], text)
    return 0 if report.passed else 1


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.n)
    p = Prime(args.p) if args.p is not None else None
    return _emit_report(args, run_verification(
        args.theorem, lo, hi, p=p, r=args.r, against=args.against))


def _cached_table(args: argparse.Namespace, spec: SequenceSpec, p: Prime, N: int) -> ValuationTable:
    if not args.cache:
        return build_table(spec, p, N)
    cache_dir = Path(args.cache)
    cache_dir.mkdir(parents=True, exist_ok=True)
    safe = spec.canonical().replace("/", "_")
    path = cache_dir / f"{safe}_p{int(p)}.table"
    if path.exists():
        try:
            cached = ValuationTable.load(path)
        except UsageError:
            cached = None
        if cached is not None and cached.spec == spec and cached.p == p and cached.N >= N:
            return cached.truncated(N)
    table = build_table(spec, p, N)
    table.save(path)
    return table


def cmd_mine(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    p = Prime(args.p)
    if args.max_e < 0:
        raise UsageError("--max-e must be >= 0")
    N = args.N if args.N is not None else int(p) ** args.max_e * args.min_support * 4
    c_bound = args.c_bound if args.c_bound is not None else default_c_bound(p)
    check_mine_options(p, N, args.max_e, args.min_support, c_bound)
    table = _cached_table(args, spec, p, N)
    mined = mine_relations(table, args.max_e, args.min_support, c_bound=c_bound)
    meta = (
        f"spec={spec.canonical()} p={int(p)} N={N} max_e={args.max_e} "
        f"min_support={args.min_support} c_bound={c_bound}")
    fields = ["relation", "e", "i", "e2", "j", "c", "support", "violations", "skipped"]
    rows = []
    if args.format == "jsonl":
        rows.append({"record": "metadata", "search": meta,
                     "note": "search bounds are artifact-chosen defaults"})
    text = [f"# mining {meta} (search bounds are artifact-chosen defaults)"]
    for rel in mined:
        c = rel.candidate
        relation = format_relation(c, p)
        rows.append({
            "relation": relation,
            "e": c.e, "i": c.i, "e2": c.e2, "j": c.j, "c": c.c,
            "support": rel.support, "violations": rel.violations,
            "skipped": rel.skipped,
        })
        text.append(f"{relation}   [support={rel.support} skipped={rel.skipped}]")
    if not mined:
        text.append("# no relations found")
    _emit(args, fields, rows, text)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    p = Prime(args.p)
    if args.prefix_len < 1 or args.max_e < 0:
        raise UsageError("--prefix-len must be >= 1 and --max-e >= 0")
    needed = kernel_rank_last_index(p, args.max_e, args.prefix_len)
    N = args.N if args.N is not None else needed
    if N < needed:
        raise UsageError(f"--N too small: rank needs indices up to {needed}")
    table = _cached_table(args, spec, p, N)
    est = estimate_kernel_rank(table, args.max_e, args.prefix_len)
    basis = " ".join(f"({e},{i})" for e, i in est.basis_labels)
    dropped = " ".join(f"({e},{i})" for e, i in est.dropped)
    fields = ["spec", "p", "max_e", "prefix_len", "rank", "basis", "dropped"]
    row = {
        "spec": spec.canonical(), "p": int(p), "max_e": est.max_e,
        "prefix_len": est.prefix_len, "rank": est.rank,
        "basis": basis, "dropped": dropped,
    }
    text = [
        f"rank {spec.canonical()} p={int(p)} max_e={est.max_e} "
        f"prefix_len={est.prefix_len}: {est.rank}",
        f"  basis: {basis}",
    ]
    if dropped:
        text.append(f"  dropped (infinite entries): {dropped}")
    _emit(args, fields, [row], text)
    return 0


def cmd_oeis_check(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    p = Prime(args.p) if args.p is not None else None
    return _emit_report(args, oeis_check(spec, args.bfile, p=p, offset=args.offset, limit=args.limit))


def _add_seq_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seq", required=True, choices=[k.value for k in SequenceKind],
                     help="which sequence")
    sub.add_argument("--r", type=parse_rational, default=None,
                     help="evaluation point for legendre/q/cigler, e.g. 3 or 9/5")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legval",
        description="Exact Legendre-family evaluation, p-adic valuation "
                    "predictors, verification campaigns, and kernel relation mining.")
    parser.add_argument("--format", choices=("text", "csv", "jsonl"), default="text")
    parser.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field for byte-identical output")
    parser.add_argument("--jobs", type=int, default=1, metavar="K",
                        help="accepted and checked to be >= 1 for compatibility; has no effect")
    parser.add_argument("--cache", metavar="DIR",
                        help="directory for persisted valuation tables (mine/rank)")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("eval", help="exact sequence values over a range")
    _add_seq_options(s)
    s.add_argument("--n", required=True, help="inclusive range a..b")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("valuate", help="exact p-adic valuations over a range")
    _add_seq_options(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", required=True)
    s.set_defaults(func=cmd_valuate)

    s = sub.add_parser("predict", help="closed-form valuation predictions")
    s.add_argument("--predictor", required=True, choices=tuple(_PREDICTORS))
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--r", type=parse_rational, default=None)
    s.add_argument("--n", required=True)
    s.set_defaults(func=cmd_predict)

    s = sub.add_parser("verify", help="compare a predictor with the exact oracle")
    s.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--r", type=parse_rational, default=None)
    s.add_argument("--n", required=True)
    s.add_argument("--against", choices=CONJ1_AGAINST, default="oracle",
                   help="conj1 only: compare with the exact oracle or the digit formula")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("mine", help="search a valuation table for kernel relations")
    _add_seq_options(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--N", type=int, default=None, help="table length (default scales with the search)")
    s.add_argument("--max-e", type=int, default=2, dest="max_e")
    s.add_argument("--min-support", type=int, default=DEFAULT_MIN_SUPPORT, dest="min_support")
    s.add_argument("--c-bound", type=int, default=None, dest="c_bound",
                   help="offset bound |c| (default 2p)")
    s.set_defaults(func=cmd_mine)

    s = sub.add_parser("rank", help="estimate kernel rank by exact elimination")
    _add_seq_options(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--max-e", type=int, default=3, dest="max_e")
    s.add_argument("--prefix-len", type=int, default=100, dest="prefix_len")
    s.add_argument("--N", type=int, default=None)
    s.set_defaults(func=cmd_rank)

    s = sub.add_parser("oeis-check", help="compare a local OEIS b-file with a sequence")
    _add_seq_options(s)
    s.add_argument("--p", type=int, default=None,
                   help="compare valuations instead of raw values")
    s.add_argument("--bfile", required=True)
    s.add_argument("--offset", type=int, default=0,
                   help="our index = b-file index + offset")
    s.add_argument("--limit", type=int, default=None,
                   help="ignore b-file entries mapping beyond this index")
    s.set_defaults(func=cmd_oeis_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with unlimited_int_digits():
        try:
            if args.jobs < 1:
                raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
            return args.func(args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early, as `| head` does: stop quietly, and
        # point stdout at devnull so the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entry()
