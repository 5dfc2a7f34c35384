"""OEIS b-file parsing and sequence cross-checks.

A b-file is the OEIS plain-text format: one ``index value`` pair per line,
``#`` comments and blank lines ignored, indices strictly increasing.  The
check compares a locally provided b-file against one of our sequences over
the overlap of indices, either raw exact values or p-adic valuations.  No
network access is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .arith import Prime, UsageError, unlimited_int_digits
from .sequences import SequenceSpec, iter_sequence_valuations, iter_sequence_values
from .verify import VerificationReport, _differ, _report

__all__ = ["BFileError", "BFileRecord", "parse_bfile", "oeis_check"]


class BFileError(UsageError):
    """Malformed b-file content; carries the offending line number."""


@dataclass(frozen=True)
class BFileRecord:
    index: int
    value: int


def parse_bfile(path: str | Path) -> list[BFileRecord]:
    """Reads an OEIS b-file; raises BFileError with a line number on damage."""
    records: list[BFileRecord] = []
    last_index: int | None = None
    # an exact value can have more digits than int() reads by default
    with open(path, "r", encoding="ascii", errors="replace") as handle, unlimited_int_digits():
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise BFileError(f"{path}:{lineno}: expected 'index value', got {line!r}")
            try:
                index, value = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise BFileError(f"{path}:{lineno}: non-integer field in {line!r}") from exc
            if last_index is not None and index <= last_index:
                raise BFileError(
                    f"{path}:{lineno}: indices must be strictly increasing "
                    f"({index} after {last_index})")
            records.append(BFileRecord(index, value))
            last_index = index
    return records


def oeis_check(
    spec: SequenceSpec,
    bfile_path: str | Path,
    *,
    p: Prime | None = None,
    offset: int = 0,
    limit: int | None = None,
) -> VerificationReport:
    """Compares a b-file against a sequence over the overlapping indices.

    Our index is ``bfile index + offset``.  With ``p`` given the comparison
    is between valuations (the b-file holds integers, an infinite valuation
    on our side is always a mismatch); otherwise raw exact values.  A missing
    file, or one with no entries in range, is a skip, not a failure.
    """
    path = Path(bfile_path)
    params = {"spec": spec.canonical(), "file": path.name, "offset": str(offset)}
    if p is not None:
        params["p"] = str(int(p))
    records = [
        rec for rec in (parse_bfile(path) if path.exists() else [])
        if rec.index + offset >= 0 and (limit is None or rec.index + offset <= limit)
    ]
    if not records:
        return VerificationReport("oeis-check", params, 0, [], "skipped")
    lo = records[0].index + offset
    hi = records[-1].index + offset
    wanted = {rec.index + offset: rec for rec in records}
    if p is not None:
        stream = iter_sequence_valuations(spec, p, hi + 1, lo)
    else:
        stream = iter_sequence_values(spec, hi + 1, lo)
    # an infinite valuation equals no int; str of a Fraction is its 'num/den' form
    return _report("oeis-check", params, len(records), (
        _differ(rec.index, rec.value, ours)
        for n, ours in zip(range(lo, hi + 1), stream, strict=True)
        if (rec := wanted.get(n)) is not None))
