"""Valuation tables, affine p-kernel relation mining, and kernel rank.

A ``ValuationTable`` stores vp of a sequence's exact values on 0..N: one
shared ``PadicVal`` per distinct finite value, interned by ``build_table``
or ``load``, and ``INF``, the float infinity, at zeros, tested by value.
A saved table is a v2 file: a header that names the spec, p, N and the
sha256 of the value lines, then one valuation per line for n = 0..N, so
``load`` checks the file whole and parses it with no loop per line.
The miner reads the entries as they are: the residue class p**e * n + i is
the slice ``values[i::p**e]``.  It searches the table for affine relations
of the single-term shape

    V(p**e * n + i) = V(p**e2 * n + j) + c      for all n,

the same family a residue-class search over the base-p index tree produces.
Classes are explored breadth-first: once a class (e, i) is explained by a
relation, its refinements are not descended into, so each relation is
reported at the shallowest level that explains it and the output is
canonical.  Kernel rank is estimated by exact fraction-free (division
delayed, Bareiss) elimination over the integers.

Mining gives heuristic evidence only: a relation that holds on a finite
table is a conjecture about the infinite sequence, not a theorem.
"""

from __future__ import annotations

import os
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from operator import itemgetter
from pathlib import Path

from .arith import INF, PadicVal, Prime, UsageError
from .sequences import SequenceSpec, iter_valuations_with_bits

__all__ = [
    "ValuationTable",
    "RelationCandidate",
    "MinedRelation",
    "KernelRankEstimate",
    "build_table",
    "mine_relations",
    "verify_relation",
    "estimate_kernel_rank",
    "format_relation",
    "default_c_bound",
    "kernel_rank_last_index",
    "check_mine_options",
    "DEFAULT_MIN_SUPPORT",
]

DEFAULT_MIN_SUPPORT = 50


_HEADER = re.compile(rb"# legval-table v2 spec=(?P<spec>\S+) p=(?P<p>\d+) N=(?P<N>\d+) "
                     rb"sha256=(?P<sha256>[0-9a-f]{64})")


def _sha256(data: bytes) -> str:
    import hashlib  # here and not above: only a table read or write pays for its import

    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ValuationTable:
    """vp of one sequence on the contiguous index range 0..N."""

    spec: SequenceSpec
    p: Prime
    values: tuple[int | float, ...]

    @property
    def N(self) -> int:
        return len(self.values) - 1

    def save(self, path: str | Path) -> None:
        """Writes the table as a v2 file to a temporary file beside ``path``,
        then renames it over ``path``, so a failed write leaves any old file
        intact."""
        path = Path(path)
        body = "\n".join(map(str, self.values)) + "\n"
        header = (f"# legval-table v2 spec={self.spec.canonical()} p={int(self.p)} N={self.N} "
                  f"sha256={_sha256(body.encode('ascii'))}\n")
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(header + body, encoding="ascii")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "ValuationTable":
        """The table of a v2 file.  A file that is empty, has another header
        (a v1 file among them), fails the hash or the line count, or holds a
        line that is no valuation raises ``UsageError`` naming ``path``."""
        data = Path(path).read_bytes()
        if not data:
            raise UsageError(f"{path}: empty table file")
        header, _, body = data.partition(b"\n")
        m = _HEADER.fullmatch(header)
        if m is None:
            shown = header[:80].decode("ascii", "replace")
            raise UsageError(f"{path}: not a legval-table v2 header: {shown!r}")
        if _sha256(body) != m["sha256"].decode():
            raise UsageError(f"{path}: value lines do not match the header's sha256")
        try:
            spec, p = SequenceSpec.parse(m["spec"].decode()), Prime(int(m["p"]))
            # each distinct value text is parsed once, so equal values share one object
            values = tuple(map(cache(PadicVal.parse), body.decode("ascii").splitlines()))
        except ValueError as exc:  # a UsageError of the header, or a line that is no valuation
            raise UsageError(f"{path}: {exc}") from None
        if len(values) != int(m["N"]) + 1:
            raise UsageError(f"{path}: header says N={int(m['N'])} but {len(values)} entries present")
        return cls(spec, p, values)

    def truncated(self, N: int) -> "ValuationTable":
        if N < 0:
            raise UsageError("table length must be >= 0")
        if N > self.N:
            raise UsageError(f"cannot extend table of length {self.N} to {N}")
        return ValuationTable(self.spec, self.p, self.values[: N + 1])


def build_table(spec: SequenceSpec, p: Prime, N: int, *, jobs: int = 1) -> ValuationTable:
    """Table of vp(value at n) for n = 0..N, from one valuation stream in
    this process.

    ``jobs`` is accepted and ignored, for callers that still pass it, such
    as the benchmark's ``bench/workloads.py``.
    """
    if N < 0:
        raise UsageError("table length must be >= 0")
    shared = cache(lambda v: v if v == INF else PadicVal(v))  # one PadicVal per value, as in ``load``
    vals = map(itemgetter(0), iter_valuations_with_bits(spec, p, N + 1))
    return ValuationTable(spec, p, tuple(map(shared, vals)))


@dataclass(frozen=True)
class RelationCandidate:
    """The claim V(p**e * n + i) = V(p**e2 * n + j) + c for every n >= 0."""

    e: int
    i: int
    e2: int
    j: int
    c: int


@dataclass(frozen=True)
class MinedRelation:
    candidate: RelationCandidate
    support: int
    violations: int
    skipped: int = 0  # indices where either side was infinite


@dataclass(frozen=True)
class KernelRankEstimate:
    prefix_len: int
    max_e: int
    rank: int
    basis_labels: tuple[tuple[int, int], ...]
    dropped: tuple[tuple[int, int], ...] = field(default_factory=tuple)


def format_relation(cand: RelationCandidate, p: Prime) -> str:
    """Human form, e.g. 'V(9n+4) = V(3n+1) + 1'."""

    def side(e: int, i: int) -> str:
        pe = p**e
        head = "n" if pe == 1 else f"{pe}n"
        return f"V({head})" if i == 0 else f"V({head}+{i})"

    eq = f"{side(cand.e, cand.i)} = {side(cand.e2, cand.j)}"
    if cand.c > 0:
        return f"{eq} + {cand.c}"
    if cand.c < 0:
        return f"{eq} - {-cand.c}"
    return eq


def verify_relation(table: ValuationTable, cand: RelationCandidate) -> MinedRelation:
    """Checks a candidate on every testable index: each pair of its zipped class slices."""
    p = table.p
    pe, pe2 = p**cand.e, p**cand.e2
    if not 0 <= cand.i < pe or not 0 <= cand.j < pe2:
        raise UsageError(f"candidate offsets out of range for p={int(p)}: {cand}")
    lhs, rhs = table.values[cand.i::pe], table.values[cand.j::pe2]
    finite = [(a, b) for a, b in zip(lhs, rhs) if a != INF != b]
    violations = sum(a != b + cand.c for a, b in finite)
    return MinedRelation(cand, len(finite), violations, min(len(lhs), len(rhs)) - len(finite))


def _best_relation(
    classes: list[list[tuple[int | float, ...]]], e: int, i: int, min_support: int, c_bound: int
) -> MinedRelation | None:
    """Shallowest relation explaining class (e, i), or None.

    ``classes[e2][j]`` is the slice ``values[j::p**e2]`` for e2 <= e.  Candidates
    are scanned by (e2 ascending, j ascending); the first testable index
    forces c and the first other difference drops the candidate, so this
    realizes the preference order: smallest e2, then smallest j, then c.
    """
    lhs_class = classes[e][i]
    for e2, level in enumerate(classes):
        for j, rhs_class in enumerate(level):
            if e2 == e and j == i:
                continue  # the identity relation explains nothing
            c = None
            support = 0
            for lhs, rhs in zip(lhs_class, rhs_class):
                if lhs == INF or rhs == INF:
                    continue
                diff = lhs - rhs
                if c is None:
                    if abs(diff) > c_bound:
                        break
                    c = diff
                elif diff != c:
                    break
                support += 1
            else:
                if c is not None and support >= min_support:
                    pairs = min(len(lhs_class), len(rhs_class))
                    return MinedRelation(RelationCandidate(e, i, e2, j, c), support, 0, pairs - support)
    return None


def default_c_bound(p: Prime) -> int:
    """The bound on |c| that ``mine_relations`` uses when none is given."""
    return 2 * int(p)


def check_mine_options(p: Prime, N: int, max_e: int, min_support: int, c_bound: int) -> None:
    """Raises the ``UsageError`` that ``mine_relations`` raises on a table of
    0..N at p, or that ``build_table`` raises for such a table, if any."""
    if max_e < 0:
        raise UsageError("max_e must be >= 0")
    if N < 0:
        raise UsageError("table length must be >= 0")
    if min_support < 1:
        raise UsageError("min_support must be >= 1")
    if c_bound < 0:
        raise UsageError("c_bound must be >= 0")
    if (N + 1) // p**max_e < min_support:  # the last level-max_e class: n <= N with p**max_e | n + 1
        raise UsageError(f"table too short: level-{max_e} classes have fewer than {min_support} indices")


def mine_relations(
    table: ValuationTable,
    max_e: int,
    min_support: int = DEFAULT_MIN_SUPPORT,
    *,
    c_bound: int | None = None,
) -> list[MinedRelation]:
    """Affine kernel relations found by resolved-class breadth-first search.

    Level e of the search looks at every residue class p**e * n + i not
    already explained at a shallower level; an accepted relation stops the
    descent below its class.  Relations are exact on the whole table (zero
    violations) with at least ``min_support`` finite test indices; indices
    with an infinite entry on either side are skipped and tallied.  Each
    level's classes are sliced once, when the search reaches that level.
    """
    p = table.p
    if c_bound is None:
        c_bound = default_c_bound(p)
    check_mine_options(p, table.N, max_e, min_support, c_bound)
    values = table.values
    classes: list[list[tuple[int | float, ...]]] = []
    accepted: list[MinedRelation] = []
    frontier = [0]  # offsets i of the unexplained classes at level e
    for e in range(max_e + 1):
        if not frontier:
            break  # every class is explained; deeper levels are not sliced
        pe = p**e
        classes.append([values[i::pe] for i in range(pe)])
        found = [(i, _best_relation(classes, e, i, min_support, c_bound)) for i in frontier]
        accepted.extend(rel for _i, rel in found if rel is not None)
        frontier = [i + t * pe for i, rel in found if rel is None for t in range(p)]
    accepted.sort(key=lambda rel: (rel.candidate.e, rel.candidate.i))
    return accepted


def integer_matrix_rank(rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Rank of an integer matrix by fraction-free elimination.

    Returns (rank, indices of input rows that became pivots).  All
    intermediate entries stay integers; the division by the previous pivot
    is exact (Bareiss), asserted as such.  Among candidate pivot rows the
    one with the smallest original index wins, so the pivot set is canonical.
    """
    m = [list(r) for r in rows]
    idx = list(range(len(m)))
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    pivots: list[int] = []
    for col in range(ncols):
        if rank == nrows:
            break
        candidates = [r for r in range(rank, nrows) if m[r][col] != 0]
        if not candidates:
            continue
        pr = min(candidates, key=lambda r: idx[r])
        m[rank], m[pr] = m[pr], m[rank]
        idx[rank], idx[pr] = idx[pr], idx[rank]
        pivot_row = m[rank]
        piv = pivot_row[col]
        for r in range(rank + 1, nrows):
            row = m[r]
            factor = row[col]
            for c in range(col, ncols):
                num = piv * row[c] - factor * pivot_row[c]
                q, rem = divmod(num, prev)
                assert rem == 0, "fraction-free elimination lost exactness"
                row[c] = q
        prev = piv
        pivots.append(idx[rank])
        rank += 1
    return rank, pivots


def kernel_rank_last_index(p: Prime, max_e: int, prefix_len: int) -> int:
    """The largest table index that ``estimate_kernel_rank`` reads: the end
    of row (max_e, p**max_e - 1)."""
    return p**max_e * prefix_len - 1


def estimate_kernel_rank(table: ValuationTable, max_e: int, prefix_len: int) -> KernelRankEstimate:
    """Rank over the rationals of the kernel subsequences of a table.

    Row (e, i) is the bounded class slice ``values[i : i + p**e * prefix_len : p**e]``.
    Rows containing an infinite entry are excluded and reported in
    ``dropped``; rank over Q is exact by fraction-free elimination.
    """
    if prefix_len < 1:
        raise UsageError("prefix_len must be >= 1")
    if max_e < 0:
        raise UsageError("max_e must be >= 0")
    p = table.p
    needed = kernel_rank_last_index(p, max_e, prefix_len)
    if needed > table.N:
        raise UsageError(
            f"table too short: need index {needed} for max_e={max_e}, prefix_len={prefix_len}"
        )
    rows: list[tuple[int, ...]] = []
    labels: list[tuple[int, int]] = []
    dropped: list[tuple[int, int]] = []
    for e in range(max_e + 1):
        pe = p**e
        for i in range(pe):
            row = table.values[i : i + pe * prefix_len : pe]
            if INF in row:
                dropped.append((e, i))
                continue
            rows.append(row)
            labels.append((e, i))
    rank, pivots = integer_matrix_rank(rows)
    basis = tuple(sorted(labels[r] for r in pivots))
    return KernelRankEstimate(prefix_len, max_e, rank, basis, tuple(dropped))
