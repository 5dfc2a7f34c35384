import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legval.arith import INF, PadicVal, Prime, UsageError
from legval.miner import (
    KernelRankEstimate,
    MinedRelation,
    RelationCandidate,
    ValuationTable,
    build_table,
    estimate_kernel_rank,
    format_relation,
    integer_matrix_rank,
    mine_relations,
    verify_relation,
)
from legval.sequences import SequenceSpec

P3 = Prime(3)

# The seven base-3 relations of A(n) = v3(d(n)) with d(n) the sum of C(2i,i)
# over i < n, as (e, i, e2, j, c).  The classical display of this family
# uses the inclusive partial sums (everything shifted by one index); see the
# index-shift test below for the exact correspondence.
DSUM_RELATIONS = {
    (1, 0, 0, 0, 2),
    (2, 1, 1, 1, 0),
    (2, 2, 1, 1, 1),
    (2, 4, 1, 1, 0),
    (2, 5, 1, 2, 1),
    (2, 7, 1, 2, 0),
    (2, 8, 1, 2, 1),
}

# The same family rewritten for B(n) = v3(d(n+1)) via A(m) = B(m-1):
# A(3n) = A(n) + 2 becomes B(3m+2) = B(m) + 2, and each level-2 relation
# A(9n+i) = A(3n+j) + c becomes B(9n+i-1) = B(3n+j-1) + c.
DSUM_RELATIONS_SHIFTED = {
    (1, 2, 0, 0, 2),
    (2, 0, 1, 0, 0),
    (2, 1, 1, 0, 1),
    (2, 3, 1, 0, 0),
    (2, 4, 1, 1, 1),
    (2, 6, 1, 1, 0),
    (2, 7, 1, 1, 1),
}


def shift_relation(rel):
    """Map an A-relation (e,i,e2,j,c) to its B-form, B(n) = A(n+1)."""
    e, i, e2, j, c = rel
    if i == 0:
        # reindex n -> n+1 on both sides: A(p^e n) = A(p^e2 n) + c becomes
        # B(p^e n + p^e - 1) = B(p^e2 n + p^e2 - 1) + c
        return (e, 3**e - 1, e2, 3**e2 - 1, c)
    return (e, i - 1, e2, j - 1, c)


def fraction_rank_oracle(rows):
    """Plain Gaussian elimination over Fraction, written independently."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def constant_table(value, n, spec=None, p=P3):
    spec = spec or SequenceSpec.delannoy()
    return ValuationTable(spec, p, tuple(PadicVal(value) for _ in range(n + 1)))


# Index-arithmetic oracles for the miner's scans: each entry of the class
# p**e * n + i is read as values[p**e * n + i], and each PadicVal is asked
# for is_infinite and value directly.


def verify_relation_oracle(table, cand):
    p = table.p
    pe, pe2 = p**cand.e, p**cand.e2
    n_max = min((table.N - cand.i) // pe, (table.N - cand.j) // pe2)
    support = violations = skipped = 0
    for n in range(n_max + 1):
        lhs, rhs = table.values[pe * n + cand.i], table.values[pe2 * n + cand.j]
        if lhs.is_infinite or rhs.is_infinite:
            skipped += 1
            continue
        support += 1
        if lhs.value != rhs.value + cand.c:
            violations += 1
    return MinedRelation(cand, support, violations, skipped)


def best_relation_oracle(table, e, i, min_support, c_bound):
    p, values = table.p, table.values
    pe = p**e
    for e2 in range(e + 1):
        pe2 = p**e2
        for j in range(pe2):
            if e2 == e and j == i:
                continue
            n_max = min((table.N - i) // pe, (table.N - j) // pe2)
            c = None
            support = 0
            ok = True
            for n in range(n_max + 1):
                lhs, rhs = values[pe * n + i], values[pe2 * n + j]
                if lhs.is_infinite or rhs.is_infinite:
                    continue
                diff = lhs.value - rhs.value
                if c is None:
                    c = diff
                    if abs(c) > c_bound:
                        ok = False
                        break
                elif diff != c:
                    ok = False
                    break
                support += 1
            if ok and c is not None and support >= min_support:
                return MinedRelation(RelationCandidate(e, i, e2, j, c), support, 0, n_max + 1 - support)
    return None


def mine_relations_oracle(table, max_e, min_support, c_bound):
    p = table.p
    deepest = p**max_e
    if (table.N - (deepest - 1)) // deepest + 1 < min_support:
        raise ValueError(
            f"table too short: level-{max_e} classes have fewer than {min_support} indices")
    accepted = []
    frontier = [(0, 0)]
    for e in range(max_e + 1):
        next_frontier = []
        for ce, ci in frontier:
            found = best_relation_oracle(table, ce, ci, min_support, c_bound)
            if found is not None:
                accepted.append(found)
            elif e < max_e:
                next_frontier.extend((ce + 1, ci + t * p**ce) for t in range(p))
        frontier = next_frontier
    return sorted(accepted, key=lambda rel: (rel.candidate.e, rel.candidate.i))


def estimate_kernel_rank_oracle(table, max_e, prefix_len):
    p, values = table.p, table.values
    deepest = p**max_e
    needed = deepest * (prefix_len - 1) + deepest - 1
    if needed > table.N:
        raise ValueError(
            f"table too short: need index {needed} for max_e={max_e}, prefix_len={prefix_len}")
    rows, labels, dropped = [], [], []
    for e in range(max_e + 1):
        pe = p**e
        for i in range(pe):
            picked = [values[pe * n + i] for n in range(prefix_len)]
            if any(v.is_infinite for v in picked):
                dropped.append((e, i))
                continue
            rows.append([v.value for v in picked])
            labels.append((e, i))
    rank, pivots = integer_matrix_rank(rows)
    return KernelRankEstimate(prefix_len, max_e, rank, tuple(sorted(labels[r] for r in pivots)),
                              tuple(dropped))


def outcome(f, *args, **kwargs):
    """The result of f(*args, **kwargs), or the text of the ValueError it raises."""
    try:
        return f(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def miner_tables(draw):
    """Random tables over p in {2, 3, 5}: N up to about 300, often one off a
    multiple of p**e, and values either digit-weighted sums, which satisfy
    V(p*n + d) = V(n) + w[d] with w[0] = 0, or a small random alphabet, with
    inf sprinkled at random positions."""
    p = draw(st.sampled_from([2, 3, 5]))
    pe = p ** draw(st.integers(0, 3))
    N = draw(st.one_of(
        st.integers(0, 300),
        st.integers(1, 300 // pe).flatmap(lambda k: st.sampled_from([pe * k - 1, pe * k, pe * k + 1]))))
    if draw(st.booleans()):
        weights = [0] + draw(st.lists(st.integers(-3, 3), min_size=p - 1, max_size=p - 1))

        def weighted(n):
            total = 0
            while n:
                n, d = divmod(n, p)
                total += weights[d]
            return total

        values = [weighted(n) for n in range(N + 1)]
    else:
        values = draw(st.lists(st.integers(-2, 2), min_size=N + 1, max_size=N + 1))
    infinite = draw(st.sets(st.integers(0, N), max_size=6))
    entries = tuple(INF if n in infinite else PadicVal(v) for n, v in enumerate(values))
    return ValuationTable(SequenceSpec.delannoy(), Prime(p), entries)


class TestBuildTable:
    def test_delannoy_example(self):
        t = build_table(SequenceSpec.delannoy(), P3, 4)
        assert list(t.values) == [0, 1, 0, 2, 1]

    def test_single_entry(self):
        t = build_table(SequenceSpec.legendre(3), P3, 0)
        assert list(t.values) == [0]

    def test_dsum_infinite_head(self):
        t = build_table(SequenceSpec.dsum(), P3, 2)
        assert t.values[0].is_infinite
        assert list(t.values[1:]) == [0, 1]

    @pytest.mark.parametrize(
        "spec",
        [
            SequenceSpec.legendre(3),
            SequenceSpec.q(Fraction(-7, 2)),
            SequenceSpec.cigler(Fraction(5, 3)),
            SequenceSpec.delannoy(),
            SequenceSpec.dsum(),
            SequenceSpec.cube2k(),
        ],
        ids=SequenceSpec.canonical,
    )
    def test_jobs_deterministic(self, spec):
        # jobs is accepted for compatibility and changes nothing
        serial = build_table(spec, P3, 485)
        parallel = build_table(spec, P3, 485, jobs=2)
        assert serial == parallel

    def test_jobs_starts_no_worker_process(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("build_table started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        table = build_table(SequenceSpec.dsum(), P3, 485, jobs=2)
        assert table == build_table(SequenceSpec.dsum(), P3, 485)

    @pytest.mark.parametrize("spec, p", [(SequenceSpec.dsum(), 3), (SequenceSpec.delannoy(), 3),
                                         (SequenceSpec.legendre(3), 3), (SequenceSpec.legendre(0), 5)],
                             ids=lambda x: x.canonical() if isinstance(x, SequenceSpec) else str(x))
    def test_equal_valuations_are_one_object(self, spec, p, tmp_path):
        # a build makes one PadicVal per distinct valuation; each still
        # equals a fresh PadicVal, and a saved table reads back byte-exact
        from legval.arith import vp_rat
        from legval.sequences import iter_sequence_values

        table = build_table(spec, Prime(p), 3**7)
        finite = [v for v in table.values if not v.is_infinite]
        assert len({id(v) for v in finite}) == len({v.value for v in finite})
        assert all(type(v) is PadicVal and v == PadicVal(v.value) for v in finite)
        assert list(table.values) == [vp_rat(Prime(p), x) for x in iter_sequence_values(spec, 3**7 + 1)]
        first, second = tmp_path / "first.table", tmp_path / "second.table"
        table.save(first)
        again = ValuationTable.load(first)
        again.save(second)
        assert again == table
        assert first.read_bytes() == second.read_bytes()

    def test_matches_oracle_values(self):
        from legval.arith import vp_rat
        from legval.sequences import eval_sequence

        spec = SequenceSpec.legendre(Fraction(9, 5))
        t = build_table(spec, P3, 60)
        for n in range(61):
            assert t.values[n] == vp_rat(P3, eval_sequence(spec, n))


class TestInfinityByValue:
    def test_math_inf_entries_read_as_infinite(self):
        # a table that holds math.inf where a build holds INF compares equal
        # to it, and must mine and verify the same
        import math

        table = build_table(SequenceSpec.legendre(0), P3, 3000)
        floats = ValuationTable(table.spec, P3, tuple(math.inf if v is INF else v for v in table.values))
        assert floats == table and math.inf in floats.values and INF is not math.inf
        mined = mine_relations(table, 2)
        assert len(mined) == 5
        assert mine_relations(floats, 2) == mined
        cand = RelationCandidate(1, 0, 0, 0, 0)  # V(3n) = V(n); both sides infinite at odd n
        assert verify_relation(floats, cand) == verify_relation(table, cand) == MinedRelation(cand, 501, 0, 500)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        t = build_table(SequenceSpec.dsum(), P3, 40)
        path = tmp_path / "dsum.table"
        t.save(path)
        again = ValuationTable.load(path)
        assert again == t
        # byte-exact: saving the reloaded table reproduces the file
        path2 = tmp_path / "again.table"
        again.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    @given(spec=st.sampled_from([SequenceSpec.dsum(), SequenceSpec.legendre(Fraction(-9, 5)),
                                 SequenceSpec.q(Fraction(1, 2))]),
           p=st.sampled_from([2, 3, 5, 7]),
           values=st.lists(st.one_of(st.just(INF), st.integers(-10**20, 10**20).map(PadicVal)),
                           min_size=1, max_size=50).filter(lambda vs: INF in vs))
    def test_save_load_save_with_infinite_entries(self, spec, p, values):
        table = ValuationTable(spec, Prime(p), tuple(values))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.table", Path(tmp) / "second.table"
            table.save(first)
            again = ValuationTable.load(first)
            again.save(second)
            assert again == table
            assert first.read_bytes() == second.read_bytes()

    def test_round_trip_rational_spec(self, tmp_path):
        t = build_table(SequenceSpec.legendre(Fraction(-9, 5)), Prime(3), 12)
        path = tmp_path / "leg.table"
        t.save(path)
        assert ValuationTable.load(path) == t

    def test_load_shares_one_object_per_value(self, tmp_path):
        # each distinct value text is parsed once; blank lines are skipped
        path = tmp_path / "t.table"
        path.write_text("# spec=dsum p=3 N=7\n0 inf\n1 0\n2 1\n\n3 0\n  \n4 -2\n5 1\n6 inf\n7 -2\n")
        values = ValuationTable.load(path).values
        assert values == (INF, 0, 1, 0, -2, 1, INF, -2)
        assert values[0] is INF and values[6] is INF
        finite = [v for v in values if not v.is_infinite]
        assert len({id(v) for v in finite}) == len({v.value for v in finite}) == 3
        assert all(type(v) is PadicVal and v == PadicVal(v.value) for v in finite)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.table"
        path.write_text("")
        with pytest.raises(UsageError, match=r"empty\.table: empty table file$"):
            ValuationTable.load(path)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.table"
        path.write_text("# spec=delannoy p=3 N=1\n0 0\n2 1\n")
        with pytest.raises(ValueError, match=r"bad\.table:3: expected '1 <value>', got '2 1'$"):
            ValuationTable.load(path)
        path.write_text("# spec=delannoy p=3 N=1\n0 0\n1 1 1\n")
        with pytest.raises(ValueError, match=r"bad\.table:3: expected '1 <value>', got '1 1 1'$"):
            ValuationTable.load(path)
        path.write_text("# spec=delannoy p=3 N=2\n0 0\n1 1\n")
        with pytest.raises(ValueError, match=r"bad\.table: header says N=2 but 2 entries present$"):
            ValuationTable.load(path)
        path.write_text("no header\n")
        with pytest.raises(ValueError):
            ValuationTable.load(path)
        # a field that is not an int names the file and line like every other error
        for line in ("x 1", "1 abc", "1 1.5"):
            path.write_text(f"# spec=delannoy p=3 N=1\n0 0\n{line}\n")
            with pytest.raises(ValueError, match=rf"bad\.table:3: expected '1 <value>', got '{line}'"):
                ValuationTable.load(path)

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        import pathlib

        path = tmp_path / "dsum.table"
        build_table(SequenceSpec.dsum(), P3, 40).save(path)
        old = path.read_bytes()
        write_text = pathlib.Path.write_text

        def half_then_fail(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "write_text", half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            build_table(SequenceSpec.dsum(), P3, 80).save(path)
        assert path.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["dsum.table"]

    def test_truncated(self):
        t = build_table(SequenceSpec.delannoy(), P3, 10)
        short = t.truncated(4)
        assert list(short.values) == [0, 1, 0, 2, 1]
        with pytest.raises(ValueError):
            short.truncated(10)
        with pytest.raises(ValueError, match="table length must be >= 0"):
            short.truncated(-1)


class TestVerifyRelation:
    def test_known_relation_holds(self):
        table = build_table(SequenceSpec.dsum(), P3, 600)
        good = verify_relation(table, RelationCandidate(1, 0, 0, 0, 2))
        assert good.violations == 0
        assert good.support == 200
        assert good.skipped == 1  # n = 0 hits the infinite entry on both sides

    def test_off_by_one_fails_early(self):
        table = build_table(SequenceSpec.dsum(), P3, 40)
        bad = verify_relation(table, RelationCandidate(1, 0, 0, 0, 1))
        assert bad.violations > 0

    def test_identity_relation(self):
        table = constant_table(5, 30)
        rel = verify_relation(table, RelationCandidate(0, 0, 0, 0, 0))
        assert rel.violations == 0
        assert rel.support == 31

    def test_rejects_bad_offsets(self):
        table = constant_table(0, 30)
        with pytest.raises(ValueError):
            verify_relation(table, RelationCandidate(1, 5, 0, 0, 0))


class TestMineRelations:
    def test_constant_table_level_one(self):
        table = constant_table(7, 400)
        mined = mine_relations(table, 1, min_support=50)
        got = {
            (r.candidate.e, r.candidate.i, r.candidate.e2, r.candidate.j, r.candidate.c)
            for r in mined
        }
        assert got == {(1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 2, 0, 0, 0)}

    def test_dsum_seven_relations(self):
        table = build_table(SequenceSpec.dsum(), P3, 3**7)
        mined = mine_relations(table, 2, min_support=50)
        strict = {
            (r.candidate.e, r.candidate.i, r.candidate.e2, r.candidate.j, r.candidate.c)
            for r in mined
            if r.candidate.e2 < r.candidate.e
        }
        assert strict == DSUM_RELATIONS

    def test_dsum_relations_shift_to_classical_display(self):
        # Index-shifted, the mined family is exactly the classical seven for
        # the inclusive partial sums B(n) = v3(sum of C(2i,i), i <= n).
        assert {shift_relation(r) for r in DSUM_RELATIONS} == DSUM_RELATIONS_SHIFTED
        import math

        def v3(x):
            v = 0
            while x % 3 == 0:
                x //= 3
                v += 1
            return v

        total = 1
        B = []
        for n in range(0, 3**7):
            B.append(v3(total))
            total += math.comb(2 * (n + 1), n + 1)
        for e, i, e2, j, c in DSUM_RELATIONS_SHIFTED:
            for n in range((3**7 - 9) // 9):
                assert B[3**e * n + i] == B[3**e2 * n + j] + c, (e, i, e2, j, c, n)

    def test_soundness(self):
        table = build_table(SequenceSpec.dsum(), P3, 3**7)
        for rel in mine_relations(table, 2, min_support=50):
            recheck = verify_relation(table, rel.candidate)
            assert recheck.violations == 0
            assert recheck.support == rel.support

    def test_monotone_stability(self):
        short = build_table(SequenceSpec.dsum(), P3, 3**6)
        longer = build_table(SequenceSpec.dsum(), P3, 3**8)
        for rel in mine_relations(short, 2, min_support=30):
            assert verify_relation(longer, rel.candidate).violations == 0

    def test_legendre_table_parity_relations(self):
        table = build_table(SequenceSpec.legendre(3), P3, 1000)
        mined = mine_relations(table, 1, min_support=50)
        got = {
            (r.candidate.e, r.candidate.i, r.candidate.e2, r.candidate.j, r.candidate.c)
            for r in mined
        }
        # even digits give equal valuations; the odd class has no affine rule
        assert got == {(1, 0, 1, 2, 0), (1, 2, 1, 0, 0)}

    def test_rejects_short_table(self):
        table = constant_table(0, 20)
        with pytest.raises(ValueError):
            mine_relations(table, 2, min_support=50)

    def test_format(self):
        assert format_relation(RelationCandidate(2, 4, 1, 1, 1), P3) == "V(9n+4) = V(3n+1) + 1"
        assert format_relation(RelationCandidate(1, 2, 0, 0, 2), P3) == "V(3n+2) = V(n) + 2"
        assert format_relation(RelationCandidate(2, 0, 1, 0, 0), P3) == "V(9n) = V(3n)"
        assert format_relation(RelationCandidate(1, 0, 0, 0, -2), P3) == "V(3n) = V(n) - 2"


class TestRank:
    def test_integer_rank_small(self):
        assert integer_matrix_rank([[1, 2], [2, 4]])[0] == 1
        assert integer_matrix_rank([[1, 0], [0, 1]])[0] == 2
        assert integer_matrix_rank([[0, 0], [0, 0]])[0] == 0
        rank, pivots = integer_matrix_rank([[0, 1, 1], [0, 2, 2], [1, 0, 0]])
        assert rank == 2
        assert set(pivots) == {0, 2}

    def test_integer_rank_matches_fraction_oracle(self):
        import random

        rng = random.Random(20240817)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(5)]
            assert integer_matrix_rank(rows)[0] == fraction_rank_oracle(rows)

    def test_constant_nonzero_table(self):
        table = constant_table(3, 400)
        est = estimate_kernel_rank(table, 2, 20)
        assert est.rank == 1
        assert est.basis_labels == ((0, 0),)

    def test_central_binomial_two_adic_kernel(self):
        # v2(C(2n,n)) = s_2(n); rank checked against the Fraction oracle.
        from legval.arith import digit_sum

        p2 = Prime(2)
        values = tuple(PadicVal(digit_sum(p2, n)) for n in range(500))
        est = estimate_kernel_rank(ValuationTable(SequenceSpec.delannoy(), p2, values), 2, 100)
        rows = []
        for e in range(3):
            for i in range(2**e):
                rows.append([digit_sum(p2, (2**e) * n + i) for n in range(100)])
        assert est.rank == fraction_rank_oracle(rows)

    def test_dropped_infinite_rows(self):
        table = build_table(SequenceSpec.dsum(), P3, 200)
        est = estimate_kernel_rank(table, 1, 30)
        # class (0,0) and (1,0) both contain index 0 whose entry is infinite
        assert (0, 0) in est.dropped
        assert (1, 0) in est.dropped
        assert all(label not in est.dropped for label in est.basis_labels)

    def test_monotonicity(self):
        table = build_table(SequenceSpec.legendre(3), P3, 2200)
        r_small = estimate_kernel_rank(table, 1, 40).rank
        r_more_depth = estimate_kernel_rank(table, 2, 40).rank
        r_more_prefix = estimate_kernel_rank(table, 1, 200).rank
        assert r_small <= r_more_depth
        assert r_small <= r_more_prefix

    def test_rejects_short_table(self):
        table = constant_table(1, 10)
        with pytest.raises(ValueError):
            estimate_kernel_rank(table, 2, 10)

    def test_rejects_negative_depth(self):
        with pytest.raises(UsageError, match="max_e must be >= 0"):
            estimate_kernel_rank(constant_table(1, 10), -1, 5)

    def test_rejects_empty_prefix(self):
        with pytest.raises(UsageError, match="prefix_len must be >= 1"):
            estimate_kernel_rank(constant_table(1, 10), 1, 0)


def saved_and_loaded(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.table"
        table.save(path)
        return ValuationTable.load(path)


# legendre(0) at p = 3 and q(0) at p = 2 are inf at every odd n: built, each
# inf comes from the stream, and read back from a file, from the parser
LEGENDRE0_AT_3 = build_table(SequenceSpec.legendre(0), P3, 300)
Q0_AT_2 = build_table(SequenceSpec.q(0), Prime(2), 300)


class TestMinerMatchesIndexOracle:
    @settings(deadline=None, max_examples=150)
    @given(table=miner_tables(), max_e=st.integers(0, 3), min_support=st.integers(1, 10),
           c_bound=st.integers(0, 4), rank_e=st.integers(0, 3), prefix_len=st.integers(1, 12),
           data=st.data())
    @example(table=LEGENDRE0_AT_3, max_e=2, min_support=10, c_bound=4, rank_e=2, prefix_len=12, data=None)
    @example(table=saved_and_loaded(LEGENDRE0_AT_3), max_e=2, min_support=10, c_bound=4, rank_e=2,
             prefix_len=12, data=None)
    @example(table=Q0_AT_2, max_e=3, min_support=10, c_bound=4, rank_e=3, prefix_len=12, data=None)
    @example(table=saved_and_loaded(Q0_AT_2), max_e=3, min_support=10, c_bound=4, rank_e=3,
             prefix_len=12, data=None)
    def test_matches_oracle(self, table, max_e, min_support, c_bound, rank_e, prefix_len, data):
        mined = outcome(mine_relations, table, max_e, min_support, c_bound=c_bound)
        assert mined == outcome(mine_relations_oracle, table, max_e, min_support, c_bound)
        p = int(table.p)
        levels = st.integers(0, 3)
        offsets = levels.flatmap(lambda e: st.tuples(st.just(e), st.integers(0, p**e - 1)))
        drawn = [] if data is None else data.draw(st.lists(  # an @example checks what it mines
            st.tuples(offsets, offsets, st.integers(-4, 4)), max_size=4))
        candidates = [RelationCandidate(e, i, e2, j, c) for (e, i), (e2, j), c in drawn]
        if isinstance(mined, list):
            candidates += [rel.candidate for rel in mined]
        for cand in candidates:
            assert verify_relation(table, cand) == verify_relation_oracle(table, cand)
        assert (outcome(estimate_kernel_rank, table, rank_e, prefix_len)
                == outcome(estimate_kernel_rank_oracle, table, rank_e, prefix_len))

    def test_deep_search_on_short_table_raises_at_once(self):
        # the length check reads one slice; the 3**40 classes are never sliced
        table = constant_table(0, 99)
        with pytest.raises(ValueError, match="table too short: level-40 classes have fewer than 50"):
            mine_relations(table, 40)
        assert outcome(mine_relations_oracle, table, 40, 50, 6) == (
            "ValueError: table too short: level-40 classes have fewer than 50 indices")
