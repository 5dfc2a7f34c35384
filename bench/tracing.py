"""Per-layer tracing from outside the library.

``install`` replaces the public names that one legval module imports from
another (``sequences.vp_int``, ``miner.iter_valuations_with_bits``,
``verify.build_table``, the ``predict_*`` names in ``verify`` and ``cli``,
...) with wrappers that record a span around each call, or around each
``next()`` of a generator.  Spans nest on a stack, so a layer's self time is
its span time minus the time of the spans it caused.  Only totals are kept in
memory; ``metrics`` turns them into the per-layer metrics at the end of a
pass.  Work done inside worker processes is not seen.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from legval.verify import THEOREM_IDS

CLI_COMMANDS = ("eval", "valuate", "predict", "verify", "mine", "rank", "oeis-check")


class Tracer:
    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # child time of each open span
        self.parallel_builds: list[tuple[object, int, int]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _close(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._children.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        if self._children:
            self._children[-1] += elapsed

    def call(self, name: str, fn, *args, **kwargs):
        start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start)

    def wrap(self, name: str, fn, after=None):
        """A function that runs ``fn`` inside a span; ``after(result, args,
        kwargs)`` then updates counters outside the span."""

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn, on_item=None):
        """A generator function whose every ``next()`` is one span."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                start = self._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, start)
                if on_item is not None:
                    on_item(item)
                yield item

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def install(tracer: Tracer) -> None:
    from legval import cli, miner, oeis, sequences, verify

    count = tracer.count

    def after_vp(v, args, kwargs):
        count["arith.vp_calls"] += 1
        if not v.is_infinite:
            count["arith.vp_finite"] += 1
            count["arith.vp_sum"] += v.value

    for owner, attr in ((sequences, "vp_int"), (verify, "vp_int"), (verify, "vp_rat")):
        tracer.patch(owner, attr, tracer.wrap("arith.vp", getattr(owner, attr), after_vp))

    def on_bits(item):
        bits = item[1]
        count["sequences.bits_total"] += bits
        count["sequences.bits_max"] = max(count["sequences.bits_max"], bits)

    tracer.patch(miner, "iter_valuations_with_bits",
                 tracer.wrap_generator("sequences.step", miner.iter_valuations_with_bits, on_bits))
    for owner, attr in ((verify, "iter_sequence_valuations"), (cli, "iter_sequence_valuations"),
                        (cli, "iter_sequence_values"), (oeis, "iter_sequence_valuations"),
                        (oeis, "iter_sequence_values")):
        tracer.patch(owner, attr, tracer.wrap_generator("sequences.step", getattr(owner, attr)))

    for attr in ("cube_sum_2k", "cigler_eval", "legendre_eval_binomial",
                 "legendre_eval_rodrigues", "legendre_eval_square_form"):
        tracer.patch(verify, attr, tracer.wrap("sequences.direct", getattr(verify, attr)))

    def after_predict(result, args, kwargs):
        count["predictors.calls"] += 1

    for owner in (verify, cli):
        for attr in list(vars(owner)):
            if attr.startswith("predict_") or attr == "recurrence_step":
                tracer.patch(owner, attr, tracer.wrap("predictors", getattr(owner, attr), after_predict))

    def after_build(table, args, kwargs):
        spec, p, N = args[:3]
        count["miner.build_indices"] += N + 1
        jobs = kwargs.get("jobs", 1)
        if jobs > 1 and N >= 256 and kwargs.get("max_total_bits") is None:
            tracer.parallel_builds.append((spec, N, jobs))

    for owner in (miner, verify, cli):
        tracer.patch(owner, "build_table", tracer.wrap("miner.build", owner.build_table, after_build))

    table_cls = miner.ValuationTable
    save, load = table_cls.save, table_cls.load

    def traced_save(self, path):
        tracer.call("miner.save", save, self, path)
        count["miner.table_bytes_written"] += os.path.getsize(path)

    def traced_load(cls, path):
        table = tracer.call("miner.load", load, path)
        count["miner.table_bytes_read"] += os.path.getsize(path)
        return table

    tracer.patch(table_cls, "save", traced_save)
    tracer.patch(table_cls, "load", classmethod(traced_load))

    def after_mine(relations, args, kwargs):
        count["miner.relations"] += len(relations)

    tracer.patch(cli, "mine_relations", tracer.wrap("miner.mine", cli.mine_relations, after_mine))
    tracer.patch(cli, "estimate_kernel_rank", tracer.wrap("miner.rank", cli.estimate_kernel_rank))
    tracer.patch(cli, "oeis_check", tracer.wrap("oeis", cli.oeis_check))

    run_verification = verify.run_verification

    def traced_verification(theorem_id, *args, **kwargs):
        report = tracer.call(f"verify.{theorem_id}", run_verification, theorem_id, *args, **kwargs)
        count["verify.checked"] += report.checked
        return report

    for owner in (verify, cli):
        tracer.patch(owner, "run_verification", traced_verification)

    main = cli.main

    def traced_main(argv):
        command = next((a for a in argv if a in CLI_COMMANDS), "other")
        try:
            return tracer.call(f"cli.{command}", main, argv)
        finally:
            if "--out" in argv:
                out = argv[argv.index("--out") + 1]
                if os.path.exists(out):
                    count["cli.out_bytes"] += os.path.getsize(out)

    tracer.patch(cli, "main", traced_main)


def reseed_seconds(parallel_builds) -> float:
    """Time of ``eval_sequence`` at the two seed indices before each chunk
    start of the parallel table builds, chunked as ``build_table`` does."""
    from legval.sequences import eval_sequence

    elapsed = 0.0
    for spec, N, jobs in parallel_builds:
        step, extra = divmod(N + 1, jobs)
        start = 0
        for k in range(jobs - 1):
            start += step + (1 if k < extra else 0)
            for n in (start - 1, start - 2):
                if n >= 0:
                    t0 = time.perf_counter()
                    eval_sequence(spec, n)
                    elapsed += time.perf_counter() - t0
    return elapsed


def metrics(tracer: Tracer, reseed_s: float) -> dict[str, float]:
    total, self_time, count = tracer.total, tracer.self_time, tracer.count
    out = {
        "arith.vp_calls": count["arith.vp_calls"],
        "arith.vp_mean": count["arith.vp_sum"] / max(count["arith.vp_finite"], 1),
        "arith.vp_s": total["arith.vp"],
        "sequences.step_s": self_time["sequences.step"],
        "sequences.bits_total": count["sequences.bits_total"],
        "sequences.bits_max": count["sequences.bits_max"],
        "sequences.reseed_s": reseed_s,
        "sequences.direct_s": total["sequences.direct"],
        "predictors.calls": count["predictors.calls"],
        "predictors.s": total["predictors"],
        "miner.build_s": total["miner.build"],
        "miner.build_indices": count["miner.build_indices"],
        "miner.save_s": total["miner.save"],
        "miner.table_bytes_written": count["miner.table_bytes_written"],
        "miner.load_s": total["miner.load"],
        "miner.table_bytes_read": count["miner.table_bytes_read"],
        "miner.mine_s": total["miner.mine"],
        "miner.rank_s": total["miner.rank"],
        "miner.relations": count["miner.relations"],
        "verify.checked": count["verify.checked"],
        "verify.self_s": sum(self_time[f"verify.{t}"] for t in THEOREM_IDS),
        "cli.out_bytes": count["cli.out_bytes"],
        "cli.self_s": sum(self_time[f"cli.{c}"] for c in CLI_COMMANDS),
        "oeis.s": total["oeis"],
    }
    out.update({f"verify.{t}_s": total[f"verify.{t}"] for t in THEOREM_IDS})
    out.update({f"cli.{c}_s": total[f"cli.{c}"] for c in CLI_COMMANDS})
    return out
