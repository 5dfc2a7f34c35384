"""legval benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload sweep|tables|cli --seed N --seconds S --trace 0|1

Run from the root of a legval checkout; nothing needs installing.  Set-up
runs several times and each timed pass runs once, every one in a fresh
interpreter (``child.py``), so imports and caches never carry over from one
to the next.  Passes repeat until ``--seconds`` is spent (at least three
untraced, or one untraced and one traced with ``--trace 1``).

The last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Every timing is the median over the run's samples.  The line before it
records the commit, the Python version, the CPU count, the seed, the sample
counts and the failed operations.  README.md says what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170.0  # a whole run, set-ups and passes, ends within this
# Set-up repeats at least MIN_SETUPS times and, when it is quick, until
# SETUP_SECONDS are spent, so that the median of a sub-second set-up is not
# one noisy sample.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 15, 3.0
MIN_PASSES = 3


class ChildError(RuntimeError):
    pass


def _child(root: Path, argv: list[str], timeout: float) -> dict:
    """Runs child.py to completion in its own process group, and returns
    its result; kills the whole group if it outlives ``timeout``."""
    # A fixed hash seed keeps set and dict layouts, and so timings, the same
    # from one process to the next.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"child.py {argv[0]} did not finish within the run's time limit") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.strip():
        raise ChildError(f"child.py {argv[0]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _provenance(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "table_jobs": workloads.table_jobs()}


def measure(root: Path, workdir: Path, workload: str, seed: int, seconds: float,
            traced: bool, started: float) -> tuple[list[float], list[dict]]:
    """Set-up times, then the passes: all untraced, or alternating untraced
    and traced."""
    remaining = lambda: DEADLINE_S - (time.monotonic() - started)  # noqa: E731
    def more_setups() -> bool:
        k = len(setup_times)
        if traced:  # set-up only prepares the passes; setup_s is not reported
            return k == 0
        return k < MIN_SETUPS or (k < MAX_SETUPS and sum(setup_times) < SETUP_SECONDS)

    setup_times: list[float] = []
    while more_setups():
        k = len(setup_times)
        t0 = time.perf_counter()
        _child(root, ["setup", workload, str(seed), str(workdir / f"setup-{k}")], remaining())
        setup_times.append(time.perf_counter() - t0)
        if k:
            shutil.rmtree(workdir / f"setup-{k - 1}")
    setupdir = workdir / f"setup-{len(setup_times) - 1}"

    passes: list[dict] = []
    durations: list[float] = []
    t_measure = time.monotonic()
    least = 2 if traced else MIN_PASSES  # with --trace 1, one untraced and one traced
    while True:
        want_traced = traced and len(passes) % 2 == 1
        expected = statistics.median(durations) if durations else 0.0
        if len(passes) >= least and time.monotonic() - t_measure + expected > seconds:
            break
        if expected > remaining():
            if len(passes) >= (2 if traced else 1):
                break  # fewer samples rather than overrunning the time limit
            raise ChildError("not enough time left for the passes")
        t0 = time.monotonic()
        result = _child(root, ["pass", workload, str(seed), str(setupdir), "1" if want_traced else "0"],
                        remaining())
        durations.append(time.monotonic() - t0)
        result["traced"] = want_traced
        passes.append(result)
    return setup_times, passes


def summarize(passes: list[dict]) -> tuple[int, int, int, dict]:
    """attempted, failed and wrong over all passes.  An output that differs
    from the first pass's counts as wrong, as does one that fails its check;
    an operation that raised or exited non-zero counts as failed."""
    first = passes[0]["digests"]
    attempted = failed = wrong = 0
    notes: dict[str, str] = {}
    for result in passes:
        attempted += result["attempted"]
        changed = [name for name, d in result["digests"].items()
                   if d != first.get(name) and name not in result["wrong"]]
        failed += len(result["errors"]) + len(result["wrong"]) + len(changed)
        wrong += len(result["wrong"]) + len(changed)
        notes.update(result["errors"])
        notes.update({name: "; ".join(p) for name, p in result["wrong"].items()})
        notes.update({name: "output differs from the first pass" for name in changed})
    return attempted, failed, wrong, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "legval" / "__init__.py").is_file():
        print(f"error: no legval sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, passes = measure(root, workdir, args.workload, args.seed, args.seconds,
                                      bool(args.trace), started)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                         / statistics.median(r["wall_s"] for r in untraced) - 1)
    else:
        values = {name: statistics.median(r[name] for r in untraced)
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setup_times)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics this benchmark does not measure: {missing}",
              file=sys.stderr)
        return 1

    attempted, failed, wrong, notes = summarize(passes)
    record = {"workload": args.workload, "seed": args.seed, **_provenance(root),
              "setups": len(setup_times), "passes": len(untraced), "traced_passes": len(traced),
              "ops_failed_frac": failed / attempted, "failures": notes,
              "wall_s_samples": [r["wall_s"] for r in untraced]}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
