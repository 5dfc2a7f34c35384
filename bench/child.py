"""One setup or one timed pass of a workload, in a fresh interpreter.

    python3 bench/child.py setup <workload> <seed> <workdir>
    python3 bench/child.py pass <workload> <seed> <workdir> <trace 0|1>

``run.py`` starts this from the root of a legval checkout with PYTHONPATH
set to its ``src`` directory.  The last line of standard output is one JSON
object.  A pass times its operations, then checks their outputs outside the
timed region.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import tracing
import workloads


def _import_legval() -> None:
    import legval

    src = (Path.cwd() / "src").resolve()
    if not Path(legval.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"legval was imported from {legval.__file__}, not from {src}")


def do_setup(workload: str, seed: int, workdir: Path) -> dict:
    _import_legval()
    workdir.mkdir(parents=True)
    workloads.setup(workload, workloads.make_inputs(workload, seed), workdir)
    return {"ok": True}


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def do_pass(workload: str, seed: int, workdir: Path, traced: bool) -> dict:
    _import_legval()
    passdir = workdir / f"pass-{os.getpid()}"
    passdir.mkdir()
    ops = workloads.build_ops(workload, workloads.make_inputs(workload, seed), workdir, passdir)
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracing.install(tracer)

    own0, kids0 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    results, errors = {}, {}
    for op in ops:
        try:
            results[op.name] = op.run()
        except Exception as exc:  # a failed operation is counted, and the pass goes on
            errors[op.name] = f"{type(exc).__name__}: {exc}"[:200]
    wall = time.perf_counter() - start
    own1, kids1 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.metrics(tracer, tracing.reseed_seconds(tracer.parallel_builds))

    digests, wrong = {}, {}
    for op in ops:
        if op.name in errors:
            digests[op.name] = "error " + errors[op.name].split(":")[0]
            continue
        try:
            digests[op.name] = op.digest(results[op.name])
            problems = op.check(results[op.name])
        except Exception as exc:  # output the check cannot read is wrong output
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"[:200]]
        if problems:
            wrong[op.name] = problems
    shutil.rmtree(passdir)
    return {
        "wall_s": wall,
        "cpu_s": _cpu(own1) - _cpu(own0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; the larger of this process and its
        # largest finished worker.
        "peak_rss_mb": max(own1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "attempted": len(ops),
        "errors": errors,
        "wrong": wrong,
        "digests": digests,
        "layers": layers,
    }


def main(argv: list[str]) -> int:
    role, workload, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if role == "setup":
        result = do_setup(workload, seed, workdir)
    else:
        result = do_pass(workload, seed, workdir, argv[4] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
