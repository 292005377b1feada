"""One benchmark process: set up a workload, then measure, trace or profile it.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of
  setup    import quiverlab and build the inputs, nothing else;
  measure  untraced passes, with the canary sampling the machine speed,
           until SECONDS would be exceeded (at least one);
  trace    one untraced pass, then one pass with spans and counters;
  profile  one pass under cProfile.
On ``cli``, trace and profile call ``cli.main`` in-process instead of
starting children.
The last line of stdout is one JSON object.  ``run.py`` starts this script
in a fresh interpreter for every sample, so memos start empty and the peak
RSS belongs to one run.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from recorder import (CANARY_REF_S, SPEED_FLOOR, Recorder, canary,  # noqa: E402
                      peak_rss_self_mb)

FLOOR_SAMPLES = 5


def measure(ctx, run_pass, rec: Recorder, seconds: float) -> None:
    start = time.perf_counter()
    while True:
        run_pass(ctx, rec)
        rec.end_pass()
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(rec.passes)) > seconds:
            break


def child_floor_ms(argv: list[str], env: dict) -> float:
    """Median wall time of a short child process, in ms."""
    samples = []
    for _ in range(FLOOR_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdin=subprocess.DEVNULL)
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def main() -> int:
    mode, workload, seed, seconds = sys.argv[1:5]
    seed, seconds = int(seed), float(seconds)
    if mode not in ("setup", "measure", "trace", "profile"):
        raise SystemExit(f"unknown mode {mode!r}")
    # one CPU for this process, its canary and its CLI children, so that the
    # canary sees the contention the measured work sees
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = BENCH / "work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        import workloads
        setup, run_pass = workloads.WORKLOADS[workload]
        ctx = setup(seed, str(workdir))
        setup_s = time.perf_counter() - T0
        speed = max(statistics.median(canary() for _ in range(3)) / CANARY_REF_S,
                    SPEED_FLOOR)
        out = {"setup_s": setup_s, "setup_s_ref": setup_s / speed}
        known = workloads.KNOWN_DEFECTS if workload == "cli" else {}
        if workload == "cli" and mode != "measure":
            run_pass = workloads.pass_cli_inprocess
        recs = []

        if mode == "measure":
            rec = Recorder(known_defects=known)
            with rec.sampling():
                measure(ctx, run_pass, rec, seconds)
            recs = [rec]
            out.update(passes=rec.passes,
                       peak_rss_mb=(rec.child_rss_mb if workload == "cli"
                                    else peak_rss_self_mb()))
            if workload == "cli":
                out["sha256"] = ctx.hashes
        elif mode == "trace":
            plain = Recorder(known_defects=known)
            traced = Recorder(tracing=True, known_defects=known)
            run_pass(ctx, plain)
            run_pass(ctx, traced)
            recs = [plain, traced]
            out.update(untraced_wall=plain.end_pass()["wall"],
                       traced_wall=traced.end_pass()["wall"],
                       spans=traced.spans, counts=traced.counts)
            if workload == "cli":
                env = workloads.cli_env()
                interp = child_floor_ms([sys.executable, "-c", ""], env)
                imported = child_floor_ms(
                    [sys.executable, "-c", "import quiverlab.cli"], env)
                out.update(interp_ms=interp, import_ms=imported - interp)
        elif mode == "profile":
            rec = Recorder(known_defects=known)
            out["profile"] = workloads.profile_pass(lambda: run_pass(ctx, rec))
            recs = [rec]
        out.update(attempted=sum(r.attempted for r in recs),
                   failed=sum(r.failed for r in recs),
                   correct=all(r.correct for r in recs),
                   failures=[f for r in recs for f in r.failures])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
