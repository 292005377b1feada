"""quiverlab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cocenter,witness,pullback,cli} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it reports the end-to-end metrics from untraced passes;
with ``--trace 1`` the per-layer metrics from one traced pass and one
cProfile pass, plus the tracing overhead.  Every sample runs in a fresh
interpreter (``worker.py``), one at a time.  Human-readable lines come
first; the last line of stdout is one JSON object.  A copy of the result,
with the machine, the commit and the sample count behind every metric, is
written to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cocenter", "witness", "pullback", "cli")
SETUP_SAMPLES = 5          # the measure worker's own set-up is one of them
WORKER_TIMEOUT_S = 170

# (name, unit) for every per-layer metric; each traced run reports them all,
# with 0 where the workload does not reach that layer.
QUIVERLAB_MODULES = ("algebra", "cli", "corner", "linalg", "modules",
                     "polynomials", "quiverfile", "quivers", "repscheme")
CLI_SUBCOMMANDS = ("basis", "cocenter", "corner", "corner-present",
                   "bimodule-gens", "invariants", "rep-ideal", "groebner",
                   "nilwitness", "check-module", "induce", "fingerprint",
                   "stability", "delta", "astar", "acircledast")
SPAN_METRICS = (
    "algebra.cocenter_s", "algebra.cocenter_s.A8", "algebra.cocenter_s.D8",
    "algebra.cocenter_s.E6", "algebra.cocenter_s.E7", "algebra.graded_basis_s",
    "repscheme.rep_ideal_s", "polynomials.buchberger_s",
    "polynomials.witness_miss_s", "polynomials.witness_hit_s",
    "repscheme.add_pullback_s", "repscheme.invariant_generators_s",
    "polynomials.substitute_s", "modules.random_extension_s",
    "modules.fingerprint_s", "corner.corner_generators_s",
    "corner.bimodule_generators_s", "corner.corner_presentation_s",
    "modules.induce_module_s", "modules.generated_by_framing_s")
COUNT_METRICS = (
    "algebra.basis_dim", "algebra.commutator_pairs", "algebra.commutator_rank",
    "repscheme.ideal_gens", "polynomials.gb_size",
    "polynomials.standard_monomials", "polynomials.nf_calls",
    "repscheme.invariants", "polynomials.substitutions")
PER_LAYER = (
    [(n, "s") for n in SPAN_METRICS]
    + [(n, "count") for n in COUNT_METRICS]
    + [("algebra.commutator_yield", "ratio"), ("polynomials.nf_us_per_call", "us"),
       ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.self_ms", "ms"),
       ("quiverfile.parse_ms", "ms")]
    + [(f"cli.main_ms.{c}", "ms") for c in CLI_SUBCOMMANDS]
    + [("fractions.new_calls", "count"), ("fractions.self_share", "ratio")]
    + [(f"{m}.self_share", "ratio") for m in QUIVERLAB_MODULES]
    + [("trace.overhead", "ratio")])


def run_worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result.

    The worker gets its own process group so that a timeout also ends any
    CLI child it started.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"     # same set and dict orders in every run
    env["PYTHONIOENCODING"] = "utf-8"
    argv = [sys.executable, str(BENCH / "worker.py"), mode, workload,
            str(seed), str(seconds)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} {workload} exited {proc.returncode}")
    return json.loads(out.decode("utf-8").splitlines()[-1])


def metric(value: float, unit: str, runs: int) -> dict:
    return {"value": value, "unit": unit, "runs": runs}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups = [run_worker("setup", workload, seed, 0)
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker("measure", workload, seed, seconds)
    setups.append(res)
    passes = res["passes"]

    def times(suffix: str) -> dict:
        """Set-up, wall, cpu and invocation medians from the times with the
        given suffix: "" as measured, "_ref" at the canary's reference speed."""
        if workload == "cli":
            latencies = [w for p in passes for w in p["op_walls" + suffix]]
        else:   # a library pass is one invocation of the pipeline
            latencies = [p["wall" + suffix] for p in passes]
        return {
            "setup_s": metric(statistics.median(s["setup_s" + suffix] for s in setups),
                              "s", len(setups)),
            "wall_s": metric(statistics.median(p["wall" + suffix] for p in passes),
                             "s", len(passes)),
            "cpu_s": metric(statistics.median(p["cpu" + suffix] for p in passes),
                            "s", len(passes)),
            "invocation_p50_ms": metric(statistics.median(latencies) * 1000,
                                        "ms", len(latencies)),
        }

    timed = times("_ref")
    metrics = {
        "setup_s": timed["setup_s"],
        "wall_s": timed["wall_s"],
        "cpu_s": timed["cpu_s"],
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB", 1),
        "invocation_p50_ms": timed["invocation_p50_ms"],
    }
    return {"metrics": metrics, "as_measured": times(""),
            "attempted": res["attempted"], "failed": res["failed"],
            "correct": res["correct"], "failures": res["failures"],
            "sha256": res.get("sha256")}


def per_layer(workload: str, seed: int) -> dict:
    tr = run_worker("trace", workload, seed, 0)
    prof = run_worker("profile", workload, seed, 0)
    spans, counts = tr["spans"], tr["counts"]
    values = {n: spans.get(n, 0.0) for n in SPAN_METRICS}
    values.update({n: counts.get(n, 0) for n in COUNT_METRICS})
    pairs = counts.get("algebra.commutator_pairs", 0)
    values["algebra.commutator_yield"] = (
        counts.get("algebra.commutator_rank", 0) / pairs if pairs else 0.0)
    nf_calls = counts.get("polynomials.nf_calls", 0)
    values["polynomials.nf_us_per_call"] = (
        spans.get("polynomials.nf_s", 0.0) / nf_calls * 1e6 if nf_calls else 0.0)
    mains = {c: spans.get(f"cli.main_s.{c}", 0.0) for c in CLI_SUBCOMMANDS}
    values.update({f"cli.main_ms.{c}": s * 1000 for c, s in mains.items()})
    if workload == "cli":
        main_total = sum(s for n, s in spans.items() if n.startswith("cli.main_s."))
        library = sum(s for n, s in spans.items() if not n.startswith("cli."))
        values["cli.self_ms"] = (main_total - library) * 1000
    else:
        values["cli.self_ms"] = 0.0
    values["cli.interp_ms"] = tr.get("interp_ms", 0.0)
    values["cli.import_ms"] = tr.get("import_ms", 0.0)
    values["quiverfile.parse_ms"] = spans.get("quiverfile.parse_s", 0.0) * 1000
    values["fractions.new_calls"] = prof["profile"]["new_calls"]
    shares = prof["profile"]["shares"]
    for m in ("fractions",) + QUIVERLAB_MODULES:
        values[f"{m}.self_share"] = shares.get(m, 0.0)
    values["trace.overhead"] = tr["traced_wall"] / tr["untraced_wall"]
    metrics = {n: metric(values[n], unit, 1) for n, unit in PER_LAYER}
    return {"metrics": metrics,
            "attempted": tr["attempted"] + prof["attempted"],
            "failed": tr["failed"] + prof["failed"],
            "correct": tr["correct"] and prof["correct"],
            "failures": tr["failures"] + prof["failures"]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "quiverlab" / "__init__.py").is_file() \
            or not (ROOT / "fixtures").is_dir():
        print("error: run from a quiverlab checkout (src/quiverlab and "
              "fixtures/ are missing)", file=sys.stderr)
        return 2

    if args.trace:
        result = per_layer(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    fail_ratio = result["failed"] / result["attempted"]

    for name, m in result["metrics"].items():
        print(f"{args.workload:9s} {name:34s} {m['value']:14.6f} {m['unit']:6s} "
              f"(n={m['runs']})")
    for name, m in result.get("as_measured", {}).items():
        print(f"{args.workload:9s} {name + ' as measured':34s} {m['value']:14.6f} "
              f"{m['unit']:6s} (n={m['runs']})")
    print(f"{args.workload:9s} {'fail_ratio':34s} {fail_ratio:14.6f} ratio  "
          f"({result['failed']}/{result['attempted']})")
    for f in result["failures"]:
        tag = f" [known defect: {f['known_defect']}]" if f["known_defect"] else ""
        print(f"FAILED {f['op']}: {f['detail']}{tag}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": git_commit(), "machine": machine(),
              "fail_ratio": fail_ratio, **result}
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
