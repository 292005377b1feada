"""Per-process bookkeeping for one benchmark run: timed operations, output
checks, and (in traced runs only) spans and counters.

Spans are recorded from the benchmark's own files, around calls into the
library's public functions; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import os
import resource
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

_ZERO = Fraction(0)


# The canary is a short fixed loop of dict and Fraction work that no
# repository change can speed up.  Other tenants of a shared machine slow a
# process by up to a third, for seconds to minutes at a time.  A canary run
# every SAMPLE_EVERY_S slows the same way, so dividing each operation's time
# by the mean canary time around it (relative to CANARY_REF_S, its typical
# time on a shared, busy 2-CPU Xeon) removes most of that noise.
CANARY_REF_S = 0.0105
SAMPLE_EVERY_S = 0.2
SPEED_WINDOW_S = 1.0   # canary samples this close to an op give its speed
# On an idle core the small canary runs up to twice as fast as CANARY_REF_S,
# while the workloads gain less than a third; below this speed the canary no
# longer tracks them, so the machine is taken to be uncontended.
SPEED_FLOOR = 0.65


def canary() -> float:
    t0 = time.perf_counter()
    acc: dict[int, Fraction] = {}
    for i in range(2_500):
        k = (i * 7919) % 211
        acc[k] = acc.get(k, _ZERO) + Fraction(i % 13, k % 5 + 1)
    return time.perf_counter() - t0


def cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_self_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Failure(Exception):
    """Raised by a check to say an operation's output is wrong."""


class Recorder:
    """Collects one run's operations, failures, spans and counts.

    ``known_defects`` maps operation names to the reason they are expected
    to fail today.  Such a failure still counts in ``failed``; it only keeps
    ``correct`` true, so that an unexpected wrong output stays visible.
    """

    def __init__(self, tracing: bool = False, known_defects=None) -> None:
        self.tracing = tracing
        self.known_defects = dict(known_defects or {})
        self.spans: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.passes: list[dict] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.child_cpu = 0.0
        self.child_rss_mb = 0.0
        self._ops: list[dict] = []
        self._samples: list[tuple[float, float]] = []   # (start, canary time)

    # -- operations -----------------------------------------------------------

    def op(self, name: str, fn, check=None):
        """Time ``fn()``, then run ``check(result)`` outside the timed region.

        A raised exception or a failed check marks the operation failed;
        the result (or None) is returned so later steps can use it.
        """
        self.attempted += 1
        child0 = self.child_cpu
        c0 = cpu_self()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:   # any library exception is a failed operation
            self._finish(name, t0, c0, child0)
            self._fail(name, f"raised {type(exc).__name__}: {exc}")
            return None
        self._finish(name, t0, c0, child0)
        if check is not None:
            try:
                check(result)
            except Failure as exc:
                self._fail(name, str(exc))
                return None
        return result

    @contextmanager
    def sampling(self):
        """Run the canary from a SIGALRM timer every SAMPLE_EVERY_S."""
        def on_alarm(signum, frame):
            start = time.perf_counter()
            self._samples.append((start, canary()))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _at_reference_speed(self, op: dict) -> tuple[float, float]:
        """The op's wall and CPU time without the canary runs inside it,
        divided by the machine speed: the mean canary time of the samples
        within SPEED_WINDOW_S of the op, over CANARY_REF_S."""
        t0, t1 = op["start"], op["start"] + op["wall"]
        near = [d for t, d in self._samples
                if t0 - SPEED_WINDOW_S <= t <= t1 + SPEED_WINDOW_S]
        inside = sum(d for t, d in self._samples if t0 <= t <= t1)
        speed = max(sum(near) / len(near) / CANARY_REF_S, SPEED_FLOOR) if near else 1.0
        return (op["wall"] - inside) / speed, (op["cpu"] - inside) / speed

    def _finish(self, name: str, t0: float, c0: float, child0: float) -> None:
        wall = time.perf_counter() - t0
        cpu = cpu_self() - c0 + (self.child_cpu - child0)
        self._ops.append({"name": name, "start": t0, "wall": wall, "cpu": cpu})

    def _fail(self, name: str, detail: str) -> None:
        self.failures.append({"op": name, "detail": detail,
                              "known_defect": self.known_defects.get(name)})

    def end_pass(self) -> dict:
        """Close a pass.  ``*_ref`` times are at the canary's reference
        speed; without canary samples they equal the measured times."""
        ops, self._ops = self._ops, []
        ref = [self._at_reference_speed(o) for o in ops]
        record = {"wall": sum(o["wall"] for o in ops),
                  "cpu": sum(o["cpu"] for o in ops),
                  "wall_ref": sum(w for w, _ in ref),
                  "cpu_ref": sum(c for _, c in ref),
                  "op_walls": [o["wall"] for o in ops],
                  "op_walls_ref": [w for w, _ in ref],
                  "op_names": [o["name"] for o in ops]}
        self.passes.append(record)
        return record

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(f["known_defect"] for f in self.failures)

    # -- children -------------------------------------------------------------

    def note_child(self, rusage) -> None:
        self.child_cpu += rusage.ru_utime + rusage.ru_stime
        self.child_rss_mb = max(self.child_rss_mb, rusage.ru_maxrss / 1024)

    # -- tracing --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add_time(name, (time.perf_counter_ns() - t0) / 1e9)

    def add_time(self, name: str, seconds: float) -> None:
        self.spans[name] = self.spans.get(name, 0.0) + seconds

    def count(self, name: str, n: int = 1) -> None:
        if self.tracing:
            self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, fn, span_name: str, count_name: str | None = None):
        """``fn`` wrapped in a span (and a call counter) when tracing."""
        if not self.tracing:
            return fn

        def wrapper(*args, **kwargs):
            if count_name is not None:
                self.count(count_name)
            with self.span(span_name):
                return fn(*args, **kwargs)
        return wrapper


def run_child(rec: Recorder, argv: list[str], env: dict, workdir: str,
              tag: str) -> tuple[int, bytes, bytes]:
    """Run one child process to completion; its CPU and peak RSS go to rec.

    stdout and stderr go to files so the parent can reap the child with
    ``os.wait4`` and read that child's own resource usage.
    """
    import subprocess

    out_path = os.path.join(workdir, f"{tag}.stdout")
    err_path = os.path.join(workdir, f"{tag}.stderr")
    # The child shares this process's CPU: hold the canary until it exits,
    # or the two would slow each other down.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    stdin=subprocess.DEVNULL)
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    rec.note_child(rusage)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr
