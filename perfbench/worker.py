"""One workload in one process: set up, run the closed loop, report.

Started by ``run.py``, never by hand.  Every event is one JSON line on the
file descriptor that was stdout (the library's own output goes to stderr).
A killed or timed-out operation shows up to the parent as a ``begin``
without its ``end``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up is timed in windows of at least this many runs and this long
SETUP_WINDOW_RUNS = 3
SETUP_WINDOW_S = 1.0


class Events:
    def __init__(self):
        self.out = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
        os.dup2(2, 1)
        sys.stdout = sys.stderr

    def emit(self, **event) -> None:
        self.out.write(json.dumps(event) + "\n")
        self.out.flush()


def run_loop(workload, seconds: float, events, phase: str, gauge, tracer=None) -> list:
    """Closed loop over the workload's ops.  A new round begins only while
    ``seconds`` have not elapsed, so every run measures whole rounds.
    Returns (op index, latency at reference speed, ok, answer) rows."""
    ops = workload.ops
    rows = []
    k = 0
    t0 = time.perf_counter()
    while k % len(ops) != 0 or time.perf_counter() - t0 < seconds:
        op = ops[k % len(ops)]
        events.emit(ev="begin", k=k, op=op.name, phase=phase)
        error = None
        answer = None
        if tracer is not None:
            tracer.op = k
            root = tracer.open(tracing.OP_LAYER)
        gauge.start()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is a failed one
            error = f"{type(exc).__name__}: {exc}"
        finally:
            latency, scale = gauge.stop()
            if tracer is not None:
                tracer.close(root)
                tracer.op = -1
        if error is None:
            try:
                op.check(result)
                answer = op.answer(result)
            except oracle.Mismatch as exc:
                error = f"wrong answer: {exc}"
        events.emit(ev="end", k=k, lat=latency, scale=scale, ok=error is None, error=error,
                    phase=phase)
        rows.append((k, latency * scale, error is None, answer))
        k += 1
    return rows


def timed_setups(setup, seed: int, gauge):
    """One window of set-ups; returns the last workload and every time, as
    measured and at reference speed."""
    wall, times = [], []
    while len(wall) < SETUP_WINDOW_RUNS or sum(wall) < SETUP_WINDOW_S:
        gauge.start()
        try:
            workload = setup(seed)
        finally:
            seconds, scale = gauge.stop()
        wall.append(seconds)
        times.append(seconds * scale)
    return workload, wall, times


def throughput(rows) -> float:
    busy = sum(r[1] for r in rows)
    return sum(1 for r in rows if r[2]) / busy if busy else 0.0


def record() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", required=True)
    args = ap.parse_args()

    events = Events()
    events.emit(ev="record", **record())
    setup = workloads.SETUPS[args.workload]
    setup(args.seed)  # warm-up: lazy imports, caches, CPU clock
    gauge = speed.Gauge()
    workload, wall, times = timed_setups(setup, args.seed, gauge)
    events.emit(ev="setup", wall=wall, times=times, inputs=workload.inputs)

    if not args.trace:
        run_loop(workload, args.seconds, events, "untraced", gauge)
        # a second window, so set-up is timed on both sides of the loop
        _, wall, times = timed_setups(setup, args.seed, gauge)
        events.emit(ev="setup", wall=wall, times=times, inputs=workload.inputs)
        events.emit(ev="done", probes=gauge.probes)
        return 0

    # the two loops share the time, so a traced run takes as long as another
    plain = run_loop(workload, args.seconds / 2, events, "untraced", gauge)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = setup(args.seed)
        traced = run_loop(workload, args.seconds / 2, events, "traced", gauge, tracer)
    finally:
        tracer.uninstall()
    # the traced loop must give exactly the untraced answers
    untraced_answers = {k: a for k, _, ok, a in plain if ok}
    for k, _, ok, answer in traced:
        if ok and k in untraced_answers and untraced_answers[k] != answer:
            events.emit(ev="mismatch", k=k, error="traced answer differs from untraced")
    overhead = throughput(plain) / throughput(traced) - 1 if throughput(traced) else 0.0
    metrics = tracer.layer_metrics(len(traced), 1, overhead)
    shares = tracer.self_time_shares()
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "self_s": shares, "spans": tracer.spans,
                   "expressions.eval_calls": dict(tracer.eval_calls)}, fh)
    events.emit(ev="layers", metrics=metrics, self_s=shares)
    events.emit(ev="done", probes=gauge.probes)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
