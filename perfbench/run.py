"""The repository benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload shipyard-family --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every gated workload in turn

The workload runs in a child process (``worker.py``), so its peak memory is
its own and a crash, an out-of-memory kill or an operation over its time
limit becomes a failed operation, which ends that workload's run, instead
of ending the harness.  The last line of standard output is one JSON
object (with ``all``, one such line per workload closes the output): with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
ones.  Everything else goes to the lines before it and to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import tracing  # noqa: E402  (the per-layer metric names and units)

# the gated workloads, in BENCHMARK.json's order
WORKLOADS = ("shipyard-family", "retry-check", "random-synth")
# runnable by name, not gated: one operation takes 12-21 s, too long for
# several samples in a run
EXTRA_WORKLOADS = ("shipyard-transformed",)
# a wall-clock limit per operation, well above its time at the seed commit
OP_TIMEOUT_S = {
    "shipyard-transformed": 120.0,
    "shipyard-family": 60.0,
    "retry-check": 60.0,
    "random-synth": 30.0,
}
SETUP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # one workload's run, its child included
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    """The worker died outside an operation: no result can be given."""



def source_record() -> dict:
    """Commit, source digest and ``src.lines`` of the checkout."""
    files = sorted((SRC / "mimdp").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": _git_head(), "src_sha256": digest.hexdigest(), "src.lines": lines}


def _git_head():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _die_with_parent():
    # the child gets SIGKILL when this process ends, however it ends
    try:
        import ctypes

        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Child:
    """A worker process and the JSON-line events it sends."""

    def __init__(self, argv, env):
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, preexec_fn=_die_with_parent
        )
        self.fd = self.proc.stdout.fileno()
        self.buf = b""

    def next_event(self, deadline: float):
        """The next event, None at end of stream, or 'timeout'."""
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                return "timeout"
            ready, _, _ = select.select([self.fd], [], [], left)
            if not ready:
                return "timeout"
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def finish(self, kill: bool) -> int:
        """Wait for the child (killing it first if asked); returns its exit
        code and keeps its peak resident set in ``maxrss_kb``."""
        if kill:
            self.proc.kill()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        return self.proc.returncode


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload to completion in a child process; returns the raw
    record (setup times, per-op rows, layer metrics, memory)."""
    limit = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_ENV:
        env.setdefault(var, "1")
    OUT.mkdir(exist_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
            "--trace-out", str(OUT / f"trace-{name}-seed{seed}.json")]
    child = Child(argv, env)
    ops = {}  # (phase, k) -> row
    state = {"setup": [], "setup_wall": [], "record": None, "layers": None,
             "inputs": None, "probes": []}
    in_flight = None
    deadline = min(limit, time.monotonic() + SETUP_TIMEOUT_S)
    while True:
        ev = child.next_event(deadline)
        if ev == "timeout" or ev is None:
            code = child.finish(kill=ev == "timeout")
            if in_flight is None:
                where = "after its last" if ops else "before its first"
                raise WorkerFailed(f"{name}: worker ended {where} operation (exit {code})")
            if ev == "timeout":
                cause = "timeout"
            elif code < 0:
                cause = f"killed by signal {-code}"
            else:
                cause = f"worker exited with code {code}"
            in_flight.update(ok=False, error=cause, lat=time.monotonic() - in_flight.pop("t0"))
            break
        kind = ev["ev"]
        if kind == "record":
            state["record"] = {k: v for k, v in ev.items() if k != "ev"}
        elif kind == "setup":
            state["setup"] += ev["times"]
            state["setup_wall"] += ev["wall"]
            state["inputs"] = ev["inputs"]
        elif kind == "begin":
            in_flight = {"k": ev["k"], "op": ev["op"], "phase": ev["phase"],
                         "t0": time.monotonic()}
            ops[(ev["phase"], ev["k"])] = in_flight
            deadline = min(limit, time.monotonic() + OP_TIMEOUT_S[name])
        elif kind == "end":
            in_flight.pop("t0")
            in_flight.update(lat=ev["lat"], scale=ev["scale"], ok=ev["ok"], error=ev["error"])
            in_flight = None
            deadline = limit
        elif kind == "mismatch":
            ops[("traced", ev["k"])].update(ok=False, error=ev["error"])
        elif kind == "layers":
            state["layers"] = ev
        elif kind == "done":
            state["probes"] = ev["probes"]
            child.finish(kill=False)
            break
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "ops": sorted(ops.values(), key=lambda r: (r["phase"], r["k"])),
            "peak_rss_kb": child.maxrss_kb,
            "blas_threads": {var: env[var] for var in BLAS_ENV}, **state}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(raw: dict):
    """(gated metrics, printed-only extras), each name -> (value, unit).
    Times are at reference speed (``speed.py``); the ``wall_`` extras are
    the same figures as the clock read them."""
    rows = [r for r in raw["ops"] if r["phase"] == "untraced"]
    # a killed or timed-out operation has no probe after it
    timed = [r for r in rows if "scale" in r]
    good = sorted(r["lat"] * r["scale"] for r in timed if r["ok"])
    busy = sum(r["lat"] * r["scale"] for r in timed)
    wall = sorted(r["lat"] for r in timed if r["ok"])
    wall_busy = sum(r["lat"] for r in timed)
    metrics = {
        "setup_s": (statistics.median(raw["setup"]), "s"),
        "ops_per_s": (len(good) / busy if busy else 0.0, "1/s"),
        "op_p50_ms": (1000 * statistics.median(good) if good else 0.0, "ms"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
    }
    extra = {"failed_frac": ((len(rows) - len(good)) / len(rows) if rows else 1.0, "ratio"),
             "samples": (len(good), "count")}
    if len(good) >= 100:
        extra["op_p90_ms"] = (1000 * percentile(good, 0.9), "ms")
    extra.update({
        "wall_setup_s": (statistics.median(raw["setup_wall"]), "s"),
        "wall_ops_per_s": (len(wall) / wall_busy if wall_busy else 0.0, "1/s"),
        "wall_op_p50_ms": (1000 * statistics.median(wall) if wall else 0.0, "ms"),
    })
    if raw["probes"]:
        extra["probe_ms"] = (1000 * statistics.median(raw["probes"]), "ms")
    return metrics, extra


def report(raw: dict, source: dict) -> dict:
    name = raw["workload"]
    rows = raw["ops"]
    failed = [r for r in rows if not r["ok"]]
    for r in failed:
        print(f"FAILED {name} op {r['k']} ({r['phase']}) {r['op']}: {r['error']}")
    record = {"workload": name, "seed": raw["seed"], "seconds": raw["seconds"],
              "trace": int(raw["trace"]), **source, **(raw["record"] or {}),
              "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
              "blas_threads": raw["blas_threads"], "inputs": raw["inputs"]}
    print("record " + json.dumps(record))
    if raw["trace"]:
        layers = raw["layers"] or {}
        values = layers.get("metrics") or {}
        # a run killed before the end has no layer numbers: report zeros
        metrics = {k: {"value": values.get(k, 0.0), "unit": unit}
                   for k, (unit, _) in tracing.METRICS.items()}
        shares = layers.get("self_s") or {}
        total = sum(shares.values())
        for layer, own in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"self {layer:24s} {own:10.4f} s  {100 * own / total if total else 0:5.1f}%")
    else:
        main, extra = end_to_end(raw)
        for k, (v, unit) in {**main, **extra}.items():
            print(f"{name:22s} {k:12s} {v:14.6f} {unit}")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in main.items()}
    result = {"correct": not failed and bool(rows), "attempted": len(rows),
              "failed": len(failed), "metrics": metrics}
    with open(OUT / f"run-{name}-seed{raw['seed']}-trace{int(raw['trace'])}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "ops": rows,
                   "setup_s": raw["setup"], "setup_wall_s": raw["setup_wall"],
                   "probes_s": raw["probes"]}, fh, indent=1)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "mimdp" / "__init__.py").is_file():
        print(f"error: no mimdp sources under {SRC}", file=sys.stderr)
        return 2
    source = source_record()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [report(run_workload(n, args.seed, args.seconds, bool(args.trace)), source)
                   for n in names]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
