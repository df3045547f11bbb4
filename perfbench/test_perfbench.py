"""Self-tests of the benchmark itself (not part of the repository suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import numpy
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from mimdp import synthesis  # noqa: E402
from mimdp.program import pretty  # noqa: E402
from mimdp.synthesis import SynthesisResult  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generators_are_deterministic():
    a = [pretty(p) + str(q) for p, q in gen.random_corpus(7, 12)]
    b = [pretty(p) + str(q) for p, q in gen.random_corpus(7, 12)]
    assert a == b
    assert a != [pretty(p) + str(q) for p, q in gen.random_corpus(8, 12)]
    assert workloads.retry_text() == workloads.retry_text()
    for per_sensor in (False, True):
        assert workloads.shipyard_text(per_sensor) == workloads.shipyard_text(per_sensor)


def test_seed_draws_the_same_inputs():
    for setup in (workloads.shipyard_transformed, workloads.shipyard_family):
        assert setup(3).inputs == setup(3).inputs
    assert workloads.retry_check(5, retries=30).inputs == workloads.retry_check(5, retries=30).inputs


def _result_from(row, feasible=True):
    valuation, ec, pr = row
    return SynthesisResult("enumerate", feasible, dict(valuation), None, ec, pr)


def test_reference_check_rejects_a_perturbed_answer():
    table = oracle.load_table("shipyard-uniform", workloads.shipyard_text(False))
    lam = 0.03
    best = oracle.optimum(table, lam)
    oracle.check_answer(_result_from(best), table, lam)
    valuation, ec, pr = best
    other = next(r for r in table if r[0] != valuation)[0]
    for bad in (
        _result_from((valuation, ec + 1e-4, pr)),
        _result_from((valuation, ec, pr + 1e-4)),
        _result_from((other, ec, pr)),
        _result_from(best, feasible=False),
    ):
        with pytest.raises(oracle.Mismatch):
            oracle.check_answer(bad, table, lam)


def test_table_check_rejects_a_perturbed_row():
    table = oracle.load_table("shipyard-uniform", workloads.shipyard_text(False))
    lam = 0.01
    entries = [synthesis.TableEntry(dict(v), ec, pr, oracle.feasible(ec, pr, lam))
               for v, ec, pr in table]
    good = SynthesisResult("enumerate", True, None, None, 0.0, None, entries)
    oracle.check_table(good, table, lam)
    perturbed = [
        entries[:5] + [dataclasses.replace(entries[5], expected_cost=entries[5].expected_cost + 1e-3)] + entries[6:],
        entries[:5] + [dataclasses.replace(entries[5], feasible=not entries[5].feasible)] + entries[6:],
        [entries[1], entries[0]] + entries[2:],
        entries[:-1],
    ]
    for rows in perturbed:
        with pytest.raises(oracle.Mismatch):
            oracle.check_table(dataclasses.replace(good, table=rows), table, lam)


def test_closed_forms_check_the_checker_and_reject_a_perturbed_value():
    workload = workloads.retry_check(2, retries=30)
    for op in workload.ops:
        value, [(model, values)] = out = op.run()
        op.check(out)
        with pytest.raises(oracle.Mismatch):
            op.check((value * (1 + 1e-3) + 1e-6, [(model, values)]))
        with pytest.raises(oracle.Mismatch):
            op.check((value, [(model, values * (1 + 1e-3) + 1e-6)]))


def _op(workload, prefix):
    return next(op for op in workload.ops if op.name.startswith(prefix))


def test_retry_checks_reject_zero_and_the_unbounded_answer_at_full_size():
    # loss 1/10 at the workload's retries: loss^R at the initial state is so
    # small that any absolute tolerance would accept 0, and 1 - loss^19
    # rounds to 1
    workload = next(w for w in map(workloads.retry_check, range(1, 50))
                    if w.inputs["loss"] == "1/10")
    for prefix in ("chain Pmax", "mdp Pmax"):
        op = _op(workload, prefix)
        value, [(model, values)] = out = op.run()
        op.check(out)
        with pytest.raises(oracle.Mismatch):
            op.check((0.0, [(model, numpy.zeros_like(values))]))

    op = _op(workload, "chain P=? [F{C<20}")
    value, [(product, values)] = out = op.run()
    op.check(out)
    assert value == 1.0  # so only the per-state values can tell a bound was ignored
    index = {name: i for i, name in enumerate(product.var_names)}
    unbounded = numpy.array([1.0 if s[index["done"]] else 1 - 0.1 ** (workloads.RETRY_RETRIES - s[index["n"]])
                             for s in product.states])
    with pytest.raises(oracle.Mismatch):
        op.check((1.0, [(product, unbounded)]))


def test_table_must_come_from_the_same_model():
    with pytest.raises(oracle.Mismatch):
        oracle.load_table("shipyard-uniform", workloads.shipyard_text(True))


def _bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mimdp" or name.startswith("mimdp."))
            for attr, value in vars(mod).items() if callable(value)}


def test_traced_run_restores_every_name_and_keeps_the_answers():
    small = [workloads.random_synth(11, count=8), workloads.retry_check(4, retries=30)]
    untraced = [[op.answer(op.run()) for op in w.ops] for w in small]
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the names synthesis imported are the patched ones too
        assert synthesis.build_model is not before[("mimdp.models", "build_model")]
        assert synthesis.solve_lp is not before[("mimdp.lp", "solve_lp")]
        traced = []
        for w in small:
            answers = []
            for k, op in enumerate(w.ops):
                tracer.op = k
                root = tracer.open(tracing.OP_LAYER)
                answers.append(op.answer(op.run()))
                tracer.close(root)
            traced.append(answers)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert traced == untraced
    metrics = tracer.layer_metrics(ops=sum(len(w.ops) for w in small), setups=1,
                                   overhead_frac=0.0)
    assert metrics["lp.calls"] > 0 and metrics["checking.reach.calls"] > 0
    assert metrics["expressions.eval_calls"] > 0
    assert all(t >= -1e-9 for t in tracer.self_times())


def test_an_operation_over_its_limit_is_a_failed_timeout(monkeypatch):
    monkeypatch.setitem(run.OP_TIMEOUT_S, "retry-check", 0.05)
    raw = run.run_workload("retry-check", 1, 0.01, trace=False)
    assert raw["ops"] and all(not r["ok"] for r in raw["ops"])
    assert raw["ops"][0]["error"] == "timeout"


def test_a_killed_worker_fails_its_operation_and_ends_the_run(monkeypatch):
    class KillFirstOperation(run.Child):
        def next_event(self, deadline):
            ev = super().next_event(deadline)
            if isinstance(ev, dict) and ev["ev"] == "begin":
                self.proc.kill()  # as the kernel's out-of-memory killer would
            return ev

    monkeypatch.setattr(run, "Child", KillFirstOperation)
    raw = run.run_workload("random-synth", 1, 1.0, trace=False)
    [only] = raw["ops"]
    assert (only["k"], only["ok"], only["error"]) == (0, False, "killed by signal 9")


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS + run.EXTRA_WORKLOADS) == set(workloads.SETUPS) == set(run.OP_TIMEOUT_S)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS
    assert spec["command"] == ["python3", "perfbench/run.py"]
    raw = {"ops": [{"phase": "untraced", "lat": 0.5, "scale": 1.0, "ok": True}],
           "setup": [1.0], "setup_wall": [1.0], "probes": [], "peak_rss_kb": 1024}
    metrics, _ = run.end_to_end(raw)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}


def test_times_are_brought_to_reference_speed():
    # the same work, once on a host at full speed and once at half speed
    rows = [{"phase": "untraced", "lat": lat, "scale": scale, "ok": True}
            for lat, scale in ((0.1, 1.0), (0.2, 0.5), (0.3, 1.0), (0.6, 0.5))]
    raw = {"ops": rows, "setup": [0.4], "setup_wall": [0.8], "probes": [0.0016, 0.0032],
           "peak_rss_kb": 1024}
    metrics, extra = run.end_to_end(raw)
    assert metrics["ops_per_s"][0] == pytest.approx(4 / 0.8)
    assert metrics["op_p50_ms"][0] == pytest.approx(200.0)
    assert extra["wall_ops_per_s"][0] == pytest.approx(4 / 1.2)
    assert metrics["setup_s"][0] == 0.4 and extra["wall_setup_s"][0] == 0.8


def test_speed_gauge_samples_during_work_and_takes_the_samples_out():
    gauge = speed.Gauge()
    gauge.start()
    t = time.perf_counter()
    while time.perf_counter() - t < 0.5:  # long work: sampled while it runs
        pass
    seconds, factor = gauge.stop()
    assert len(gauge.samples) >= 5  # the probe before, samples, the probe after
    assert seconds == pytest.approx(0.5 - gauge.stolen, abs=0.02)
    assert factor == pytest.approx(speed.REFERENCE_PROBE_S * len(gauge.samples)
                                   / sum(gauge.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
