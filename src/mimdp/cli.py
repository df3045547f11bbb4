"""Command-line driver.

Subcommands: ``parse``, ``build``, ``transform``, ``check``, ``synthesize``,
``emit-nilp`` and ``casestudy generate|sweep``.  Exit codes: 0 success,
1 property violation or method divergence, 2 usage/input errors.  Numeric
output is deterministic: fixed orderings, floats at 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import shipyard
from .checking import (
    DEFAULT_TOL,
    ReachabilityBound,
    check_spec,
    parse_property,
)
from .models import DEFAULT_STATE_CAP, build_model, to_dot, well_defined_valuations
from .parser import ParseError, parse_file
from .program import check_program, pretty
from .synthesis import (
    MethodDisagreement,
    SynthesisQuery,
    emit_nilp,
    synthesize,
)
from .transform import transform_all, transform_probabilities, transform_rewards

SCHEMA = 1


class CliError(Exception):
    pass


def _fmt9(x: float) -> float:
    return float(format(float(x), ".9g"))


def _round_floats(obj):
    if isinstance(obj, float):
        return _fmt9(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text: str, path):
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(obj, path):
    payload = {"schema": SCHEMA}
    payload.update(obj)
    _emit(json.dumps(_round_floats(payload), indent=2) + "\n", path)


def _number(text: str, what: str) -> Fraction:
    """``text`` as an exact number; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise CliError(f"{what}: {text!r} divides by zero") from None


def _parse_valuation(text, parameters):
    """``--valuation``: name=value pairs, each name a parameter, given once."""
    if not text:
        return None
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise CliError(f"bad valuation entry {part!r}; expected name=value")
        name, value = (x.strip() for x in part.split("=", 1))
        if name not in parameters:
            raise CliError(f"unknown parameter {name!r} in --valuation")
        if name in out:
            raise CliError(f"parameter {name!r} given twice in --valuation")
        out[name] = _number(value, f"value of {name}")
    return out


def _load(path):
    try:
        return parse_file(path)
    except FileNotFoundError:
        raise CliError(f"cannot read {path}")
    except ParseError as e:
        raise CliError(f"{path}:{e}")


def _build(args, program, *, need_concrete=False):
    valuation = _parse_valuation(getattr(args, "valuation", None), program.parameters)
    model = build_model(program, valuation, state_cap=args.state_cap)
    if need_concrete and model.kind == "mimdp":
        raise CliError("model is parametric; pass --valuation to instantiate it")
    return model


# ---------------------------------------------------------------------------
# subcommands

def _cmd_parse(args) -> int:
    program = _load(args.file)
    diags = check_program(program)
    for d in diags:
        print(str(d))
    if args.emit:
        _emit(pretty(program), args.emit)
    nvars = len(program.variables())
    print(
        f"ok: {len(program.modules)} module(s), {nvars} variable(s), "
        f"{len(program.parameters)} parameter(s), "
        f"{sum(len(m.commands) for m in program.modules)} command(s)"
    )
    return 0


def _cmd_build(args) -> int:
    program = _load(args.file)
    model = _build(args, program)
    if args.dot:
        _emit(to_dot(model), args.dot)
    info = {
        "kind": model.kind,
        "states": model.num_states,
        "transitions": model.num_transitions,
        "initial": model.initial,
        "labels": {k: len(v) for k, v in sorted(model.labels.items())},
    }
    if model.kind == "mimdp" and args.valuations:
        info["well_defined_valuations"] = len(well_defined_valuations(model))
        info["raw_valuations"] = _raw_count(model)
    _emit_json(info, args.output)
    return 0


def _raw_count(model) -> int:
    n = 1
    for values in model.parameters.values():
        n *= len(values)
    return n


def _cmd_transform(args) -> int:
    program = _load(args.file)
    if args.stage == "rewards":
        out, report = transform_rewards(program)
    elif args.stage == "probs":
        out, report = transform_probabilities(program)
    elif args.stage in ("control", "all"):
        out, report = transform_all(program)
    else:  # pragma: no cover
        raise CliError(f"unknown stage {args.stage}")
    _emit(pretty(out), args.output)
    if args.report:
        _emit_json(report.to_json_dict(), args.report)
    return 0


def _cmd_check(args) -> int:
    program = _load(args.file)
    spec = parse_property(args.prop)
    model = _build(args, program, need_concrete=True)
    verdict, value = check_spec(model, spec, existential=args.existential, tol=args.tol)
    result = {"property": args.prop, "value": _fmt9(value)}
    if verdict is not None:
        result["satisfied"] = verdict
    _emit_json(result, args.output)
    if verdict is False:
        return 1
    return 0


def _cmd_synthesize(args) -> int:
    program = _load(args.file)
    spec = parse_property(args.phi)
    if not isinstance(spec, ReachabilityBound):
        raise CliError('synthesis needs a bounded property like P<=0.2 [F "target"]')
    method = {"enum": "enumerate", "transformed": "transformed", "both": "both"}[args.method]
    query = SynthesisQuery(spec.target, spec.bound, args.goal, method)
    try:
        results = synthesize(program, query)
    except MethodDisagreement as e:
        print(f"method divergence: {e}", file=sys.stderr)
        return 1
    payload = {"query": {"phi": args.phi, "goal": args.goal, "method": method}}
    payload["results"] = [r.to_json_dict() for r in results]
    _emit_json(payload, args.output)
    return 0


def _cmd_emit_nilp(args) -> int:
    program = _load(args.file)
    spec = parse_property(args.phi)
    if not isinstance(spec, ReachabilityBound):
        raise CliError('the encoding needs a bounded property like P<=0.2 [F "target"]')
    query = SynthesisQuery(spec.target, spec.bound, args.goal, "enumerate")
    _emit(emit_nilp(program, query), args.output)
    return 0


_EO_BY_NAME = {e.label: e for e in shipyard.EoSensor}
_GRADE_BY_NAME = {g.label: g for g in shipyard.SensorGrade}


def _shipyard_config(args) -> shipyard.ShipyardConfig:
    return shipyard.ShipyardConfig(
        eo=_EO_BY_NAME[args.eo],
        altitude_delta=args.dalt,
        grades=_GRADE_BY_NAME[args.grade],
        false_positive=_number(args.fp, "--fp"),
        missions=args.missions,
    )


def _cmd_casestudy(args) -> int:
    cfg = _shipyard_config(args)
    if args.action == "generate":
        text = shipyard.generate_program(
            cfg, parametric=not args.concrete, per_sensor_grades=args.per_sensor
        )
        _emit(text, args.output)
        if not args.concrete:
            print(
                f"configurations: {shipyard.configuration_count(args.per_sensor)}",
                file=sys.stderr,
            )
        return 0
    if args.action == "sweep":
        curve = shipyard.recognition_failure_curve(cfg, args.missions)
        lines = ["mission,failure_probability"]
        for k, v in curve:
            lines.append(f"{k},{_fmt9(v)}")
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    raise CliError(f"unknown casestudy action {args.action!r}")


# ---------------------------------------------------------------------------
# argument wiring: each subcommand takes only the options it reads

def _tolerance(text: str) -> float:
    """``--tol``: a finite number of at least 0; argparse names the option
    in its error and exits with code 2."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _add_state_cap(p):
    p.add_argument(
        "--state-cap",
        type=int,
        default=DEFAULT_STATE_CAP,
        help="abort exploration beyond this many states",
    )


def _add_output(p):
    p.add_argument("-o", "--output", default=None, help="write output here instead of stdout")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mimdp",
        description="guarded-command Markov models with finite configuration sets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and validate a model file")
    p.add_argument("file")
    p.add_argument("--emit", default=None, help="pretty-print the program to this path")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("build", help="explore the explicit state space")
    p.add_argument("file")
    p.add_argument("--valuation", default=None, help="p=0.4,q=0.3 ... instantiate")
    p.add_argument("--dot", default=None, help="write a DOT rendering here")
    p.add_argument("--valuations", action="store_true", help="count well-defined valuations")
    _add_state_cap(p)
    _add_output(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("transform", help="apply the program transformations")
    p.add_argument("file")
    p.add_argument("--stage", choices=("rewards", "probs", "control", "all"), default="all")
    p.add_argument("--report", default=None, help="write the fresh-name report as JSON")
    _add_output(p)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("check", help="model-check a property")
    p.add_argument("file")
    p.add_argument("--prop", required=True, help='e.g. Pmax=? [F "target"]')
    p.add_argument("--valuation", default=None)
    p.add_argument(
        "--existential",
        action="store_true",
        help="check bounded properties against the minimizing strategy",
    )
    p.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL,
        help="value-iteration residual tolerance, a finite number >= 0 "
             "(MDPs: a region with a cycle, and every region of a cost-bounded "
             "query; a chain and the other MDP regions are solved exactly)"
    )
    _add_state_cap(p)
    _add_output(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("synthesize", help="solve the configuration synthesis problem")
    p.add_argument("file")
    p.add_argument("--phi", required=True, help='bounded property, e.g. P<=0.2 [F "bad"]')
    p.add_argument("--goal", required=True, help="label of the cost goal set")
    p.add_argument("--method", choices=("enum", "transformed", "both"), default="both")
    _add_output(p)
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("emit-nilp", help="emit the nonlinear integer encoding")
    p.add_argument("file")
    p.add_argument("--phi", required=True)
    p.add_argument("--goal", required=True)
    _add_output(p)
    p.set_defaults(fn=_cmd_emit_nilp)

    p = sub.add_parser("casestudy", help="shipyard surveillance model generator")
    p.add_argument("action", choices=("generate", "sweep"))
    p.add_argument("--missions", type=int, default=5)
    p.add_argument("--eo", choices=sorted(_EO_BY_NAME), default="480p")
    p.add_argument("--grade", choices=sorted(_GRADE_BY_NAME), default="low")
    p.add_argument("--fp", default="0.2")
    p.add_argument("--dalt", type=int, default=0)
    p.add_argument("--per-sensor", action="store_true", help="free per-sensor grades")
    p.add_argument("--concrete", action="store_true", help="inline the configuration")
    _add_output(p)
    p.set_defaults(fn=_cmd_casestudy)

    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
