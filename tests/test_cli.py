import json

from mimdp.cli import main
from test_models import ZERO_BRANCHES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ok(capsys, models_dir):
    code, out, _ = run(capsys, "parse", str(models_dir / "two_stage.mgcl"))
    assert code == 0
    assert "4 parameter(s)" in out


def test_parse_reports_errors(capsys, tmp_path):
    bad = tmp_path / "bad.mgcl"
    bad.write_text("module m x : [0..1 init 0; endmodule")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert "expected" in err


def test_parse_reports_where_a_fold_fails(capsys, tmp_path):
    src = tmp_path / "fold.mgcl"
    src.write_text(
        "module m\n  s : [0..1] init 0;\n"
        "  [] s=0 -> (1+true):(s'=1) + 0:(s'=0);\n  [] s=1 -> true;\nendmodule\n"
    )
    code, out, err = run(capsys, "parse", str(src))
    assert (code, out) == (2, "")
    assert err == f"error: {src}:3:15: expected a number, got a boolean in 1 + true\n"


def test_parse_refuses_a_constant_probability_row_that_sums_past_one(capsys, tmp_path):
    src = tmp_path / "constant.mgcl"
    src.write_text(
        "const h = 0.6;\nmodule m\n  s : [0..1] init 0;\n"
        "  [] s=0 -> h:(s'=1) + h:(s'=0);\n  [] s=1 -> true;\nendmodule\n"
    )
    code, out, err = run(capsys, "parse", str(src))
    assert code == 2 and out == ""
    assert "sum to 1.2, not 1" in err


def test_parse_refuses_a_constant_probability_that_divides_by_zero(capsys, tmp_path):
    src = tmp_path / "constant.mgcl"
    src.write_text(
        "const c = 1;\nmodule m\n  s : [0..1] init 0;\n"
        "  [] s=0 -> 1/(c-1):(s'=1) + (1-1/(c-1)):(s'=0);\n  [] s=1 -> true;\nendmodule\n"
    )
    code, out, err = run(capsys, "parse", str(src))
    assert code == 2 and out == ""
    assert "division by zero in 1 / (c - 1) in probability in command 1 of module 'm'" in err


def test_build_json(capsys, models_dir, tmp_path):
    code, out, _ = run(capsys, "build", str(models_dir / "die.mgcl"), "--valuations")
    assert code == 0
    info = json.loads(out)
    assert info["schema"] == 1
    assert (info["states"], info["transitions"]) == (13, 20)
    assert info["well_defined_valuations"] == 3
    # zero-probability branches are transitions, of the family and of the
    # instance where a parametric entry is 0
    path = tmp_path / "zero.mgcl"
    path.write_text(ZERO_BRANCHES, encoding="utf-8")
    for extra in ((), ("--valuation", "p=0")):
        code, out, _ = run(capsys, "build", str(path), *extra)
        assert code == 0
        assert (json.loads(out)["states"], json.loads(out)["transitions"]) == (3, 5)


def test_build_dot(capsys, models_dir, tmp_path):
    dot = tmp_path / "model.dot"
    code, _, _ = run(capsys, "build", str(models_dir / "two_stage.mgcl"), "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_check_value(capsys, models_dir):
    code, out, _ = run(
        capsys,
        "check",
        str(models_dir / "two_stage.mgcl"),
        "--valuation",
        "p=0.6,q=0.3,r=0.4,s=0.7",
        "--prop",
        'P=? [F "s2"]',
    )
    assert code == 0
    assert json.loads(out)["value"] == 0.42


def test_check_ill_defined_valuation_names_the_state(capsys, models_dir):
    code, out, err = run(
        capsys,
        "check",
        str(models_dir / "two_stage.mgcl"),
        "--valuation",
        "p=0.4,q=0.3,r=0.4,s=0.7",
        "--prop",
        'P=? [F "s2"]',
    )
    assert code == 2 and out == ""
    assert err == (
        "error: well-definedness violation at state (loc=0), action tau: "
        "probabilities sum to 0.8\n"
    )


def test_check_negative_cost_valuation_gives_the_cost(capsys, tmp_path):
    model = tmp_path / "negative.mgcl"
    model.write_text(
        "param p in {0.5, 2};\n"
        "module m\n  s : [0..1] init 0;\n  [] s=0 -> (s'=1);\n  [] s=1 -> true;\nendmodule\n"
        "rewards\n  s=0 : 1 - p;\nendrewards\n"
        'label "done" = s=1;\n'
    )
    code, out, err = run(capsys, "check", str(model), "--valuation", "p=2", "--prop", 'P=? [F "done"]')
    assert code == 2 and out == ""
    assert err == "error: negative cost -1 at state (s=0)\n"


def test_check_refuses_a_budget_product_over_the_state_cap(capsys, tmp_path):
    model = tmp_path / "two.mgcl"
    model.write_text(
        "module m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\n  [] x=1 -> true;\nendmodule\n"
        "rewards\n  x=0 : 1;\nendrewards\n"
        'label "t" = x=1;\n'
    )
    code, out, err = run(capsys, "check", str(model), "--prop", 'P=? [F{C<10000000} "t"]')
    assert code == 2 and out == ""
    assert err == (
        "error: cost-bounded product of 20000002 states (2 states x 10000001 budgets) "
        "exceeds the state cap of 10000000 states\n"
    )


def test_check_violated_property_exits_one(capsys, models_dir):
    code, out, _ = run(
        capsys,
        "check",
        str(models_dir / "two_stage.mgcl"),
        "--valuation",
        "p=0.6,q=0.3,r=0.4,s=0.7",
        "--prop",
        'P<=0.3 [F "s2"]',
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["satisfied"] is False and payload["value"] == 0.42


def test_check_needs_valuation_on_parametric_models(capsys, models_dir):
    code, _, err = run(
        capsys, "check", str(models_dir / "two_stage.mgcl"), "--prop", 'P=? [F "s2"]'
    )
    assert code == 2
    assert "valuation" in err


def test_synthesize_both_agree(capsys, models_dir):
    code, out, _ = run(
        capsys,
        "synthesize",
        str(models_dir / "two_stage.mgcl"),
        "--phi",
        'P<=0.2 [F "s2"]',
        "--goal",
        "absorb",
        "--method",
        "both",
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["method"] for r in payload["results"]] == ["enumerate", "transformed"]
    for r in payload["results"]:
        assert r["feasible"] is True
        assert abs(r["ec"] - 1.42) < 1e-6
        assert abs(r["pr"] - 0.12) < 1e-6
        assert r["valuation"] == {"p": "0.4", "q": "0.7", "r": "0.6", "s": "0.3"}


def test_synthesize_output_is_byte_identical_across_runs(capsys, models_dir):
    args = (
        "synthesize",
        str(models_dir / "two_stage.mgcl"),
        "--phi",
        'P<=0.2 [F "s2"]',
        "--goal",
        "absorb",
        "--method",
        "both",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_transform_stage_output_reparses(capsys, models_dir, tmp_path):
    out_path = tmp_path / "die_t.mgcl"
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "transform",
        str(models_dir / "die.mgcl"),
        "--stage",
        "probs",
        "-o",
        str(out_path),
        "--report",
        str(report_path),
    )
    assert code == 0
    from mimdp.parser import parse_file

    prog = parse_file(out_path)
    assert len(prog.single_module().commands) == 21 + 1
    report = json.loads(report_path.read_text())
    assert report["schema"] == 1
    assert len(report["fresh_actions"]) == 21


def test_emit_nilp_file(capsys, models_dir, tmp_path):
    out_path = tmp_path / "enc.nilp"
    code, _, _ = run(
        capsys,
        "emit-nilp",
        str(models_dir / "two_stage.mgcl"),
        "--phi",
        'P<=0.2 [F "s2"]',
        "--goal",
        "absorb",
        "-o",
        str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert "MINIMIZE" in text and "BINARY" in text


def test_casestudy_generate_and_sweep(capsys, tmp_path):
    model_path = tmp_path / "ship.mgcl"
    code, _, err = run(
        capsys, "casestudy", "generate", "--missions", "2", "-o", str(model_path)
    )
    assert code == 0
    assert "configurations: 360" in err
    from mimdp.parser import parse_file

    assert len(parse_file(model_path).parameters) == 4

    code, out, _ = run(capsys, "casestudy", "sweep", "--missions", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mission,failure_probability"
    assert len(lines) == 5
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert values == sorted(values)


def test_unknown_flag_exits_two(capsys, models_dir):
    code, _, _ = run(capsys, "parse", str(models_dir / "die.mgcl"), "--bogus")
    assert code == 2
    # the removed ``bench`` subcommand is a usage error like any unknown one
    code, out, err = run(capsys, "bench", str(models_dir))
    assert code == 2 and out == "" and "invalid choice: 'bench'" in err


def _assert_usage_error(capsys, *argv):
    """A zero denominator on the command line is a usage error: exit code
    2 and one line on stderr, not a traceback."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" divides by zero\n")
    assert err.count("\n") == 1


def test_build_refuses_a_valuation_with_a_zero_denominator(capsys, models_dir):
    _assert_usage_error(capsys, "build", str(models_dir / "die.mgcl"), "--valuation", "p=1/0")


def test_check_refuses_a_valuation_with_a_zero_denominator(capsys, models_dir):
    _assert_usage_error(capsys, "check", str(models_dir / "die.mgcl"),
                        "--prop", 'P=? [F "six"]', "--valuation", "p=3/0")


def test_casestudy_refuses_a_false_positive_rate_with_a_zero_denominator(capsys):
    _assert_usage_error(capsys, "casestudy", "generate", "--fp", "1/0")


def _refused(capsys, *argv) -> str:
    """A usage error: exit code 2, no output and one line on stderr."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


# reaching "t" has probability 0.1 under action a and 0.5 under b
TWO_CHOICES = """
module m
  s : [0..2] init 0;
  [a] s=0 -> 0.1:(s'=1) + 0.9:(s'=2);
  [b] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
  [] s>0 -> true;
endmodule
label "t" = s=1;
"""


def test_check_refuses_a_bound_with_a_direction(capsys, tmp_path):
    path = tmp_path / "two_choices.mgcl"
    path.write_text(TWO_CHOICES, encoding="utf-8")
    for head in ("Pmin", "Pmax"):
        err = _refused(capsys, "check", str(path), "--prop", f'{head}<=0.3 [F "t"]')
        assert f"not {head}" in err and "--existential" in err
    # the bound without a direction, read under every strategy and under some
    code, out, _ = run(capsys, "check", str(path), "--prop", 'P<=0.3 [F "t"]')
    assert code == 1 and json.loads(out)["value"] == 0.5
    code, out, _ = run(capsys, "check", str(path), "--prop", 'P<=0.3 [F "t"]', "--existential")
    assert code == 0 and json.loads(out)["value"] == 0.1


def test_synthesize_refuses_a_bound_with_a_direction(capsys, models_dir):
    err = _refused(capsys, "synthesize", str(models_dir / "two_stage.mgcl"),
                   "--phi", 'Pmin<=0.2 [F "s2"]', "--goal", "absorb", "--method", "enum")
    assert "not Pmin" in err


def test_build_refuses_an_unknown_or_repeated_valuation_name(capsys, models_dir):
    die = str(models_dir / "die.mgcl")
    err = _refused(capsys, "build", die, "--valuation", "p=0.5,zz=3")
    assert err == "error: unknown parameter 'zz' in --valuation\n"
    err = _refused(capsys, "build", die, "--valuation", "p=0.5,p=0.3")
    assert err == "error: parameter 'p' given twice in --valuation\n"


def test_check_refuses_an_unknown_or_repeated_valuation_name(capsys, models_dir):
    check = ("check", str(models_dir / "two_stage.mgcl"), "--prop", 'P=? [F "s2"]')
    err = _refused(capsys, *check, "--valuation", "p=0.6,q=0.3,r=0.4,s=0.7,t=1")
    assert err == "error: unknown parameter 't' in --valuation\n"
    err = _refused(capsys, *check, "--valuation", "p=0.6,q=0.3,r=0.4,s=0.7,q=0.3")
    assert err == "error: parameter 'q' given twice in --valuation\n"


def test_unreadable_input_exits_two(capsys):
    code, _, err = run(capsys, "parse", "no_such_file.mgcl")
    assert code == 2
    assert "cannot read" in err


def test_a_subcommand_refuses_an_option_it_does_not_read(capsys, models_dir):
    path = str(models_dir / "two_stage.mgcl")
    synthesize = ("synthesize", path, "--phi", 'P<=0.2 [F "s2"]', "--goal", "absorb")
    for extra in (("--tol", "1e-3"), ("--state-cap", "10")):
        code, out, err = run(capsys, *synthesize, *extra)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {extra[0]}" in err
    code, _, err = run(capsys, "parse", path, "-o", "out.mgcl")
    assert code == 2 and "unrecognized arguments: -o" in err


SLOW_CHAIN = """\
module m
  s : [0..2] init 0;
  [] s=0 -> 0.9997:(s'=0) + 0.00015:(s'=1) + 0.00015:(s'=2);
  [] s>0 -> true;
endmodule
rewards
  s=0 : 1;
endrewards
label "t" = s=1;
label "g" = s>0;
"""


def test_check_prints_exact_chain_values(capsys, tmp_path):
    # a chain is solved, not iterated: value iteration would stop short of
    # these on the slow self-loop, and the tolerance does not apply
    src = tmp_path / "slow.mgcl"
    src.write_text(SLOW_CHAIN)
    for prop, want in (('Pmax=? [F "t"]', 0.5), ('ECmin=? [F "g"]', 3333.33333)):
        for tol in ("1e-8", "1e-2"):
            code, out, _ = run(capsys, "check", str(src), "--prop", prop, "--tol", tol)
            assert code == 0 and json.loads(out)["value"] == want


TOL_MDP = """\
module m
  s : [0..5] init 0;
  [a] s=0 -> (s'=1);
  [b] s=0 -> 0.5:(s'=4) + 0.5:(s'=5);
  [] s=1 -> (s'=2);
  [] s=2 -> (s'=3);
  [] s=3 -> 0.9:(s'=4) + 0.1:(s'=5);
  [] s>=4 -> true;
endmodule
label "t" = s=4;
"""


def test_check_refuses_a_tolerance_that_is_not_a_finite_nonnegative_number(capsys, tmp_path):
    # under --tol nan or inf value iteration stopped after one sweep and
    # printed 0.5; under --tol -1 it ran to its sweep limit
    src = tmp_path / "tol.mgcl"
    src.write_text(TOL_MDP)
    prop = ("--prop", 'Pmax=? [F "t"]')
    for tol in ("nan", "inf", "-inf", "-1", "1e-8x"):
        code, out, err = run(capsys, "check", str(src), *prop, f"--tol={tol}")
        assert (code, out) == (2, "")
        assert f"argument --tol: must be a finite number >= 0, got '{tol}'" in err
    # refused before the file is read
    code, _, err = run(capsys, "check", str(tmp_path / "missing.mgcl"), *prop, "--tol", "nan")
    assert code == 2 and "argument --tol" in err and "cannot read" not in err
    for tol in ("0", "1e-8"):
        code, out, _ = run(capsys, "check", str(src), *prop, "--tol", tol)
        assert code == 0 and json.loads(out)["value"] == 0.9


def test_build_refuses_a_state_cap_below_one(capsys, models_dir):
    # such a cap built the model's initial state alone and exited 0
    for cap in ("0", "-3"):
        code, out, err = run(capsys, "build", str(models_dir / "die.mgcl"), f"--state-cap={cap}")
        assert (code, out) == (2, "")
        assert err == f"error: state cap must be at least 1, got {cap}\n"


def test_check_reads_its_tolerance_and_state_cap(capsys, models_dir, tmp_path):
    # the tolerance of value iteration, which runs on the cyclic part of an
    # MDP: the controlled die, whose coin flips can repeat, stops earlier
    # under the looser tolerance; the controlled retry channel, where the
    # maximising strategy delivers almost surely, has no cycle among its
    # free states and is solved exactly in one pass at either tolerance
    values = {}
    for name, prop in (("die", 'Pmax=? [F "one"]'), ("retry_channel", 'Pmax=? [F "delivered"]')):
        controlled = tmp_path / f"{name}.controlled.mgcl"
        code, _, _ = run(capsys, "transform", str(models_dir / f"{name}.mgcl"),
                         "-o", str(controlled))
        assert code == 0
        for tol in ("1e-8", "1e-3"):
            code, out, _ = run(capsys, "check", str(controlled), "--prop", prop, "--tol", tol)
            assert code == 0
            values[name, tol] = json.loads(out)["value"]
    assert (values["die", "1e-8"], values["die", "1e-3"]) == (0.186075949, 0.185999954)
    assert values["retry_channel", "1e-8"] == values["retry_channel", "1e-3"] == 1.0
    check = ("check", str(models_dir / "retry_channel.mgcl"), "--valuation", "loss=0.4",
             "--prop", 'ECmin=? [F "stopped"]')
    code, _, err = run(capsys, *check, "--state-cap", "10")
    assert code == 2 and "state cap of 10 states exceeded" in err
