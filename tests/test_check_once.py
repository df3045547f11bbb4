"""Each rewrite of ``transform`` takes only a well-formed program and marks
its output as checked, so ``build_model`` does not run ``check_program``
on it.  These tests run the check the build now skips: the rewrite of
every well-formed program below has no error diagnostic.  They also count
the checks a rewrite makes, and show that an ill-formed program is refused
with the check's diagnostics."""

import random
import warnings
from dataclasses import replace

import pytest

from generators import random_mimdp_program
from mimdp import program as program_module
from mimdp import shipyard, transform
from mimdp.parser import parse_file, parse_program
from mimdp.program import check_program, pretty
from mimdp.transform import (
    TransformError,
    TransformReport,
    add_control,
    transform_all,
    transform_probabilities,
    transform_rewards,
)


def _errors(program):
    return [d for d in check_program(program) if d.severity == "error"]


def _rewrite(program):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return transform_all(program)[0]


def test_the_rewrites_of_random_programs_check_clean():
    # the transform accepts every program of the generator
    rng = random.Random(13)
    for _ in range(100):
        program, _ = random_mimdp_program(rng, max_states=rng.choice((6, 14)))
        assert _errors(program) == []
        assert _errors(_rewrite(program)) == []


def test_the_rewrites_of_the_bundled_models_check_clean(models_dir):
    paths = sorted(models_dir.glob("*.mgcl"))
    assert [p.stem for p in paths] == ["die", "retry_channel", "two_stage"]
    for path in paths:
        out = _rewrite(parse_file(path))
        assert out._checked and _errors(out) == []


@pytest.mark.parametrize("per_sensor", [False, True], ids=["uniform", "per-sensor"])
def test_the_rewrites_of_the_shipyard_families_check_clean(per_sensor):
    text = shipyard.generate_program(
        shipyard.ShipyardConfig(missions=1), True, per_sensor_grades=per_sensor
    )
    out = _rewrite(parse_program(text))
    assert out._checked and _errors(out) == []


TWO_MODULES = """
param p in {1/4, 1/2};
module a
  x : [0..1] init 0;
  [go] x = 0 -> p : (x'=1) + 1 - p : true;
  [] x = 1 -> true;
endmodule
module b
  y : [0..2] init 0;
  [go] y < 2 -> (y'=y+1);
endmodule
rewards
  x = 0 : p;
endrewards
"""

ILL_FORMED = [
    # "loc" is no boolean: the guard has a sort error
    """
    param p in {1, 2};
    module m
      loc : [0..1] init 0;
      [] (loc = 1 | loc) & loc = 1 -> true;
      [] loc = 0 -> (loc'=1);
    endmodule
    rewards
      loc = 1 : p;
    endrewards
    """,
    # a boolean-sorted cost
    """
    param p in {1, 2};
    module m
      loc : [0..1] init 0;
      [] true -> (loc'=1-loc);
    endmodule
    rewards
      loc = 1 : p > 1;
    endrewards
    """,
    # an unknown name in a probability, in the second of two modules: the
    # diagnostics name the module as written, not the composition
    TWO_MODULES.replace("[go] y < 2 -> (y'=y+1);", "[go] y < 2 -> q : (y'=y+1) + 1 - q : true;"),
]


def test_every_rewrite_refuses_an_ill_formed_program():
    # add_control checks first, with a report naming an action the program
    # does not have, and with one that names none
    report = TransformReport(fresh_actions={"_row0_1": (("p", 1),)})
    rewrites = (transform_rewards, transform_probabilities, transform_all,
                lambda program: add_control(program, report),
                lambda program: add_control(program, TransformReport()))
    for src in ILL_FORMED:
        program = parse_program(src, check=False)
        first = str(_errors(program)[0])
        for rewrite in rewrites:
            with pytest.raises(TransformError) as err:
                rewrite(program)
            assert str(err.value).startswith("program is not well-formed: " + first)
        assert not program._checked
    assert "module 'b'" in first


def test_an_unmarked_program_is_checked_once_and_every_stage_is_marked(
        two_stage, monkeypatch):
    checked, outputs = [], []
    inner = program_module.check_program
    monkeypatch.setattr(program_module, "check_program",
                        lambda program: checked.append(program) or inner(program))
    for name in ("transform_rewards", "transform_probabilities", "add_control"):
        def stage(*args, _real=getattr(transform, name)):
            out = _real(*args)
            outputs.append(out[0] if isinstance(out, tuple) else out)
            return out
        monkeypatch.setattr(transform, name, stage)

    assert two_stage._checked
    assert _rewrite(two_stage)._checked and checked == []
    unmarked = [
        parse_program(pretty(two_stage), check=False),
        replace(two_stage, labels=dict(two_stage.labels)),
        parse_program(TWO_MODULES, check=False),
        # no parametric reward: the reward stage returns the composition
        parse_program(TWO_MODULES.replace("x = 0 : p;", "x = 0 : 1;"), check=False),
        random_mimdp_program(random.Random(3))[0],
    ]
    for program in unmarked:
        assert not program._checked
        checked.clear()
        outputs.clear()
        out = _rewrite(program)
        # the program given is checked, not its composition
        assert checked == [program] and program._checked
        assert len(outputs) == 3 and outputs[-1] is out
        assert all(stage._checked for stage in outputs)
    for rewrite in (transform_rewards, transform_probabilities):
        program = parse_program(TWO_MODULES, check=False)
        checked.clear()
        assert rewrite(program)[0]._checked and checked == [program]


def test_a_control_flag_avoids_the_declared_parameters():
    # the marked output of add_control must be well-formed: a flag is not
    # named like a parameter the program still declares
    program = parse_program("""
    param _q_p_0 in {1};
    module m
      x : [0..1] init 0;
      [go] x = 0 -> (x'=1);
      [] x = 1 -> true;
    endmodule
    """)
    out = add_control(program, TransformReport(fresh_actions={"go": (("p", 1),)}))
    assert out._checked and _errors(out) == []
    assert [v.name for v in out.modules[1].variables] == ["__q_p_0"]
