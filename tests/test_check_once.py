"""``transform_all`` marks the rewrite of a checked program as checked, so
``build_model`` does not run ``check_program`` on it.  These tests run the
check the build now skips: the rewrite of every well-formed program below
has no error diagnostic."""

import random
import warnings
from dataclasses import replace

import pytest

from generators import random_mimdp_program
from mimdp import shipyard
from mimdp.parser import parse_file, parse_program
from mimdp.program import check_program, pretty
from mimdp.transform import transform_all


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


def test_only_the_rewrite_of_a_checked_program_is_marked(two_stage):
    assert two_stage._checked
    assert _rewrite(two_stage)._checked
    unchecked = parse_program(pretty(two_stage), check=False)
    assert not unchecked._checked
    assert not _rewrite(unchecked)._checked
    assert not _rewrite(replace(two_stage, labels=dict(two_stage.labels)))._checked
    program, _ = random_mimdp_program(random.Random(3))
    assert not program._checked and not _rewrite(program)._checked
