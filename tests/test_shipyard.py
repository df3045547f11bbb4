from fractions import Fraction as F

import pytest

from mimdp import shipyard as sy
from mimdp.checking import reach_prob
from mimdp.models import build_model, instantiate, well_defined_valuations
from mimdp.parser import parse_program
from mimdp.program import check_program
from mimdp.shipyard import EoSensor, SensorGrade, ShipyardConfig


# --- distances and basic cost -------------------------------------------------

def test_point_distance_main_gate():
    assert sy.task_distance(sy.point_task("Main Gate")) == 2000


def test_line_distance_highway():
    assert sy.task_distance(sy.line_task("Highway")) == 6875


def test_area_distance_bridge_with_hundred_meter_footprint():
    assert sy.task_distance(sy.area_task("Bridge"), footprint_width=100) == 9500


def test_area_distance_requires_footprint():
    with pytest.raises(ValueError, match="footprint"):
        sy.task_distance(sy.area_task("Bridge"))


def test_response_distance_uses_sensor_legs():
    d = sy.response_distance(sy.area_task("Bridge"), footprint_width=100)
    assert d == 3250 + 500 + (600 / 100) * 375 + 3500


def test_basic_cost_zero_distance():
    assert sy.basic_task_cost(0) == 0


def test_basic_cost_at_default_constants():
    assert abs(sy.basic_task_cost(2000) - 2000 * (5 / 18) / 15) < 1e-12


def test_basic_cost_is_linear():
    assert abs(sy.basic_task_cost(4000) - 2 * sy.basic_task_cost(2000)) < 1e-12


# --- optics ---------------------------------------------------------------------

def test_gsd_zero_altitude():
    assert sy.gsd(0, 1080) == 0.0


def test_gsd_at_standard_altitude():
    assert abs(sy.gsd(889, 1080) - 0.216739) < 1e-5


def test_gsd_doubles_with_altitude():
    assert abs(sy.gsd(600, 1080) * 2 - sy.gsd(1200, 1080)) < 1e-12


def test_line_pairs_value():
    assert abs(sy.line_pairs(0.5, 480, 296) - 1.5397) < 1e-3


def test_line_pairs_halves_when_altitude_doubles():
    a = sy.line_pairs(0.5, 480, 300)
    b = sy.line_pairs(0.5, 480, 600)
    assert abs(a - 2 * b) < 1e-12


def test_line_pairs_zero_object():
    assert sy.line_pairs(0.0, 480, 296) == 0.0


def test_line_pairs_is_object_size_over_twice_gsd():
    for eo in EoSensor:
        n = sy.line_pairs(0.5, eo.vertical_resolution, eo.operating_altitude)
        g = sy.gsd(eo.operating_altitude, eo.vertical_resolution)
        assert abs(n - 0.5 / (2 * g)) < 1e-12


# --- Johnson criteria -------------------------------------------------------------

def test_johnson_half_at_threshold():
    assert sy.johnson_probability(4.0, 4.0) == 0.5
    assert sy.johnson_probability(0.75, 0.75) == 0.5


def test_johnson_double_threshold():
    assert abs(sy.johnson_probability(2.0, 1.0) - 2 ** 4.1 / (1 + 2 ** 4.1)) < 1e-12


def test_johnson_zero():
    assert sy.johnson_probability(0.0, 1.0) == 0.0


def test_johnson_strictly_increasing_and_bounded():
    prev = 0.0
    for k in range(1, 60):
        v = sy.johnson_probability(k / 10, 1.0)
        assert prev < v < 1.0
        prev = v


def test_johnson_table():
    assert sy.JOHNSON_N50["detection"] == (1.0, 0.75)
    assert sy.JOHNSON_N50["recognition"] == (4.0, 3.0)
    assert sy.JOHNSON_N50["identification"] == (8.0, 6.0)


# --- published approximations -----------------------------------------------------

def test_detection_at_operating_altitude():
    assert sy.detection_probability(EoSensor.R480P, 0) == 0.951075
    assert sy.detection_probability(EoSensor.R720P, 0) == 0.9511169
    assert sy.detection_probability(EoSensor.R1080P, 0) == 0.9505


def test_detection_high_linear_equals_quadratic():
    for dh in (-60, -15, 0, 30, 60):
        a = sy.detection_probability(EoSensor.R1080P, dh, "linear")
        b = sy.detection_probability(EoSensor.R1080P, dh, "quadratic")
        assert abs(a - b) < 1e-12


def test_detection_linear_low_at_plus_sixty():
    assert abs(sy.detection_probability(EoSensor.R480P, 60, "linear") - 0.8981) < 1e-12


def test_detection_rejects_out_of_range():
    with pytest.raises(ValueError):
        sy.detection_probability(EoSensor.R480P, 61)


def test_roc_values():
    assert abs(sy.roc_true_positive(SensorGrade.LOW, 1.0) - 0.9978) < 1e-12
    assert abs(sy.roc_true_positive(SensorGrade.MID, 0.2) - 0.905708) < 1e-12


def test_roc_high_linear_rejected_but_quadratic_works():
    with pytest.raises(ValueError, match="high-grade"):
        sy.roc_true_positive(SensorGrade.HIGH, 0.5, "linear")
    assert 0 < sy.roc_true_positive(SensorGrade.HIGH, 0.5, "quadratic") < 1


def test_roc_range_check():
    with pytest.raises(ValueError):
        sy.roc_true_positive(SensorGrade.LOW, 0.1)


def test_inverse_footprint_values():
    assert sy.inverse_footprint(EoSensor.R480P, 0, "linear") == 0.013026
    assert sy.inverse_footprint(EoSensor.R480P, 0, "quadratic") == 0.0128284
    assert sy.inverse_footprint(EoSensor.R1080P, 0, "linear") == 0.004279
    assert abs(
        sy.inverse_footprint(EoSensor.R1080P, 10, "linear")
        - sy.inverse_footprint(EoSensor.R1080P, 10, "quadratic")
    ) < 1e-12


def test_probabilities_clamped_and_counted():
    sy.clamp_counter.reset()
    v = sy.detection_probability(EoSensor.R720P, -60, "quadratic")
    # -0.000001*3600 + 0.0004051*60 + 0.9511169 = 0.9718429 (no clamp)
    assert sy.clamp_counter.count == 0 and v < 1
    # force a clamp through the linear low ROC fit beyond 1
    before = sy.clamp_counter.count
    sy.roc_true_positive(SensorGrade.LOW, 1.0, "linear")  # 0.0041 + 0.9949 = 0.999
    assert sy.clamp_counter.count == before  # still in range
    sy.clamp_counter.reset()


# --- intruder area-search cost ------------------------------------------------------

def test_bridge_response_cost_low_grade():
    cfg = ShipyardConfig(eo=EoSensor.R480P, altitude_delta=0, footprint_form="quadratic")
    got = sy.intruder_area_cost(sy.area_task("Bridge"), cfg)
    assert abs(got - (5 / 18) * (3250 + 500 + 192.426 + 237.2 + 3500)) < 1e-9


def test_high_option_at_zero_delta_has_no_altitude_term():
    cfg = ShipyardConfig(eo=EoSensor.R1080P, altitude_delta=0)
    got = sy.intruder_area_cost(sy.area_task("Bridge"), cfg)
    inv = sy.inverse_footprint(EoSensor.R1080P, 0)
    want = (5 / 18) * (3250 + 500 + inv * 600 * 375 / 15 + 0 + 3500)
    assert abs(got - want) < 1e-9


def test_response_cost_increases_as_altitude_drops():
    costs = [
        sy.intruder_area_cost(
            sy.area_task("Bridge"),
            ShipyardConfig(eo=EoSensor.R480P, altitude_delta=dh),
        )
        for dh in (-60, -30, 0, 30, 60)
    ]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_response_cost_needs_area_task():
    cfg = ShipyardConfig()
    with pytest.raises(ValueError):
        sy.intruder_area_cost(sy.point_task("Main Gate"), cfg)


# --- the generator --------------------------------------------------------------------

def test_generated_parametric_program_is_well_formed():
    cfg = ShipyardConfig(missions=3)
    for per_sensor in (False, True):
        text = sy.generate_program(cfg, parametric=True, per_sensor_grades=per_sensor)
        program = parse_program(text)
        assert check_program(program) == []


def test_configuration_counts():
    assert sy.configuration_count(False) == 360
    assert sy.configuration_count(True) == 1440


def test_declared_value_sets_multiply_to_the_configuration_count():
    cfg = ShipyardConfig(missions=2)
    for per_sensor, want in ((False, 360), (True, 1440)):
        program = parse_program(sy.generate_program(cfg, True, per_sensor))
        product = 1
        for values in program.parameters.values():
            product *= len(values)
        assert product == want == sy.configuration_count(per_sensor)


def test_every_shipyard_valuation_is_well_defined():
    cfg = ShipyardConfig(missions=1)
    model = build_model(parse_program(sy.generate_program(cfg, True)))
    assert len(well_defined_valuations(model)) == 360


def test_interpolation_matches_the_tables_at_grid_points():
    cfg = ShipyardConfig(missions=1)
    program = parse_program(sy.generate_program(cfg, True))
    model = build_model(program)
    for gi, grade in enumerate(sy._GRADE_ORDER):
        for fp in (F("0.2"), F("0.5"), F("0.9")):
            u = {"eo": F(0), "dalt": F(0), "grade": F(gi), "fp": fp}
            from mimdp.models import instantiate

            inst = instantiate(model, u)
            # mission command: failure branch has probability ir*(1 - tp*pd)
            row = inst.choices[1]
            fail_prob = None
            for ch in row:
                for p, t in ch.branches:
                    if inst.states[t][inst.var_names.index("fail")] == 1:
                        fail_prob = p
            tp = sy.roc_true_positive(grade, float(fp))
            pd = sy.detection_probability(EoSensor.R480P, 0)
            want = 0.15 * (1 - tp * pd)
            assert fail_prob is not None
            assert abs(float(fail_prob) - want) < 1e-12


def test_concrete_program_builds_a_chain():
    cfg = ShipyardConfig(missions=4)
    model = build_model(parse_program(sy.generate_program(cfg, parametric=False)))
    assert model.kind == "mc"
    vec, _ = reach_prob(model, "failure")
    assert 0 < vec.at_initial(model) < 1


# rates other than the module defaults: a dollar per three seconds, 30 m/s
# over the ground, 4 m/s in the climb
RATES = dict(cost_per_second=F(1, 3), ground_speed=F(30), ascent_speed=F(4))


def _response_cost(model, valuation=None) -> float:
    """The state cost of the response phase (``boot=1 & ph=1``)."""
    if valuation is not None:
        model = instantiate(model, valuation)
    boot, ph = model.var_names.index("boot"), model.var_names.index("ph")
    s = next(s for s, v in enumerate(model.states) if v[boot] == 1 and v[ph] == 1)
    return float(model.costs[s])


@pytest.mark.parametrize("eo, dh", [(EoSensor.R480P, 0), (EoSensor.R720P, 30),
                                    (EoSensor.R1080P, -60)])
def test_generated_response_cost_follows_the_configured_rates(eo, dh):
    cfg = ShipyardConfig(eo=eo, altitude_delta=dh, missions=1, **RATES)
    want = sy.intruder_area_cost(sy.area_task("Bridge"), cfg)
    assert want != sy.intruder_area_cost(sy.area_task("Bridge"), ShipyardConfig(eo=eo, altitude_delta=dh))
    concrete = build_model(parse_program(sy.generate_program(cfg, parametric=False)))
    assert abs(_response_cost(concrete) - want) < 1e-9
    # the parametric model, at the same configuration, charges the same
    parametric = build_model(parse_program(sy.generate_program(cfg, parametric=True)))
    u = {"eo": F(sy._EO_ORDER.index(eo)), "dalt": F(dh), "grade": F(0), "fp": F("0.2")}
    assert abs(_response_cost(parametric, u) - want) < 1e-9


def test_the_generator_refuses_a_footprint_fit_it_does_not_carry():
    cfg = ShipyardConfig(footprint_form="quadratic")
    for parametric in (True, False):
        with pytest.raises(ValueError, match="'quadratic'"):
            sy.generate_program(cfg, parametric)
    with pytest.raises(TypeError):
        ShipyardConfig(detection_form="bogus")


def test_failure_curve_is_nondecreasing():
    curve = sy.recognition_failure_curve(ShipyardConfig(), 8)
    values = [v for _, v in curve]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] > 0


def test_clamp_counter_counts_out_of_range_values():
    sy.clamp_counter.reset()
    assert sy._clamp01(1.2) == 1.0
    assert sy._clamp01(-0.1) == 0.0
    assert sy._clamp01(0.5) == 0.5
    assert sy.clamp_counter.count == 2
    sy.clamp_counter.reset()
    assert sy.clamp_counter.count == 0
