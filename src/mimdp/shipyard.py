"""Shipyard surveillance formula library and model generator.

Cost, geometry and sensor-performance formulas for a shipping facility
patrolled by UAVs with electro-optical (EO) sensors and monitored by ground
sensors, plus a generator that emits a simplified, fully documented
guarded-command model of the scenario with the configuration choices as
finite-valued parameters.

All published approximation coefficients are embedded verbatim as exact
decimals in the tables below; nothing is refitted.

UNIT INCONSISTENCY, IMPLEMENTED AS PRINTED: the intruder area-search cost
formula adds plain distance terms (meters) to a distance-divided-by-speed
term (seconds) and an altitude-change term (seconds) before multiplying by
dollars per second.  We reproduce the formula exactly rather than repairing
its units; treat absolute dollar values from it as illustrative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .expressions import Binary, Expr, Name, Num, format_fraction, to_text
from .models import build_model
from .checking import reach_prob
from .parser import parse_program

F = Fraction

COST_PER_SECOND = F(5, 18)  # ~1000 dollars per flight hour
GROUND_SPEED = F(15)  # m/s
ASCENT_SPEED = F(5)  # m/s
STANDARD_ALTITUDE = F(889)  # the high-resolution option's operating altitude
ALTITUDE_RANGE = (F(-60), F(60))
FP_RANGE = (F("0.2"), F("1.0"))


class EoSensor(Enum):
    """EO sensor resolution options with purchase cost and the operating
    altitude at which intruder-detection probability is about 0.95."""

    R480P = ("480p", 640, 480, 15_000, 296)
    R720P = ("720p", 1280, 720, 30_000, 593)
    R1080P = ("1080p", 1920, 1080, 45_000, 889)

    def __init__(self, label, rh, rv, cost, altitude):
        self.label = label
        self.horizontal_resolution = rh
        self.vertical_resolution = rv
        self.purchase_cost = cost
        self.operating_altitude = altitude


class SensorGrade(Enum):
    """Ground sensor quality with one-time purchase cost."""

    LOW = ("low", 15_000)
    MID = ("mid", 30_000)
    HIGH = ("high", 45_000)

    def __init__(self, label, cost):
        self.label = label
        self.purchase_cost = cost


_EO_ORDER = (EoSensor.R480P, EoSensor.R720P, EoSensor.R1080P)
_GRADE_ORDER = (SensorGrade.LOW, SensorGrade.MID, SensorGrade.HIGH)

# ---------------------------------------------------------------------------
# published approximation coefficients (a*x^2 + b*x + c, highest power first)

DETECTION_LINEAR = {
    EoSensor.R480P: (F("-0.0008"), F("0.9461")),
    EoSensor.R720P: (F("-0.0004"), F("0.9498")),
    EoSensor.R1080P: (F("-0.0003"), F("0.9505")),
}
DETECTION_QUADRATIC = {
    EoSensor.R480P: (F("-0.000004"), F("-0.000810"), F("0.951075")),
    EoSensor.R720P: (F("-0.000001"), F("-0.0004051"), F("0.9511169")),
    EoSensor.R1080P: (F("0"), F("-0.000300"), F("0.950500")),
}
# the high-grade linear true-positive approximation was published blank
ROC_LINEAR = {
    SensorGrade.LOW: (F("0.0041"), F("0.9949")),
    SensorGrade.MID: (F("0.0853"), F("0.9137")),
    SensorGrade.HIGH: None,
}
ROC_QUADRATIC = {
    SensorGrade.LOW: (F("-0.0183"), F("0.0273"), F("0.9888")),
    SensorGrade.MID: (F("-0.2243"), F("0.3779"), F("0.8391")),
    SensorGrade.HIGH: (F("-0.4676"), F("0.9213"), F("0.5346")),
}
FOOTPRINT_LINEAR = {
    EoSensor.R480P: (F("-0.000045"), F("0.013026")),
    EoSensor.R720P: (F("-0.000011"), F("0.006428")),
    EoSensor.R1080P: (F("-0.000005"), F("0.004279")),
}
FOOTPRINT_QUADRATIC = {
    EoSensor.R480P: (F("0.0000002"), F("-0.0000445"), F("0.0128284")),
    EoSensor.R720P: (F("0"), F("-0.0000110"), F("0.0064280")),
    EoSensor.R1080P: (F("0"), F("-0.0000050"), F("0.0042790")),
}

# line pairs across the critical (1D) or mean (2D) dimension for a 50%
# chance of performing the visual task
JOHNSON_N50 = {
    "detection": (1.0, 0.75),
    "recognition": (4.0, 3.0),
    "identification": (8.0, 6.0),
}

# ---------------------------------------------------------------------------
# task geometry (meters)

POINT_TASKS = {
    "Main Gate": (1000, 1000),
    "Power Generator": (1100, 1100),
    "Sensor 1": (3250, 3250),
    "Sensor 2": (3375, 3375),
    "Sensor 3": (2375, 2375),
    "Bay Sensor Network": (3750, 3750),
}
LINE_TASKS = {
    "Highway": (2000, 2000, 2875),
    "Runway": (1000, 1250, 2000),
    "Stream": (3250, 3250, 2050),
}
# name: (d_g, d_g_back, d_s, d_s_back, d_h, d_w); the Shipyard task may also
# respond from the Bay Sensor Network (3750 m), the Sensor 2 distance is kept
AREA_TASKS = {
    "Bridge": (3750, 3500, 3250, 500, 375, 600),
    "Main Office": (2600, 1525, 3250, 625, 500, 1100),
    "Warehouse": (2750, 1250, 3250, 575, 700, 1500),
    "Truck Depot": (2950, 2100, 3375, 450, 625, 1200),
    "Shipyard Office": (3350, 3150, 3375, 425, 550, 1000),
    "Shipyard": (3625, 3050, 3375, 500, 800, 700),
    "West Bay": (4250, 4900, 3750, 1000, 575, 1000),
    "East Bay": (3125, 3350, 3750, 1500, 575, 2000),
    "Airfield Office": (2100, 2000, 2375, 450, 550, 500),
    "Airfield": (1750, 2875, 2375, 700, 950, 1625),
}


@dataclass(frozen=True)
class TaskGeometry:
    name: str
    kind: str  # 'point' | 'line' | 'area'
    d_g: float
    d_g_back: float
    d_l: Optional[float] = None
    d_s: Optional[float] = None
    d_s_back: Optional[float] = None
    d_h: Optional[float] = None
    d_w: Optional[float] = None

    def __post_init__(self):
        for v in (self.d_g, self.d_g_back, self.d_l, self.d_s, self.d_s_back, self.d_h, self.d_w):
            if v is not None and v < 0:
                raise ValueError(f"negative distance in task {self.name!r}")


def point_task(name: str) -> TaskGeometry:
    d_g, d_b = POINT_TASKS[name]
    return TaskGeometry(name, "point", d_g, d_b)


def line_task(name: str) -> TaskGeometry:
    d_g, d_b, d_l = LINE_TASKS[name]
    return TaskGeometry(name, "line", d_g, d_b, d_l=d_l)


def area_task(name: str) -> TaskGeometry:
    d_g, d_b, d_s, d_sb, d_h, d_w = AREA_TASKS[name]
    return TaskGeometry(name, "area", d_g, d_b, d_s=d_s, d_s_back=d_sb, d_h=d_h, d_w=d_w)


# ---------------------------------------------------------------------------
# clamping bookkeeping

class ClampCounter:
    """Counts probability values that had to be clamped into [0,1]."""

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0


clamp_counter = ClampCounter()


def _clamp01(x: float) -> float:
    if x < 0.0 or x > 1.0:
        clamp_counter.count += 1
        return min(1.0, max(0.0, x))
    return x


# ---------------------------------------------------------------------------
# formulas

def task_distance(task: TaskGeometry, footprint_width: Optional[float] = None) -> float:
    """Total flight distance for a routine search task.

    Point: out and back.  Line: out, along the line, back.  Area: out, then
    one pass of the area height per footprint-width slice of its width, then
    back; area tasks need the footprint width at operating altitude.
    """
    if task.kind == "point":
        return task.d_g + task.d_g_back
    if task.kind == "line":
        return task.d_g + task.d_l + task.d_g_back
    if task.kind == "area":
        if footprint_width is None or footprint_width <= 0:
            raise ValueError("area tasks need a positive footprint width")
        return task.d_g + (task.d_w / footprint_width) * task.d_h + task.d_g_back
    raise ValueError(f"unknown task kind {task.kind!r}")


def response_distance(task: TaskGeometry, footprint_width: float) -> float:
    """Area-search distance when responding to a ground-sensor detection:
    to the sensor, onwards to the area, the sweep, and back."""
    if task.kind != "area":
        raise ValueError("sensor responses are area searches")
    if footprint_width <= 0:
        raise ValueError("footprint width must be positive")
    return task.d_s + task.d_s_back + (task.d_w / footprint_width) * task.d_h + task.d_g_back


def basic_task_cost(
    distance: float,
    cost_per_second: float = COST_PER_SECOND,
    ground_speed: float = GROUND_SPEED,
) -> float:
    """Flight cost of a task that involves no intruder response."""
    if ground_speed == 0:
        raise ValueError("ground speed must be nonzero")
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    return float(distance * cost_per_second / ground_speed)


def gsd(altitude: float, horizontal_resolution: int) -> float:
    """Ground sample distance in meters per pixel at the given altitude,
    with the field of view fixed to pi/12 and the camera pointing down."""
    if horizontal_resolution == 0:
        raise ValueError("horizontal resolution must be nonzero")
    if altitude < 0:
        raise ValueError("altitude must be nonnegative")
    return 2.0 * altitude * math.tan(math.pi / 24.0) / horizontal_resolution


def line_pairs(
    object_size: float,
    vertical_resolution: int,
    altitude: float,
    horizontal_fov: float = math.pi / 12.0,
) -> float:
    """Pixel line pairs across an object of the given size."""
    if altitude <= 0:
        raise ValueError("altitude must be positive")
    return object_size * vertical_resolution / (4.0 * altitude * math.tan(horizontal_fov / 2.0))


def johnson_probability(n: float, n50: float) -> float:
    """Probability of successful visual analysis given n line pairs across
    the object and the task's 50%-threshold n50."""
    if n50 <= 0:
        raise ValueError("n50 must be positive")
    if n < 0:
        raise ValueError("line pairs must be nonnegative")
    if n == 0:
        return 0.0
    ratio = n / n50
    x0 = 2.7 + 0.7 * ratio
    powered = ratio ** x0
    return powered / (1.0 + powered)


def _check_dh(dh) -> None:
    if not (ALTITUDE_RANGE[0] <= dh <= ALTITUDE_RANGE[1]):
        raise ValueError(f"altitude deviation {dh} outside [-60, 60] m")


def detection_probability(eo: EoSensor, dh: float, form: str = "quadratic") -> float:
    """Intruder-detection probability at the sensor's operating altitude
    shifted by dh meters, from the published linear/quadratic fits."""
    _check_dh(dh)
    if form == "linear":
        b, c = DETECTION_LINEAR[eo]
        return _clamp01(float(b) * dh + float(c))
    if form == "quadratic":
        a, b, c = DETECTION_QUADRATIC[eo]
        return _clamp01(float(a) * dh * dh + float(b) * dh + float(c))
    raise ValueError(f"unknown form {form!r}")


def roc_true_positive(grade: SensorGrade, false_positive: float, form: str = "quadratic") -> float:
    """Ground-sensor true-positive rate at the chosen false-positive
    operating point.  The high-grade linear fit was published blank and is
    rejected rather than invented."""
    if not (FP_RANGE[0] <= false_positive <= FP_RANGE[1]):
        raise ValueError(f"false-positive rate {false_positive} outside [0.2, 1.0]")
    if form == "linear":
        coeffs = ROC_LINEAR[grade]
        if coeffs is None:
            raise ValueError("no published linear approximation for the high-grade sensor")
        b, c = coeffs
        return _clamp01(float(b) * false_positive + float(c))
    if form == "quadratic":
        a, b, c = ROC_QUADRATIC[grade]
        return _clamp01(float(a) * false_positive ** 2 + float(b) * false_positive + float(c))
    raise ValueError(f"unknown form {form!r}")


def inverse_footprint(eo: EoSensor, dh: float, form: str = "linear") -> float:
    """1/e_w: reciprocal footprint width at the option's operating altitude
    shifted by dh meters."""
    _check_dh(dh)
    if form == "linear":
        b, c = FOOTPRINT_LINEAR[eo]
        return float(b) * dh + float(c)
    if form == "quadratic":
        a, b, c = FOOTPRINT_QUADRATIC[eo]
        return float(a) * dh * dh + float(b) * dh + float(c)
    raise ValueError(f"unknown form {form!r}")


@dataclass(frozen=True)
class ShipyardConfig:
    """One concrete system configuration plus model-generation knobs.

    ``grades`` is a single grade (all ground sensors identical) or one per
    (Sensor 1, Sensor 2, Sensor 3, Bay Sensor Network).
    """

    eo: EoSensor = EoSensor.R480P
    altitude_delta: int = 0
    grades: Union[SensorGrade, Tuple[SensorGrade, ...]] = SensorGrade.LOW
    false_positive: Fraction = F("0.2")
    missions: int = 5
    cost_per_second: Fraction = COST_PER_SECOND
    ground_speed: Fraction = GROUND_SPEED
    ascent_speed: Fraction = ASCENT_SPEED
    intruder_rate: Fraction = F("0.15")
    footprint_form: str = "linear"

    def __post_init__(self):
        _check_dh(self.altitude_delta)
        if not (FP_RANGE[0] <= self.false_positive <= FP_RANGE[1]):
            raise ValueError("false-positive rate outside [0.2, 1.0]")
        if self.missions < 1:
            raise ValueError("missions must be positive")
        if isinstance(self.grades, tuple) and len(self.grades) != 4:
            raise ValueError("per-sensor grades need exactly 4 entries")


def intruder_area_cost(task: TaskGeometry, config: ShipyardConfig) -> float:
    """Cost of an intruder-prompted area search, exactly as published
    (see the module docstring for the unit caveat): response distances, the
    footprint-scaled sweep divided by ground speed, the altitude round trip
    at ascent speed, and the return leg, all times dollars-per-second."""
    if task.kind != "area":
        raise ValueError("intruder searches are area searches")
    if task.d_s is None:
        raise ValueError(f"task {task.name!r} has no sensor-response distances")
    inv_ew = inverse_footprint(config.eo, config.altitude_delta, config.footprint_form)
    h0_i = config.eo.operating_altitude
    altitude_term = (
        2.0 * (float(STANDARD_ALTITUDE) - h0_i - config.altitude_delta)
        / float(config.ascent_speed)
    )
    sweep_term = inv_ew * (task.d_w * task.d_h) / float(config.ground_speed)
    return float(config.cost_per_second) * (
        task.d_s + task.d_s_back + sweep_term + altitude_term + task.d_g_back
    )


# ---------------------------------------------------------------------------
# exact interpolation helpers for the generator

def _poly_expr(var: str, coeffs: Sequence[Fraction]) -> Expr:
    """c0 + c1*var + c2*var*var + ... with exact coefficients."""
    terms: List[Expr] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        term: Expr = Num(c)
        for _ in range(k):
            term = Binary("*", term, Name(var))
        terms.append(term)
    if not terms:
        return Num(F(0))
    out = terms[0]
    for t in terms[1:]:
        out = Binary("+", out, t)
    return out


def _lagrange_coeffs(nodes: Sequence[Fraction], values: Sequence[Fraction]) -> List[Fraction]:
    n = len(nodes)
    coeffs = [F(0)] * n
    for i in range(n):
        basis = [F(1)]
        denom = F(1)
        for j in range(n):
            if j == i:
                continue
            new = [F(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-nodes[j])
                new[k + 1] += c
            basis = new
            denom *= nodes[i] - nodes[j]
        w = values[i] / denom
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or [F(0)]


def _lagrange_expr(var: str, nodes: Sequence[Fraction], values: Sequence[Fraction]) -> Expr:
    return _poly_expr(var, _lagrange_coeffs(nodes, values))


def _quadratic_in(
    var2: str, a: Expr, b: Expr, c: Expr
) -> Expr:
    """a*var2*var2 + b*var2 + c with expression-valued coefficients."""
    v = Name(var2)
    out = Binary("+", Binary("*", Binary("*", a, v), v), Binary("*", b, v))
    return Binary("+", out, c)


def _mul(a: Expr, b: Expr) -> Expr:
    return Binary("*", a, b)


def _add(*es: Expr) -> Expr:
    out = es[0]
    for e in es[1:]:
        out = Binary("+", out, e)
    return out


def _sub(a: Expr, b: Expr) -> Expr:
    return Binary("-", a, b)


# ---------------------------------------------------------------------------
# program generator

EO_NODES = [F(0), F(1), F(2)]
GRADE_NODES = [F(0), F(1), F(2)]
ALT_VALUES = [F(-60), F(-30), F(0), F(30), F(60)]
FP_VALUES = [F(k, 10) for k in range(2, 10)]  # 0.2 .. 0.9; 1.0 is a permanent alarm
SENSOR_TASKS = ("Bridge", "Truck Depot", "Airfield Office", "West Bay")
SENSOR_NAMES = ("Sensor 1", "Sensor 2", "Sensor 3", "Bay Sensor Network")


def configuration_count(per_sensor_grades: bool) -> int:
    """Size of the configuration space of the generated parametric model:
    EO options x altitude deviations x grade choices x false-positive
    settings, with the grade dimension folded per sensor in free mode."""
    grades = 12 if per_sensor_grades else 3
    return len(EO_NODES) * len(ALT_VALUES) * grades * len(FP_VALUES)


def _detection_expr(eo_var: str, alt_var: str) -> Expr:
    table = [DETECTION_QUADRATIC[g] for g in _EO_ORDER]
    a = _lagrange_expr(eo_var, EO_NODES, [t[0] for t in table])
    b = _lagrange_expr(eo_var, EO_NODES, [t[1] for t in table])
    c = _lagrange_expr(eo_var, EO_NODES, [t[2] for t in table])
    return _quadratic_in(alt_var, a, b, c)


def _truepos_expr(grade_var: str, fp_var: str, nodes, grade_of) -> Expr:
    rows = [ROC_QUADRATIC[grade_of(v)] for v in nodes]
    a = _lagrange_expr(grade_var, nodes, [r[0] for r in rows])
    b = _lagrange_expr(grade_var, nodes, [r[1] for r in rows])
    c = _lagrange_expr(grade_var, nodes, [r[2] for r in rows])
    return _quadratic_in(fp_var, a, b, c)


def _inverse_footprint_expr(eo_var: str, alt_var: str) -> Expr:
    table = [FOOTPRINT_LINEAR[g] for g in _EO_ORDER]
    b = _lagrange_expr(eo_var, EO_NODES, [t[0] for t in table])
    c = _lagrange_expr(eo_var, EO_NODES, [t[1] for t in table])
    return _add(_mul(b, Name(alt_var)), c)


def _response_cost_expr(config: ShipyardConfig, eo_var, alt_var, grade_var, nodes, task_of) -> Expr:
    """Symbolic intruder-response cost at the rates of ``config``;
    distances interpolate over the grade nodes: over the folded sensor
    dimension in free mode, and constants (one task at every node)
    otherwise."""
    def dist_expr(pick) -> Expr:
        return _lagrange_expr(grade_var, nodes, [F(pick(task_of(v))) for v in nodes])

    d_s = dist_expr(lambda t: t.d_s)
    d_sb = dist_expr(lambda t: t.d_s_back)
    d_gb = dist_expr(lambda t: t.d_g_back)
    dwdh = dist_expr(lambda t: t.d_w * t.d_h)

    inv_ew = _inverse_footprint_expr(eo_var, alt_var)
    sweep = Binary("/", _mul(inv_ew, dwdh), Num(F(config.ground_speed)))
    h0 = _lagrange_expr(eo_var, EO_NODES, [F(g.operating_altitude) for g in _EO_ORDER])
    climb = Binary(
        "/",
        _mul(Num(F(2)), _sub(_sub(Num(STANDARD_ALTITUDE), h0), Name(alt_var))),
        Num(F(config.ascent_speed)),
    )
    return _mul(Num(F(config.cost_per_second)), _add(d_s, d_sb, sweep, climb, d_gb))


def _purchase_expr(eo_var: str, grade_var: str, nodes, grade_of) -> Expr:
    eo_cost = _add(
        Num(F(15_000)), _mul(Num(F(15_000)), Name(eo_var))
    )  # 15k/30k/45k at 0/1/2
    grade_costs = [F(4 * grade_of(v).purchase_cost) for v in nodes]
    return _add(eo_cost, _lagrange_expr(grade_var, nodes, grade_costs))


_HEADER = """\
// Simplified shipyard surveillance model (auto-generated).
//
// Simplifications relative to the full scenario:
//   - one UAV, one aggregated ground-sensor event per mission;
//   - per mission, an intruder appears with a fixed rate; the mission either
//     records a recognition failure (intruder present and missed by the
//     sensor/operator chain), triggers a response flight (true or false
//     alarm), or passes quietly;
//   - response cost uses the published intruder area-search cost formula
//     for the sensor's associated area task; per-mission overhead is a
//     routine point patrol; purchase costs accrue once at boot;
//   - grade/EO dependent coefficients appear as exact interpolation
//     polynomials over the integer-coded options (the language has no
//     piecewise construct and guards cannot mention parameters);
//   - in free-grade mode the triggering sensor is folded into a single
//     12-valued (sensor, grade) parameter, and purchase cost prices the
//     four sensors at the folded grade.
"""


def generate_program(
    config: ShipyardConfig,
    parametric: bool = True,
    per_sensor_grades: bool = False,
) -> str:
    """Emit the mission-loop surveillance model as ``.mgcl`` source.

    With ``parametric`` the EO option, altitude deviation, sensor grade and
    false-positive rate become parameters carrying the published value sets
    (the configuration space has 360 members with a uniform grade, 1440 with
    per-sensor grades); otherwise the configuration's concrete numbers are
    inlined and the result is a plain chain.  Costs use the configuration's
    dollars per second, ground speed and ascent speed, and the linear
    footprint fit, the only one the model carries: another
    ``footprint_form`` raises ``ValueError``.
    """
    if config.footprint_form != "linear":
        raise ValueError(f"footprint_form {config.footprint_form!r} is not generated, only 'linear'")
    cost_per_second, ground_speed = F(config.cost_per_second), F(config.ground_speed)
    k = config.missions
    lines = [_HEADER]

    if parametric:
        if per_sensor_grades:
            nodes = [F(i) for i in range(12)]
            grade_of = lambda v: _GRADE_ORDER[int(v) % 3]
            task_of = lambda v: area_task(SENSOR_TASKS[int(v) // 3])
            grade_decl = "param sensorgrade in {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};"
            grade_var = "sensorgrade"
        else:
            nodes = GRADE_NODES
            grade_of = lambda v: _GRADE_ORDER[int(v)]
            task_of = lambda v: area_task(SENSOR_TASKS[0])
            grade_decl = "param grade in {0, 1, 2};"
            grade_var = "grade"
        lines += [
            "param eo in {0, 1, 2};",
            "param dalt in {" + ", ".join(format_fraction(v) for v in ALT_VALUES) + "};",
            grade_decl,
            "param fp in {" + ", ".join(format_fraction(v) for v in FP_VALUES) + "};",
            "",
        ]
        pd = _detection_expr("eo", "dalt")
        tp = _truepos_expr(grade_var, "fp", nodes, grade_of)
        fp_expr: Expr = Name("fp")
        response = _response_cost_expr(config, "eo", "dalt", grade_var, nodes, task_of)
        purchase = _purchase_expr("eo", grade_var, nodes, grade_of)
    else:
        grade = config.grades if isinstance(config.grades, SensorGrade) else config.grades[0]
        eo_idx = _EO_ORDER.index(config.eo)
        a, b, c = ROC_QUADRATIC[grade]
        fpv = F(config.false_positive)
        tp = Num(a * fpv * fpv + b * fpv + c)
        da, db, dc = DETECTION_QUADRATIC[config.eo]
        dh = F(config.altitude_delta)
        pd = Num(da * dh * dh + db * dh + dc)
        fp_expr = Num(fpv)
        fb, fc = FOOTPRINT_LINEAR[config.eo]
        inv_ew = fb * dh + fc
        task = area_task(SENSOR_TASKS[0])
        sweep = inv_ew * F(task.d_w * task.d_h) / ground_speed
        climb = 2 * (STANDARD_ALTITUDE - config.eo.operating_altitude - dh) / F(config.ascent_speed)
        response = Num(
            cost_per_second * (F(task.d_s) + F(task.d_s_back) + sweep + climb + F(task.d_g_back))
        )
        purchase = Num(F(config.eo.purchase_cost + 4 * grade.purchase_cost))

    ir = Num(F(config.intruder_rate))
    # per mission: recognition failure / response flight / quiet pass
    fail_p = _mul(ir, _sub(Num(F(1)), _mul(tp, pd)))
    resp_p = _add(_mul(ir, _mul(tp, pd)), _mul(_sub(Num(F(1)), ir), fp_expr))
    rest_p = _sub(_sub(Num(F(1)), fail_p), resp_p)

    overhead = cost_per_second * F(task_distance(point_task("Main Gate"))) / ground_speed

    lines += [
        f"const missions = {k};",
        "",
        "module surveillance",
        f"  m : [0..{k}] init 0;",
        "  boot : [0..1] init 0;",
        "  ph : [0..1] init 0;",
        "  fail : [0..1] init 0;",
        "  [] boot=0 & ph=0 -> (boot'=1);",
        f"  [] boot=1 & ph=0 & fail=0 & m<missions -> {to_text(fail_p)}: (fail'=1)"
        f" + {to_text(resp_p)}: (ph'=1)"
        f" + {to_text(rest_p)}: (m'=m+1);",
        "  [] boot=1 & ph=1 -> (ph'=0)&(m'=m+1);",
        "  [] boot=1 & ph=0 & fail=1 -> true;",
        "  [] boot=1 & ph=0 & fail=0 & m=missions -> true;",
        "endmodule",
        "",
        "rewards",
        f"  boot=0 & ph=0 : {to_text(purchase)};",
        f"  boot=1 & ph=1 : {to_text(response)};",
        f"  boot=1 & ph=0 & fail=0 & m<missions : {format_fraction(overhead)};",
        "endrewards",
        "",
        'label "failure" = fail=1;',
        'label "done" = (boot=1 & ph=0 & m=missions) | fail=1;',
    ]
    return "\n".join(lines) + "\n"


def recognition_failure_curve(
    config: ShipyardConfig, max_missions: int
) -> List[Tuple[int, float]]:
    """Probability of at least one recognition failure within the first k
    missions, for k = 1..max_missions, at the fixed configuration."""
    curve = []
    for k in range(1, max_missions + 1):
        cfg = replace(config, missions=k)
        program = parse_program(generate_program(cfg, parametric=False))
        model = build_model(program)
        vec, _ = reach_prob(model, "failure", "max")
        curve.append((k, vec.at_initial(model)))
    return curve
