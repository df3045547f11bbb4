"""Golden CLI outputs: stdout, stderr and exit code of fixed invocations,
compared byte for byte with files under ``tests/golden/``.

Every output here but ``check``'s is exact (rationals, counts, pretty-printed
programs); ``check`` prints its values at 9 significant digits, far above
the checker's tolerance, so the files do not depend on the platform.  To
regenerate them after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import hashlib
import itertools
import sys
from pathlib import Path

import pytest

from mimdp.cli import main
from mimdp.expressions import format_fraction
from mimdp.parser import parse_file

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"

# (model, phi, goal) for emit-nilp
_NILP = {
    "two_stage": ('P<=0.2 [F "s2"]', "absorb"),
    "die": ('P<=0.2 [F "one"]', "rolled"),
    "retry_channel": ('P<=0.2 [F "gaveup"]', "stopped"),
}


def _cases() -> dict:
    """Case name -> argv, over the three bundled models."""
    cases = {}
    for model in sorted(_NILP):
        path = str(MODELS / f"{model}.mgcl")
        cases[f"build-{model}"] = ["build", path]
        cases[f"build-valuations-{model}"] = ["build", path, "--valuations"]
        cases[f"build-dot-{model}"] = ["build", path, "--dot", "-"]
        for stage in ("rewards", "probs", "control", "all"):
            cases[f"transform-{stage}-{model}"] = [
                "transform", path, "--stage", stage, "--report", "-"
            ]
        phi, goal = _NILP[model]
        cases[f"emit-nilp-{model}"] = ["emit-nilp", path, "--phi", phi, "--goal", goal]
        for method in ("enum", "transformed", "both"):
            for bound, bound_phi in (("nilp", phi), ("p0", phi.replace("0.2", "0", 1))):
                cases[f"synthesize-{method}-{bound}-{model}"] = [
                    "synthesize", path, "--phi", bound_phi, "--goal", goal, "--method", method
                ]
    cases["casestudy-generate-per-sensor"] = ["casestudy", "generate", "--per-sensor"]
    cases["casestudy-generate-uniform"] = ["casestudy", "generate"]
    cases.update(_check_cases())
    return cases


# extra cost-bounded queries: (model, valuation, property); the last one
# fails on the non-integer state cost p+q
_COST_BOUNDED = {
    "check-cbr-retry_channel-loss0.1": (
        "retry_channel", "loss=0.1", 'P=? [F{C<3} "delivered"]'),
    "check-cbr-retry_channel-loss0.4": (
        "retry_channel", "loss=0.4", 'P=? [F{C<20} "delivered"]'),
    "check-cbr-die-p0.5": ("die", "p=0.5", 'P=? [F{C<4} "rolled"]'),
    "check-cbr-two_stage-p0.4-q0.3-r0.6-s0.7": (
        "two_stage", "p=0.4,q=0.3,r=0.6,s=0.7", 'P=? [F{C<2} "s2"]'),
}


def _check_cases() -> dict:
    """``check`` of every property in each bundled model's ``.props`` file
    at every valuation of its parameters (ill-defined valuations give their
    error), plus the cost-bounded queries above."""
    cases = {}
    for model in sorted(_NILP):
        path = str(MODELS / f"{model}.mgcl")
        props = [
            line.strip()
            for line in (MODELS / f"{model}.props").read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("//")
        ]
        params = parse_file(path).parameters
        for values in itertools.product(*params.values()):
            pairs = [(n, format_fraction(v)) for n, v in zip(params, values)]
            valuation = ",".join(f"{n}={v}" for n, v in pairs)
            slug = "-".join(f"{n}{v}" for n, v in pairs)
            for i, prop in enumerate(props):
                suffix = f"-{i}" if len(props) > 1 else ""
                cases[f"check-{model}-{slug}{suffix}"] = [
                    "check", path, "--valuation", valuation, "--prop", prop
                ]
    for name, (model, valuation, prop) in _COST_BOUNDED.items():
        path = str(MODELS / f"{model}.mgcl")
        cases[name] = ["check", path, "--valuation", valuation, "--prop", prop]
    return cases


CASES = _cases()


def _run(argv, capsys) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    return f"exit: {code}\n--- stderr\n{captured.err}--- stdout\n{captured.out}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(CASES[name], capsys) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _shipyard_transforms(tmpdir: Path, capsys) -> dict:
    """``transform --stage probs`` on the generated shipyard programs, whose
    parametric probabilities are long polynomials shared across many
    commands.  The outputs run to 0.1-0.5 MB, so only their digests are
    recorded (``shipyard-transform-probs.sha256``)."""
    digests = {}
    for variant in ("per-sensor", "uniform"):
        text = (GOLDEN / f"casestudy-generate-{variant}.txt").read_text(encoding="utf-8")
        path = tmpdir / f"{variant}.mgcl"
        path.write_text(text.split("--- stdout\n", 1)[1], encoding="utf-8")
        out = _run(["transform", str(path), "--stage", "probs", "--report", "-"], capsys)
        digests[variant] = _digest(out)
    return digests


def _read_digests() -> dict:
    lines = (GOLDEN / "shipyard-transform-probs.sha256").read_text(encoding="utf-8")
    return {variant: digest for digest, variant in map(str.split, lines.splitlines())}


def test_generated_shipyard_models_transform_as_recorded(tmp_path, capsys):
    assert _shipyard_transforms(tmp_path, capsys) == _read_digests()


class _Capture:
    """``capsys`` stand-in for regeneration outside pytest."""

    def readouterr(self):
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout.seek(0)
        sys.stdout.truncate()
        sys.stderr.seek(0)
        sys.stderr.truncate()
        return type("Captured", (), {"out": out, "err": err})


def _regenerate() -> None:
    import io
    import tempfile

    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    capture = _Capture()
    try:
        outputs = {name: _run(argv, capture) for name, argv in CASES.items()}
        for name, text in outputs.items():
            (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            digests = _shipyard_transforms(Path(tmp), capture)
    finally:
        sys.stdout, sys.stderr = real
    (GOLDEN / "shipyard-transform-probs.sha256").write_text(
        "".join(f"{d}  {v}\n" for v, d in digests.items()), encoding="utf-8"
    )
    print(f"wrote {len(outputs)} golden files and the shipyard digests")


if __name__ == "__main__":
    _regenerate()
