"""Golden CLI outputs: stdout, stderr and exit code of fixed invocations,
compared byte for byte with files under ``tests/golden/``.

Every output here is exact (rationals, counts, pretty-printed programs), with
no value-iteration floats, so the files do not depend on the platform.  To
regenerate them after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from mimdp.cli import main

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
    cases["casestudy-generate-per-sensor"] = ["casestudy", "generate", "--per-sensor"]
    cases["casestudy-generate-uniform"] = ["casestudy", "generate"]
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
