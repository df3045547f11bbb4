"""Regenerate the stored per-configuration shipyard tables.

    PYTHONPATH=src python3 perfbench/make_reference.py

The tables are the enumeration route's answers at bound 1 (every row
feasible); the benchmark derives feasibility for any drawn bound with the
route's own rule.  They were made once at the commit that added the
benchmark and must not be regenerated to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mimdp.expressions import format_fraction  # noqa: E402
from mimdp.parser import parse_program  # noqa: E402
from mimdp.synthesis import SynthesisQuery, synthesize_enumerate  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    for name, per_sensor in workloads.SHIPYARD_FAMILIES.items():
        text = workloads.shipyard_text(per_sensor)
        result = synthesize_enumerate(
            parse_program(text), SynthesisQuery("failure", Fraction(1), "done", "enumerate")
        )
        table = [
            {
                "valuation": {p: format_fraction(v) for p, v in e.valuation.items()},
                "ec": e.expected_cost,
                "pr": e.reach_probability,
            }
            for e in result.table
        ]
        rows = ",\n".join(json.dumps(row) for row in table)
        path = oracle.REFERENCE_DIR / f"{name}.json"
        path.write_text(
            f'{{"source_sha256": "{oracle.text_digest(text)}",\n"table": [\n{rows}\n]}}\n',
            encoding="utf-8",
        )
        print(f"{path}: {len(table)} rows")


if __name__ == "__main__":
    main()
