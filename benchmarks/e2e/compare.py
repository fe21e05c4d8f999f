"""Compare two ``run.py --out`` result files against the BENCHMARK.json bounds.

    python3 benchmarks/e2e/compare.py parent.json change.json

Each (end-to-end metric x workload) is reported as the share by which the
second file is worse than the first (negative = better): ``within`` its
bound, ``worse`` beyond it, or ``better`` beyond it.  Two runs of one commit
agree when every row reads ``within``.  Exits 1 if any row is ``worse`` or
the second file has more failed operations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        a, b = first["workloads"][workload], second["workloads"][workload]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            before = a["end_to_end"][name]["value"]
            after = b["end_to_end"][name]["value"]
            change = (after - before) / before
            worse_by = change if metric["better"] == "lower" else -change
            if worse_by > metric["bound"]:
                status = "worse"
            elif worse_by < -metric["bound"]:
                status = "better"
            else:
                status = "within"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "first": before, "second": after, "worse_by": worse_by,
                "bound": metric["bound"], "status": status,
            })
        if b["failed"] > a["failed"]:
            rows.append({
                "workload": workload, "metric": "failed", "unit": "count",
                "first": a["failed"], "second": b["failed"], "worse_by": float("inf"),
                "bound": 0.0, "status": "worse",
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    rows = compare(first, second)
    print(f"{'workload':<20}{'metric':<18}{'first':>12}{'second':>12}{'worse by':>10}{'bound':>7}  status")
    for row in rows:
        print(
            f"{row['workload']:<20}{row['metric']:<18}{row['first']:>12.4f}"
            f"{row['second']:>12.4f}{row['worse_by']:>10.1%}{row['bound']:>7.0%}  {row['status']}"
        )
    outside = [row for row in rows if row["status"] != "within"]
    print(f"{len(rows) - len(outside)} of {len(rows)} within their bound")
    return 1 if any(row["status"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
