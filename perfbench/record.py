"""Aggregate the run records in ``.perfbench/`` into one trajectory entry.

    python3 perfbench/record.py --label <label>

Writes ``perfbench/results/<label>.json``: for each workload and each of
its metrics, the median, quartiles and count over the recorded seeds,
with the machine the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = HERE.parent / ".perfbench"


def aggregate(records: list[dict]) -> dict:
    values = defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            values[name].append(metric["value"])
    units = {name: metric["unit"] for record in records for name, metric in record["metrics"].items()}
    out = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        out[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals),
                     "unit": units[name]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    groups = defaultdict(list)
    for path in sorted(RUNS.glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        groups[(record["workload"], record["trace"])].append(record)
    if not groups:
        print(f"no run records in {RUNS}")
        return 1
    first = next(iter(groups.values()))[0]
    entry = {"label": args.label, "env": first["env"], "seconds": first["seconds"], "workloads": {}}
    for (workload, trace), records in sorted(groups.items()):
        kind = "per_layer" if trace else "end_to_end"
        entry["workloads"].setdefault(workload, {})[kind] = {
            "seeds": sorted(r["seed"] for r in records),
            "all_correct": all(r["failed"] == 0 for r in records),
            "metrics": aggregate(records),
        }
    out = HERE / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
