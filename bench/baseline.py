"""Fold the results files of several runs into one baseline of medians.

    python3 bench/baseline.py bench/results/*.json > bench/baseline.json

For each workload and trace mode, every metric gets the median, the first
and third quartiles and the spread (quartile distance over median) of the
per-run medians, with the number of runs.  The metadata of the runs
(interpreter, commit, source digest, nproc, load averages, seeds) is kept,
so a later baseline can be checked for comparability before it is compared.
"""

from __future__ import annotations

import json
import statistics
import sys


def fold(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for rec in records:
        meta = rec["meta"]
        groups.setdefault(f"{meta['workload']}/trace{meta['trace']}", []).append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        recs.sort(key=lambda r: r["meta"]["seed"])
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["median"] for r in recs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "unit": recs[0]["metrics"][name]["unit"], "runs": len(values)}
        metas = [r["meta"] for r in recs]
        out[key] = {
            "correct": all(r["correct"] for r in recs),
            "seeds": [m["seed"] for m in metas],
            "seconds": sorted({m["seconds"] for m in metas}),
            "python": sorted({m["python"] for m in metas}),
            "commit": sorted({str(m["commit"]) for m in metas}),
            "source_sha256": sorted({m["source_sha256"] for m in metas}),
            "nproc": sorted({m["nproc"] for m in metas}),
            "loadavg_start": [m["loadavg_start"] for m in metas],
            "metrics": metrics,
        }
    return out


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: baseline.py RESULTS.json...", file=sys.stderr)
        return 2
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    print(json.dumps(fold(records), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
