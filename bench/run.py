"""Benchmark entry point: run one workload for a fixed time and report medians.

    python3 bench/run.py --workload verify --seed 0 --seconds 30 --trace 0

Run from the repository root.  The load is a closed loop with one caller:
samples run one after another, each in a fresh single-threaded Python
process (``workloads.py``), so caches start cold in every sample as they do
in every CLI invocation.  A new sample starts only while the median sample
time still fits in ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, each the median over samples.  With ``--trace 1`` every
sample runs twice on the same input, untraced and then traced; the traced
run gives the per-layer metrics, the pair gives ``trace.overhead_frac``,
and their outputs must be byte-identical.

Every run writes its samples, metrics and metadata (interpreter, commit,
source digest, nproc, load average at start, seed) to
``bench/results/<workload>-seed<seed>-trace<t>.json``.  The last line on
stdout is the JSON result: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its samples do

sys.path.insert(0, str(HERE))
from workloads import PARTS, WORKLOADS  # noqa: E402


class SampleError(RuntimeError):
    """A sample process failed or printed no result."""


def run_sample(workload: str, seed: int, index: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample {index} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SampleError(f"sample {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "padiclift").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _loadavg() -> list[float] | None:
    try:
        return list(os.getloadavg())  # the 1, 5 and 15 minute figures of /proc/loadavg
    except OSError:
        return None


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": _commit(), "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(), "loadavg_start": _loadavg(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(samples: list[dict]) -> dict[str, tuple[float, list[float]]]:
    """metric -> (median, per-sample values), over untraced samples."""
    columns = {
        "setup_s": [s["setup_s"] for s in samples],
        "run_s": [s["run_s"] for s in samples],
        "checks_per_s": [s["checks"] / s["run_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    return {name: (_median(vals), vals) for name, vals in columns.items()}


def per_layer(plain: list[dict], traced: list[dict], names) -> dict[str, tuple[float, list[float]]]:
    """metric -> (median, per-sample values); parts of run_s come untraced."""
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            ratio = _median([s["run_s"] for s in traced]) / _median([s["run_s"] for s in plain])
            out[name] = (ratio - 1, [t["run_s"] / p["run_s"] - 1 for p, t in zip(plain, traced)])
        elif name in PARTS:
            vals = [s["parts"].get(name, 0.0) for s in plain]
            out[name] = (_median(vals), vals)
        else:
            vals = [s["layers"].get(name, 0) for s in traced]
            out[name] = (_median(vals), vals)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="padiclift benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "padiclift" / "__init__.py").is_file():
        print(f"error: no padiclift sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    meta = metadata(args)
    start = time.perf_counter()
    deadline = start + args.seconds
    plain: list[dict] = []
    traced: list[dict] = []
    unit_walls: list[float] = []
    try:
        while True:
            t0 = time.perf_counter()
            limit = start + RUN_LIMIT_S
            plain.append(run_sample(args.workload, args.seed, len(unit_walls), False,
                                    limit - time.perf_counter()))
            if args.trace:
                traced.append(run_sample(args.workload, args.seed, len(unit_walls), True,
                                         limit - time.perf_counter()))
            unit_walls.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(unit_walls) > deadline:
                break
    except SampleError as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    samples = plain + traced
    mismatched = [p["index"] for p, t in zip(plain, traced)
                  if p["output_sha256"] != t["output_sha256"]]
    attempted = sum(s["checks"] for s in samples)
    failed = sum(s["failures"] + len(s["errors"]) for s in samples) + len(mismatched)
    if args.trace:
        computed = per_layer(plain, traced, [m["name"] for m in wanted])
    else:
        computed = end_to_end(plain)

    metrics = {m["name"]: {"value": computed[m["name"]][0], "unit": m["unit"]} for m in wanted}
    record = {
        "meta": meta, "wall_s": time.perf_counter() - start,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "errors": [e for s in samples for e in s["errors"]]
        + [f"sample {i}: traced output differs from untraced" for i in mismatched],
        "metrics": {name: {"median": value, "unit": metrics[name]["unit"], "samples": vals}
                    for name, (value, vals) in computed.items()},
        "samples": samples,
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(plain)} python={meta['python']} commit={meta['commit']} "
          f"nproc={meta['nproc']} loadavg={meta['loadavg_start']}")
    for name, (value, vals) in computed.items():
        print(f"  {name:36s} {value:.6g} {metrics[name]['unit']} (median of {len(vals)})")
    for name in ("setup_s", "run_s"):
        wall = _median([s["wall"][name] for s in plain])
        print(f"  {'(wall time of ' + name + ')':36s} {wall:.6g} s (median of {len(plain)})")
    print(f"  {'fail_frac':36s} {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for line in record["errors"]:
        print(f"  error: {line}")
    print(f"  results: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
