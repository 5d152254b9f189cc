"""Benchmark runner for cwmoduli: see bench/README.md.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --check [--workload <name>] [--seed <n>]
    python3 bench/run.py --record-golden

The measured run starts one fresh child process (bench/child.py) after
another until --seconds have passed; each child runs the workload's units
once. Every unit of every child is checked against bench/golden.json. The
last line of stdout is one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1); a readable summary and a noise record
go to stderr, and the full record, spans included, to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracing import LAYER_UNITS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

# A run must end within 180 s; no child is given longer than this.
RUN_LIMIT_S = 170.0
# Seeds of the quick check, as offsets from --seed, and of --record-golden.
CHECK_SEED_OFFSETS = (0, 1, 2, 3)
GOLDEN_SEEDS = range(32)

# Timings are scaled to a host on which the reference (start of a fresh
# interpreter plus `import numpy`, measured in every child) takes this long,
# in wall time for wall_s and setup_s and in CPU time for cpu_s. README.md
# says why.
REFERENCE_S = 0.15

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def spawn(workload: str, seeds, trace: bool, deadline: float) -> dict:
    """Run one child to completion; its report, or {"error": ...} if it failed."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--seeds", ",".join(str(s) for s in seeds)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    env.pop("CW_MODULI_THREADS", None)  # the program runs at its defaults
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"error": "child timed out", "traced": trace}
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "traced": trace}
    report = json.loads(proc.stdout.splitlines()[-1])
    report["reference_s"] = report["reference_monotonic"] - start
    report["setup_s"] = report["ready_monotonic"] - start
    report["traced"] = trace
    return report


def load_golden() -> Dict[str, Dict[str, List[str]]]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def unit_failures(workload: str, children: List[dict], golden) -> List[str]:
    """Every unit that raised, crashed with its child or missed its golden digest."""
    names = [u.name for u in WORKLOADS[workload]]
    allowed = golden.get(workload, {})
    failures = []
    for i, child in enumerate(children):
        if "error" in child:
            failures += [f"child {i} {name}: {child['error']}" for name in names]
            continue
        for r in child["results"]:
            if r["error"]:
                failures.append(f"child {i} {r['unit']}: {r['error']}")
            elif r["digest"] not in allowed.get(r["unit"], ()):
                failures.append(f"child {i} {r['unit']}: digest {r['digest'][:16]} "
                                "is not a golden output")
    return failures


def per_unit(children: List[dict], key: str) -> Dict[str, List[float]]:
    """Samples of one timing per unit, over the children where the unit passed."""
    out: Dict[str, List[float]] = {}
    for child in children:
        for r in child.get("results", ()):
            if not r["error"]:
                out.setdefault(r["unit"], []).append(r[key])
    return out


def sum_of_medians(samples: Dict[str, List[float]]) -> float:
    return sum(statistics.median(v) for v in samples.values())


def tail_note(values: List[float]) -> str:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}; no percentile has ten samples beyond it"
    q = 100 * (n - 10) // n
    return f"n={n}; p{q}={sorted(values)[n * q // 100 - 1]:.4f}"


def cpu_jiffies() -> Optional[Dict[str, int]]:
    """Aggregate busy, idle and steal jiffies from /proc/stat (read-only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    user, nice, system, idle, iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return {"busy": user + nice + system + irq + softirq, "idle": idle + iowait,
            "steal": steal}


def noise_start() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "loadavg_start": os.getloadavg(), "jiffies_start": cpu_jiffies()}


def noise_end(noise: dict, numpy_version: Optional[str]) -> dict:
    start, end = noise.pop("jiffies_start"), cpu_jiffies()
    noise["numpy"] = numpy_version
    noise["jiffies_delta"] = (None if start is None or end is None
                              else {k: end[k] - start[k] for k in start})
    return noise


def measure(workload: str, seed: int, seconds: int, trace: bool) -> int:
    golden = load_golden()
    noise = noise_start()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    children: List[dict] = []
    # With --trace 1, untraced and traced children alternate, so that the
    # run measures the tracing overhead and compares the two runs' digests.
    while (len(children) < (2 if trace else 1)
           or time.monotonic() - start < seconds):
        traced = trace and len(children) % 2 == 1
        children.append(spawn(workload, [seed], traced, deadline))
        if time.monotonic() > deadline:
            break
    elapsed = time.monotonic() - start
    failures = unit_failures(workload, children, golden)
    ok = [c for c in children if "error" not in c]
    plain = [c for c in ok if not c["traced"]]
    traced = [c for c in ok if c["traced"]]
    if trace:
        for name, digests in per_unit(ok, "digest").items():
            if len(set(digests)) > 1:
                failures.append(f"{name}: traced and untraced digests differ")
    attempted = len(children) * len(WORKLOADS[workload])
    noise = noise_end(noise, ok[0]["numpy"] if ok else None)

    wall = per_unit(plain, "wall_s")
    cpu = per_unit(plain, "cpu_s")
    rep_walls = [sum(r["wall_s"] for r in c["results"]) for c in plain]
    setup = [c["setup_s"] for c in plain]
    rss = [c["peak_rss_mb"] for c in plain]
    raw: Dict[str, float] = {}
    metrics: Dict[str, float] = {}
    if plain and all(wall.values()):
        raw = {"wall_s": sum_of_medians(wall), "cpu_s": sum_of_medians(cpu),
               "setup_s": statistics.median(setup),
               "reference_s": statistics.median(c["reference_s"] for c in plain),
               "reference_cpu_s": statistics.median(c["reference_cpu_s"] for c in plain)}
        wall_scale = REFERENCE_S / raw["reference_s"]
        cpu_scale = REFERENCE_S / raw["reference_cpu_s"]
        metrics = {
            "wall_s": raw["wall_s"] * wall_scale,
            "cpu_s": raw["cpu_s"] * cpu_scale,
            "setup_s": raw["setup_s"] * wall_scale,
            "peak_rss_mb": statistics.median(rss),
            "pass_ratio": 1 - len(failures) / attempted,
        }
    layers: Dict[str, float] = {}
    if traced and metrics:
        per_child = [c["layers"] for c in traced]
        layers = {name: statistics.median(pc[name] for pc in per_child)
                  for name in per_child[0]}
        layers["trace.overhead_ratio"] = (sum_of_medians(per_unit(traced, "wall_s"))
                                          / raw["wall_s"])

    log = sys.stderr
    print(f"workload {workload}  seed {seed}  {len(children)} children "
          f"({len(traced)} traced) in {elapsed:.1f} s", file=log)
    for name, unit in END_TO_END_UNITS.items():
        if name in metrics:
            print(f"  {name:<12} {metrics[name]:.6g} {unit}", file=log)
    if metrics:
        print(f"  fail_ratio   {len(failures) / attempted:.6g} "
              f"({len(failures)} of {attempted} units)", file=log)
        print(f"  unscaled: wall_s {raw['wall_s']:.6g} s, cpu_s {raw['cpu_s']:.6g} s, "
              f"setup_s {raw['setup_s']:.6g} s; reference {raw['reference_s']:.6g} s "
              f"wall, {raw['reference_cpu_s']:.6g} s CPU", file=log)
        print(f"  unscaled wall per repetition: {tail_note(rep_walls)}", file=log)
        print(f"  unscaled setup: {tail_note(setup)}", file=log)
    for name, value in layers.items():
        print(f"  {name:<40} {value:.6g} {LAYER_UNITS[name]}", file=log)
    print(f"  noise: {json.dumps(noise)}", file=log)
    for line in failures[:20]:
        print(f"  FAILED {line}", file=log)

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "noise": noise, "metrics": metrics, "unscaled": raw, "layers": layers,
              "failures": failures, "children": children}
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)

    if not metrics or (trace and not layers):
        print("no complete repetition; no result", file=log)
        return 1
    shown = ({n: (v, LAYER_UNITS[n]) for n, v in layers.items()} if trace
             else {n: (v, END_TO_END_UNITS[n]) for n, v in metrics.items()})
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in shown.items()},
    }))
    return 0


def digests_by_unit(workload: str, seeds) -> Dict[str, Dict[int, Optional[str]]]:
    child = spawn(workload, seeds, False, time.monotonic() + 3600)
    if "error" in child:
        raise SystemExit(f"{workload}: {child['error']}")
    out: Dict[str, Dict[int, Optional[str]]] = {}
    for r in child["results"]:
        if r["error"]:
            print(f"{workload} / {r['unit']} seed {r['seed']}: {r['error']}")
        out.setdefault(r["unit"], {})[r["seed"]] = r["digest"]
    return out


def check(workloads: List[str], seed: int) -> int:
    """Every unit once per seed: digests must agree across seeds and be golden."""
    golden = load_golden()
    seeds = [seed + d for d in CHECK_SEED_OFFSETS]
    bad = 0
    for workload in workloads:
        for unit, by_seed in digests_by_unit(workload, seeds).items():
            distinct = set(by_seed.values())
            in_golden = distinct <= set(golden.get(workload, {}).get(unit, ()))
            ok = len(distinct) == 1 and None not in distinct and in_golden
            bad += not ok
            note = "" if ok else (f"  {len(distinct)} distinct digests over seeds "
                                  f"{seeds}" + ("" if in_golden else "; not golden"))
            print(f"{'ok  ' if ok else 'FAIL'} {workload} / {unit}{note}")
    print(f"{bad} unit(s) failed the seed-independence check" if bad
          else "all units agree across seeds and match the golden digests")
    return 1 if bad else 0


def record_golden() -> int:
    """Record every digest the current program gives over GOLDEN_SEEDS."""
    golden = {}
    for workload in WORKLOADS:
        by_unit = digests_by_unit(workload, list(GOLDEN_SEEDS))
        if any(None in by_seed.values() for by_seed in by_unit.values()):
            return 1
        golden[workload] = {unit: sorted(set(by_seed.values()))
                            for unit, by_seed in by_unit.items()}
        for unit, digests in golden[workload].items():
            print(f"{workload} / {unit}: {len(digests)} digest(s)")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run every unit once under four seeds and compare digests")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite bench/golden.json from the current program")
    args = parser.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # running child before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cwmoduli" / "__init__.py").is_file():
        print(f"no cwmoduli sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.check:
        return check([args.workload] if args.workload else list(WORKLOADS), args.seed)
    if args.workload is None:
        parser.error("--workload is required for a measured run")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
