"""One repetition of a workload, in a fresh process started by run.py.

    python3 bench/child.py --root <checkout> --workload <name> --seeds 3[,4,...] [--trace]

Imports numpy, then cwmoduli from <checkout>/src, runs the workload's units
in order once per seed, times each unit around its call, and prints one JSON
object on stdout: the times numpy was imported and "inputs ready" was reached
(CLOCK_MONOTONIC, shared with the parent), the main thread's CPU time when
numpy was imported, the import time of cwmoduli, the peak RSS, and per unit
its wall and CPU time, output digest and error. With --trace, timing wrappers
are installed first and the spans and per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# group-info --json fields that do not depend on the seed or the working prime
TABLE_FIELDS = ("order", "class_sizes", "representative_orders", "degrees",
                "rational_values")


def free_vectors(G, datum):
    """All Hurwitz vectors of one branching datum, serially, as a list."""
    from cwmoduli import hurwitz
    return list(hurwitz.enumerate_hurwitz_vectors(G, datum))


def free_law(spec: str, seed: int) -> str:
    """Acceptance criterion 5: free actions have a regular multiple 2k-1 at every k."""
    from cwmoduli import characters, chevalley_weil, groups, hurwitz
    G = groups.group_from_spec(spec)
    datum = hurwitz.BranchingData(2, ())
    vectors = free_vectors(G, datum)
    T = characters.character_table(G, k_max=2 * G.order,
                                   g_max=hurwitz.genus(datum, G), seed=seed)
    failures = 0
    for v in vectors:
        for k in range(2, 2 * G.order + 1):
            mv = chevalley_weil.cw_character(v, T, k)
            if chevalley_weil.regular_multiple(mv, T) != 2 * k - 1:
                failures += 1
    if failures:
        raise AssertionError(f"the regular law failed {failures} times")
    return json.dumps({"group": spec, "vectors": len(vectors)})


def run_cli(argv, seed: int) -> str:
    from cwmoduli import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def digest(unit, text: str) -> str:
    """sha256 of what the correctness gate compares for this unit."""
    if unit.argv[0] == "group-info":
        record = json.loads(text)
        text = json.dumps({key: record[key] for key in TABLE_FIELDS}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    src = Path(args.root, "src").resolve()

    # Interpreter start plus `import numpy` is the reference: it does not
    # depend on the program, and run.py scales timings by it. Its CPU time is
    # the main thread's, because numpy's own threads spin at import.
    import numpy
    reference = time.monotonic()
    reference_cpu = time.thread_time()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import cwmoduli
    import_s = time.perf_counter() - t0
    if Path(cwmoduli.__file__).resolve().parent != src / "cwmoduli":
        raise SystemExit(f"imported cwmoduli from {cwmoduli.__file__}, not {src}")

    from workloads import WORKLOADS
    units = WORKLOADS[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(sys.modules[__name__])
    ready = time.monotonic()

    results = []
    stdout_bytes = 0
    for seed in seeds:
        for unit in units:
            text, error = "", None
            c0 = time.process_time()
            w0 = time.perf_counter()
            try:
                if unit.kind == "cli":
                    text = run_cli(unit.argv, seed)
                else:
                    text = free_law(unit.argv[0], seed)
            except (Exception, SystemExit) as exc:
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            if unit.kind == "cli":
                stdout_bytes += len(text.encode())
            results.append({"unit": unit.name, "seed": seed, "wall_s": wall,
                            "cpu_s": cpu, "error": error,
                            "digest": None if error else digest(unit, text)})

    report = {
        "reference_monotonic": reference,
        "reference_cpu_s": reference_cpu,
        "ready_monotonic": ready,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "results": results,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(import_s, stdout_bytes)
        report["spans"] = tracer.spans
        report["leaves"] = tracer.leaves()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
