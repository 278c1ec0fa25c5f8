"""spoofnet benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload corpus_annotate --seed 1 --seconds 15 --trace 0

Runs from the root of a spoofnet checkout and imports the package from
its ``src/``. Set-up runs SETUP_REPEATS times, each in a child process,
and ``setup_s`` is the median. The timed part repeats the workload's
pass until ``--seconds`` have gone by and the workload's minimum pass
count is reached. With ``--trace 0`` the result holds every end-to-end
metric of BENCHMARK.json; with ``--trace 1`` a warm-up pass is followed
by alternating traced and untraced passes, and the result holds every
per-layer metric, per traced pass, including the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Each run
also writes .bench_out/<workload>-seed<seed>-trace<t>.json with the
workload's own metrics, the failures, the input and environment
fingerprint and (traced) the full layer table, plus the spans.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is imported: the paper's
# one-core claim, and stable timings on a small shared machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_program():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "spoofnet" / "__init__.py").is_file():
        fail(f"no spoofnet package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import spoofnet
    if Path(spoofnet.__file__).resolve().parent != SRC / "spoofnet":
        fail(f"imported spoofnet from {spoofnet.__file__}, not from {SRC}")


def set_up(workload: str, seed: int, work: Path,
           trace_to: Path | None) -> tuple[list[float], list[Path]]:
    """Run set-up SETUP_REPEATS times; returns the times and the input
    directories. With trace_to, the first repeat is traced and writes its
    layer table there."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    times, dirs = [], []
    for k in range(SETUP_REPEATS):
        out = work / f"inputs{k}"
        argv = [sys.executable, str(BENCH_DIR / "workloads.py"), workload, str(seed), str(out)]
        if trace_to is not None and k == 0:
            argv.append(str(trace_to))
        t0 = perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up of {workload} exited {proc.returncode}")
        dirs.append(out)
    return times, dirs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    import_program()
    import numpy as np
    from fingerprint import environment, inputs_digest, machine_probe_ms
    from layertrace import Tracer
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        work.mkdir(parents=True)
        setup_trace = work / "setup_layers.json"
        setup_times, input_dirs = set_up(args.workload, args.seed, work,
                                         setup_trace if args.trace else None)
        setup_layers = (json.loads(setup_trace.read_text(encoding="utf-8"))
                        if args.trace else {})
        outcome = Outcome()
        digests = [inputs_digest(d) for d in input_dirs]
        outcome.record(len(set(digests)) == 1, f"set-up repeats differ: {digests}")
        for extra in input_dirs[1:]:
            shutil.rmtree(extra)

        workload = WORKLOADS[args.workload](input_dirs[0], work, args.seed, outcome)
        untraced, traced = [], []
        tracer = Tracer()
        probe_ms = [machine_probe_ms()]
        start = perf_counter()
        if args.trace:
            # a first pass pays one-off costs (allocator growth, caches);
            # it is left out so that it does not bias the overhead
            workload.run_pass(0)
            while not traced or perf_counter() - start < args.seconds:
                with tracer:
                    traced.append(workload.run_pass(1 + len(untraced) + len(traced)))
                untraced.append(workload.run_pass(1 + len(untraced) + len(traced)))
        else:
            while (len(untraced) < workload.min_passes
                   or perf_counter() - start < args.seconds):
                untraced.append(workload.run_pass(len(untraced)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_ms.append(machine_probe_ms())
        named = workload.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pass_s = float(np.median(untraced))
    named = {workload.pass_name: (pass_s, "s"), **named}
    generic = {"setup_s": float(np.median(setup_times)), "peak_rss_mb": peak_rss_mb,
               "pass_s": pass_s}
    generic.update({g: named[own][0] for g, own in workload.generic.items()})

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": len(untraced) + len(traced),
              "setup_s": setup_times, "pass_s": untraced, "machine_probe_ms": probe_ms,
              "metrics": named,
              "attempted": outcome.attempted, "failed": len(outcome.failures),
              "fail_frac": len(outcome.failures) / outcome.attempted,
              "failures": outcome.failures[:50],
              "fingerprint": {"inputs_sha256": digests[0], **environment()}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        overhead_s = float(np.median(traced)) - pass_s
        per_pass = {k: {"s": v["s"] / len(traced), "calls": v["calls"] / len(traced)}
                    for k, v in sorted(tracer.summary().items())}
        counters = {k: v / len(traced) for k, v in tracer.counters.items()}
        result.update(traced_pass_s=traced, trace_overhead_s=overhead_s, layers=per_pass,
                      counters=counters, setup_layers=setup_layers)
        reported = per_layer_metrics(spec, {**setup_layers, **per_pass}, counters, overhead_s)
        tracer.write_spans(out_dir / f"{stem}.spans.jsonl.gz")
    else:
        reported = {m["name"]: generic[m["name"]] for m in spec["end_to_end"]}
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n",
                                          encoding="utf-8")

    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} setup_s = {generic['setup_s']:.6g} s "
          f"(median of {len(setup_times)})")
    print(f"{args.workload} peak_rss_mb = {peak_rss_mb:.6g} MB")
    print(f"{args.workload} fail_frac = {result['fail_frac']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(f"{args.workload} machine probe = {probe_ms[0]:.4g} ms before, "
          f"{probe_ms[1]:.4g} ms after the timed part")
    if args.trace:
        print(f"{args.workload} tracing overhead = {result['trace_overhead_s']:.6g} s "
              f"per pass ({100 * result['trace_overhead_s'] / pass_s:.1f}% of {pass_s:.6g} s)")
    for failure in outcome.failures[:10]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0 if not outcome.failures else 1


def per_layer_metrics(spec, layers, counters, overhead_s) -> dict:
    """Every per-layer metric of BENCHMARK.json from the layer table and
    counters (per traced pass; set-up-only layers per set-up). A layer
    the workload never calls reads 0."""
    derived = {
        "cache.hit_frac": (counters["cache.cached"] / counters["cache.attempted"]
                           if counters.get("cache.attempted") else 0.0),
        "cache.file_bytes": counters.get("cache.file_bytes", 0.0),
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0.0),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in derived:
            out[name] = derived[name]
        else:
            function, field = name.rsplit(".", 1)
            out[name] = layers.get(function, {"s": 0.0, "calls": 0})[field]
    return out


if __name__ == "__main__":
    sys.exit(main())
