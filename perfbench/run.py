"""dohazard benchmark runner.

Run from anywhere; the checkout is the directory above this file:

    python3 perfbench/run.py --workload experiment_backdoor --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, each in a fresh process

One process runs one workload. It times set-up in fresh child processes,
then runs passes of the workload through ``dohazard.cli.main`` until
--seconds have passed (at least two, so output bytes can be compared) and
checks the outputs of every pass. With --trace 0 it reports the end-to-end
metrics; with --trace 1 every other pass is traced (see spans.py) and it
reports the per-layer metrics, the passes in between giving the untraced
time that the tracing overhead is measured against. The process and its
set-up probes run on one CPU, so OpenBLAS starts one thread and the
process never migrates.

End-to-end metrics: setup_s is the median of SETUP_RUNS set-ups;
pipeline_ref_ratio the median pass time over the median time of the
reference kernel that yardstick.py samples throughout an untraced run, so
the pass in units of the machine's speed while it ran; peak_rss_mb the
process's ru_maxrss after its first pass, since a later pass in the same
process can land on a heap that kept an earlier pass's freed blocks. The
median wall time per pass is printed and recorded beside them as
pipeline_s.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The full record
(seed, machine, digests, pass times, spans) is written to
.perfbench_out/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans
import workloads
import yardstick

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 5
MIN_PASSES = 2
END_TO_END_UNITS = {"setup_s": "s", "pipeline_ref_ratio": "ratio", "peak_rss_mb": "MB"}


def pin_to_one_cpu() -> dict:
    """Keep this process, and every process it starts, on one allowed CPU.
    Call it before numpy is imported, so OpenBLAS sizes its pool to one."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return {"usable_cpus": len(allowed), "pinned_cpu": max(allowed)}


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _commit() -> str | None:
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def _source_sha256() -> str:
    """Digest of every file under src/, so a record names the code it measured."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu() -> dict:
    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = size
    return {"cpu_model": model, "l2_cache": caches.get("l2"), "l3_cache": caches.get("l3")}


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        **_cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def measure_setup(name: str, seed: int, work: Path) -> list:
    """Seconds from spawning a fresh interpreter to it being ready for a
    first pass, SETUP_RUNS times."""
    samples = []
    for k in range(SETUP_RUNS):
        cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), name, str(seed), str(work / f"probe{k}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            try:
                proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode} after printing {line!r}")
    return samples


def _no_span(name, **attrs):
    return nullcontext({})


def one_pass(cli, plan, tracer, ruler=None) -> tuple:
    """Run the plan's CLI calls once; returns (seconds, problems). The time
    a sampling ruler (a yardstick.Yardstick) spent in the pass is not
    counted."""
    span = tracer.span if tracer else _no_span
    problems = []
    spent = ruler.spent if ruler else 0.0
    with spans.installed(tracer) if tracer else nullcontext():
        start = time.perf_counter()
        try:
            with span("pass"):
                for argv in plan.argvs:
                    with span("cli.main", command=argv[3]):
                        try:
                            rc = cli.main(argv)
                        except SystemExit as exc:  # argparse exits rather than returning
                            rc = exc.code
                    if rc != 0:
                        problems.append(f"dohazard {argv[3]} exited {rc}")
                        break
        except Exception:
            problems.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
    if ruler:
        elapsed -= ruler.spent - spent
    return elapsed, problems


def run_workload(cli, plan, seconds: float, trace: bool) -> dict:
    """Passes until `seconds` have elapsed, each checked; returns the raw
    record. An untraced run samples the reference kernel throughout."""
    times, traced_times, untraced_times = [], [], []
    problems, digests, layers, span_log, peaks = [], [], [], [], []
    ruler = None if trace else yardstick.Yardstick()
    with ruler.sampling() if ruler else nullcontext():
        start = time.perf_counter()
        i = 0
        while i < MIN_PASSES or time.perf_counter() - start < seconds:
            tracer = spans.Tracer() if trace and i % 2 == 0 else None
            elapsed, found = one_pass(cli, plan, tracer, ruler)
            peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            times.append(elapsed)
            (traced_times if tracer else untraced_times).append(elapsed)
            if not found:
                try:
                    found = workloads.check_pass(plan)
                    digests.append(workloads.digests(plan))
                except (OSError, ValueError, KeyError) as exc:
                    found = [f"outputs unreadable: {exc!r}"]
            if not found and digests[-1] != digests[0]:
                found = [f"output bytes differ from the first pass: {digests[-1]} vs {digests[0]}"]
            problems.append(found)
            if tracer and not found:
                spans.probe_cox(tracer)
                layers.append(spans.layer_metrics(tracer))
                span_log += [dict(vars(s), passno=i) for s in tracer.spans]
            i += 1
    if plan.name == "cohort_1e6" and digests:
        roundtrip = workloads.check_cohort_roundtrip(plan)
        if roundtrip:
            problems = [p + roundtrip for p in problems]
    return {
        "times": times,
        "traced_times": traced_times,
        "untraced_times": untraced_times,
        "kernel_times": ruler.samples if ruler else [],
        "problems": problems,
        "digests": digests[0] if digests else None,
        "layers": layers,
        "spans": span_log,
        "peak_rss_mb": peaks,
    }


def _percentile_line(times: list) -> str:
    """Median untraced pass time and the highest percentile with at least
    ten samples above it."""
    n = len(times)
    line = f"pipeline_s median {statistics.median(times):.6g} s over {n} passes"
    if n > 10:
        line += f"; p{100 * (n - 10) // n} {sorted(times)[n - 11]:.6g} s"
    return line


def run_one(args) -> int:
    name = args.workload
    seed = workloads.DEFAULT_SEEDS[name] if args.seed is None else args.seed
    pinning = pin_to_one_cpu()
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    try:
        setup = measure_setup(name, seed, work)
        cli = workloads.load_package(ROOT)
        plan = workloads.prepare(name, seed, work / "run")
        raw = run_workload(cli, plan, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(raw["times"])
    failed = sum(1 for p in raw["problems"] if p)
    if args.trace:
        values = spans.combine_passes(raw["layers"], raw["traced_times"], raw["untraced_times"])
        metrics = {k: {"value": values[k], "unit": spans.LAYER_UNITS[k]} for k in spans.LAYER_UNITS}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pipeline_ref_ratio": statistics.median(raw["untraced_times"]) / statistics.median(raw["kernel_times"]),
            "peak_rss_mb": raw["peak_rss_mb"][0],
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}

    record = {
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_info(), **pinning},
        "setup_samples_s": setup,
        "pipeline_s": statistics.median(raw["untraced_times"]),
        "pass_times_s": raw["times"],
        "kernel_times_s": raw["kernel_times"],
        "peak_rss_mb_after_pass": raw["peak_rss_mb"],
        "output_sha256": raw["digests"],
        "problems": [p for p in raw["problems"] if p],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "spans": raw["spans"],
    }
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for found in record["problems"][:3]:
        print("pass failed: " + "; ".join(found), file=sys.stderr)
    print(f"workload {name} seed {seed} trace {args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("output_sha256 " + json.dumps(raw["digests"], sort_keys=True))
    print(_percentile_line(raw["untraced_times"]))
    if raw["kernel_times"]:
        kernel = raw["kernel_times"]
        print(f"reference kernel median {statistics.median(kernel):.6g} s over {len(kernel)} samples")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted} passes failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so ru_maxrss is its own."""
    results = {}
    for name in workloads.DEFAULT_SEEDS:
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print()
    for name, r in results.items():
        if r is None:
            print(f"{name:22} did not finish")
            continue
        for key, m in r["metrics"].items():
            print(f"{name:22} {key:26} {m['value']:12.6g} {m['unit']}")
        print(f"{name:22} {'fail_ratio':26} {r['failed'] / r['attempted']:12.6g} ratio")
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.DEFAULT_SEEDS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="scenario seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "dohazard" / "__init__.py").is_file():
        print(f"error: no dohazard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
