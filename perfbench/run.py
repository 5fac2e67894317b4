#!/usr/bin/env python3
"""synctrail benchmark: what an examiner waits for, end to end and by layer.

Run from the repository root; the program is imported from `src/`:

    python3 perfbench/run.py --workload sync-bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

`--trace 0` sets up the case several times (`setup_s`), then, until
`--seconds` have passed, runs `synctrail run-all` on a fresh unsealed
copy of the bundle and `synctrail verify` on the bundle it sealed, each
in its own child process, one at a time (a closed loop with one
client). Wall time comes from the clock, CPU time and peak RSS from
`os.wait4` of that child. A tampered copy is verified once at the end.
Times are reported in reference seconds (`reference.py`); the plain
wall-clock medians are printed and kept beside them.

`--trace 1` runs `run-all` in this process instead, alternating untraced
runs with runs traced by `tracing.py`, and prints the per-layer metrics.

Every operation's output is checked (`oracle.py`). The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
Results and the last traced run's spans are kept under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import cases
import oracle
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIB = 1024 * 1024

# setup_s is the median of at least this many set-ups spanning this long.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MIN_RUNS = 3  # end-to-end samples taken even when --seconds has passed
MIN_TRACED_PAIRS = 2
CHILD = "import sys; from synctrail.cli import run; sys.exit(run(sys.argv[1:]))"

E2E_UNITS = {
    "setup_s": "s",
    "runall_s": "s",
    "runall_cpu_s": "s",
    "runall_peak_rss_mib": "MiB",
    "verify_s": "s",
    "written_mib": "MiB",
}


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    stderr: str


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, operation: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{operation}: {'; '.join(problems[:3])}")


def run_child(args: list, work: Path) -> Child:
    """Run one synctrail subcommand in a child process and reap it with wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = work / "child-stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, *map(str, args)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024,  # KiB on Linux
        stderr=lines[-1] if lines else "",
    )


def machine_context() -> dict:
    pinned = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": pinned,
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def set_up(workload: str, seed: int, work: Path):
    """Generate the case and a sealed, tampered copy of its bundle."""
    from synctrail.acquisition import ingest_device_dump
    from synctrail.preservation import seal_dump, write_sealed_manifest
    from synctrail.simulator import inject_tamper

    case = cases.WORKLOADS[workload](seed, work / "case")
    tampered = work / "tampered"
    shutil.copytree(case.bundle, tampered)
    write_sealed_manifest(seal_dump(ingest_device_dump(tampered)), tampered)
    _, tamper_index = inject_tamper(tampered, seed)
    return case, tampered, tamper_index


def bytes_written(out: Path, bundle: Path) -> int:
    files = [p for p in out.rglob("*") if p.is_file()] + [bundle / "manifest.sealed.json"]
    return sum(p.stat().st_size for p in files)


def check_report(out: Path, expected: dict, first: list) -> tuple[list[str], bytes]:
    """Check the report in `out`, and that its bytes equal the first report's."""
    paths = list(out.glob("*.report.json"))
    if len(paths) != 1:
        return [f"want one *.report.json in {out.name}, found {len(paths)}"], b""
    report = paths[0].read_bytes()
    digest = hashlib.sha256(report).hexdigest()
    if not first:
        first.append(digest)
    if digest != first[0]:
        return [f"report sha256 {digest} differs from the first run's {first[0]}"], report
    return oracle.report_problems(json.loads(report), expected), report


def fresh_copy(bundle: Path, work: Path) -> tuple[Path, Path]:
    for name in ("bundle", "out"):
        shutil.rmtree(work / name, ignore_errors=True)
    shutil.copytree(bundle, work / "bundle")
    return work / "bundle", work / "out"


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> dict:
    scale = reference.Scale()
    setup_times: list[float] = []
    setup_scales: list[float] = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        target = work / f"setup-{len(setup_times)}"
        start = time.perf_counter()
        case, tampered, tamper_index = set_up(workload, seed, target)
        setup_times.append(time.perf_counter() - start)
        setup_scales.append(scale.after())
        if len(setup_times) > 1:  # only the last set-up is kept
            shutil.rmtree(work / f"setup-{len(setup_times) - 2}")

    tally, first_sha = Tally(), []
    runs: list[Child] = []
    verifies: list[Child] = []
    run_scales: list[float] = []
    verify_scales: list[float] = []
    written: list[int] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        bundle, out = fresh_copy(case.bundle, work)
        run = run_child(["run-all", bundle, case.cloud_log, "--out", out], work)
        run_scales.append(scale.after())
        runs.append(run)
        problems = [f"run-all exited {run.code}: {run.stderr}"] if run.code else []
        if not problems:
            problems, _ = check_report(out, case.expected, first_sha)
            written.append(bytes_written(out, bundle))
        tally.add("run-all", problems)
        verify = run_child(["verify", bundle], work)
        verify_scales.append(scale.after())
        verifies.append(verify)
        problems = [f"verify exited {verify.code}: {verify.stderr}"] if verify.code else []
        tally.add("verify", problems)

    tamper_out = work / "tamper-out"
    check = run_child(["verify", tampered, "--out", tamper_out], work)
    verification = tamper_out / "verification.json"
    tally.add(
        "tampered verify",
        oracle.tamper_problems(
            check.code,
            json.loads(verification.read_text()) if verification.is_file() else None,
            tamper_index,
        ),
    )

    wall = {
        "setup_s": (setup_times, setup_scales),
        "runall_s": ([r.wall_s for r in runs], run_scales),
        "runall_cpu_s": ([r.cpu_s for r in runs], run_scales),
        "verify_s": ([v.wall_s for v in verifies], verify_scales),
    }
    metrics = {
        name: statistics.median(t * f for t, f in zip(times, factors))
        for name, (times, factors) in wall.items()
    }
    metrics["runall_peak_rss_mib"] = statistics.median(r.peak_rss_mib for r in runs)
    metrics["written_mib"] = statistics.median(written) / MIB if written else 0.0
    notes = {
        "samples": {"setup": len(setup_times), "run-all": len(runs), "verify": len(verifies)},
        "report_sha256": first_sha[0] if first_sha else None,
        "wall_medians": {name: statistics.median(times) for name, (times, _) in wall.items()},
        "kernel_median_s": statistics.median(scale.kernels),
        "kernels_s": scale.kernels,
        "raw": {name: {"wall": times, "scale": factors} for name, (times, factors) in wall.items()},
    }
    return {"tally": tally, "metrics": metrics, "notes": notes}


def in_process_run_all(entry, argv: list[str]) -> tuple[int, float, str]:
    """Call `entry(argv)` in this process; return exit code, wall time, last stderr line."""
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            code = entry(argv)
        except Exception as exc:  # a crash fails this operation, not the benchmark
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        wall = time.perf_counter() - start
    lines = captured.getvalue().strip().splitlines()
    return code, wall, lines[-1] if lines else ""


def per_layer(workload: str, seed: int, seconds: float, work: Path) -> dict:
    from synctrail import cli

    case = cases.WORKLOADS[workload](seed, work / "case")
    tally, first_sha = Tally(), []
    walls: dict[bool, list[float]] = {False: [], True: []}
    layer_runs: list[dict] = []
    spans: list[list] = []
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        # Alternate which side goes first, so drift hits both alike.
        for traced in (pair % 2 == 1, pair % 2 == 0):
            bundle, out = fresh_copy(case.bundle, work)
            argv = ["run-all", str(bundle), str(case.cloud_log), "--out", str(out)]
            tracer = tracing.Tracer() if traced else None
            if tracer is None:
                code, wall, last = in_process_run_all(cli.run, argv)
            else:
                with tracing.installed(tracer):
                    entry = tracer.wrap(tracing.ROOT_SPAN, cli.run)
                    code, wall, last = in_process_run_all(entry, argv)
            walls[traced].append(wall)
            operation = "traced run-all" if traced else "run-all"
            if code:
                tally.add(operation, [f"run-all exited {code}: {last}"])
                continue
            problems, report = check_report(out, case.expected, first_sha)
            if tracer is not None and not problems:
                problems = tracing.span_problems(tracer.spans)
                if not problems:
                    layer_runs.append(
                        tracing.layer_metrics(tracer.spans, json.loads(report), len(report))
                    )
                    spans = tracer.spans
            tally.add(operation, problems)
        pair += 1

    metrics = tracing.median_metrics(layer_runs) if layer_runs else {}
    if walls[True] and walls[False]:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["trace.overhead_s"] = overhead
    notes = {
        "samples": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "report_sha256": first_sha[0] if first_sha else None,
    }
    return {"tally": tally, "metrics": metrics, "notes": notes, "spans": spans}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("per_record") or name.endswith("per_link"):
        return "ratio"
    return "count"


def write_spans(path: Path, run_id: str, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for index, (name, parent, start, end) in enumerate(spans):
            row = {"run": run_id, "id": index, "parent": parent, "name": name,
                   "start_ns": start, "end_ns": end}
            out.write(json.dumps(row) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    context = machine_context()
    try:
        measure_fn = per_layer if trace else end_to_end
        result = measure_fn(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = result["tally"]
    label = f"{workload}-seed{seed}-trace{int(trace)}"
    print(f"# {label}: nproc={context['nproc']} pinned_cpus={context['pinned_cpus']} "
          f"python={context['python']} loadavg={context['loadavg']} "
          f"samples={result['notes']['samples']}")
    print(f"# report_sha256 {result['notes']['report_sha256']}")
    if "wall_medians" in result["notes"]:
        print(f"# wall-clock medians {result['notes']['wall_medians']}, reference kernel "
              f"median {result['notes']['kernel_median_s']:.4f} s")
    for name, value in result["metrics"].items():
        print(f"{workload:16s} {name:40s} {value:14.6f} {unit_of(name)}")
    print(f"{workload:16s} {'failed_share':40s} "
          f"{tally.failed / max(tally.attempted, 1):14.6f} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "context": context, "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "metrics": result["metrics"], "notes": result["notes"],
    }
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(summary, indent=2) + "\n")
    if result.get("spans"):
        write_spans(results / f"{label}-spans.jsonl", label, result["spans"])
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="sync-bulk, metadata-only, repeated-content, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "synctrail" / "cli.py").is_file():
        print(f"error: no synctrail sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import synctrail

    if Path(synctrail.__file__).resolve().parent != SRC / "synctrail":
        print(f"error: synctrail imported from {synctrail.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(cases.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in cases.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    reference.pin_to_one_cpu()
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)

    summaries = [
        measure(name, args.seed, args.seconds, trace) for trace in modes for name in names
    ]
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if len(summaries) == 1:
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in summaries[0]["metrics"].items()
        }
    else:
        metrics = {}
        for s in summaries:
            for name, value in s["metrics"].items():
                metrics[f"{s['workload']}/{name}"] = {"value": value, "unit": unit_of(name)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
