#!/usr/bin/env python3
"""The repository benchmark: ``python3 ledger/run.py [options]``.

Without ``--workload`` every workload of BENCHMARK.json runs, one at a
time, each in its own fresh single-threaded interpreter (the box has two
cores; nothing else generates load).  With ``--workload NAME`` the
workload runs in this interpreter.  Either way every metric is printed by
name with unit, direction and regression bound, the exit code is non-zero
if any output check failed, and the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics, or with ``--trace`` the per-layer metrics.

    --workload NAME   one of BENCHMARK.json's workloads
    --seed N          workload inputs are a pure function of it (default 1)
    --seconds S       keep starting timed repetitions while the next one
                      fits into S seconds (at least one)
    --reps N          exactly N timed repetitions instead (default 3 when
                      neither is given)
    --trace [0|1]     the traced pass: per-layer metrics, trace file in
                      ledger/out/
    --scale smoke     reduced sizes of the benchmark (check.sh), not of the
                      program
    --json OUT        also write the full report(s) to OUT
    --selfcheck       run the end-to-end set twice, compare against the
                      bounds in BENCHMARK.json
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: relative difference below which two runs of a deterministic metric count
#: as identical (they are compared after a JSON round trip)
EXACT_REL = 1e-9


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def is_exact(metric: str) -> bool:
    """Simulated statistics repeat exactly at a fixed seed; host ones do not."""
    return metric.startswith("sim_")


# -- printing -------------------------------------------------------------------------


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.6g}"


def print_metrics(title: str, values: dict[str, float], specs: list[dict]) -> None:
    print(f"  {title}")
    if values.keys() != {spec["name"] for spec in specs}:
        raise SystemExit(f"{title}: metric names differ from BENCHMARK.json")
    for spec in specs:  # catalogue order: grouped by layer
        name, value = spec["name"], values[spec["name"]]
        bound = f"  bound {spec['bound']:g}" if "bound" in spec else ""
        print(
            f"    {name:<40} {_format(value):>18} {spec['unit']:<8} "
            f"({spec['better']} is better){bound}"
        )


def print_report(report: dict, benchmark: dict) -> None:
    samples = report["samples"]
    print(
        f"== {report['workload']}  seed={report['seed']} "
        f"scale={report['scale']}  work unit: {report['work_unit']} =="
    )
    print(
        f"  host timings: median of n={samples['reps']} repetition(s), "
        f"measured {[round(w, 4) for w in samples['rep_wall_s']]} s; with "
        f"n < 11 no tail percentile qualifies; "
        f"{samples['descheduled_reruns']} descheduled re-run(s); "
        f"set-up = import {samples['import_s']:.3f} s + median of "
        f"{len(samples['build_s'])} build(s); both reported in "
        f"load-normalised seconds, calibration kernels "
        f"{[round(k, 4) for k in samples['kernel_s']]} s"
    )
    print_metrics("end to end", report["end_to_end"], benchmark["end_to_end"])
    share = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(
        f"    {'ops_failed_share':<40} {share:>18.6g} {'ratio':<8} "
        f"(lower is better)  bound 0   "
        f"[{report['failed']} of {report['attempted']}]"
    )
    if report["traced"]:
        print_metrics("per layer", report["per_layer"], benchmark["per_layer"])
        wall = report["per_layer"]["trace_wall_s"]
        print("  layer share of traced wall:")
        for name, value in report["per_layer"].items():
            if name.endswith(".host_self_s") and not name.startswith("mpi."):
                layer = name[: -len(".host_self_s")]
                print(f"    {layer:<24} {100.0 * value / wall:6.2f} %")
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  correct: {report['correct']}")


def result_line(report: dict) -> str:
    """The driver's contract: last line of stdout, exactly these keys."""
    benchmark = load_benchmark()
    kind = "per_layer" if report["traced"] else "end_to_end"
    units = {spec["name"]: spec["unit"] for spec in benchmark[kind]}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in report[kind].items()
            },
        }
    )


# -- one workload, in this interpreter ----------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from ledger.measure import measure  # imports the program

    import_s = time.perf_counter() - _PROCESS_START
    report = measure(
        args.workload,
        args.seed,
        args.scale,
        seconds=args.seconds,
        reps=args.reps,
        trace=bool(args.trace),
        import_s=import_s,
        origin=_PROCESS_START,
    )
    out = report.to_dict()
    if report.traced:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace_{report.workload}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "workload": report.workload,
                    "seed": report.seed,
                    "scale": report.scale,
                    "spans": out["spans"],
                    "sections": [s.to_dict() for s in report.sections],
                },
                indent=1,
            )
            + "\n"
        )
        print(f"  trace written to {trace_path.relative_to(ROOT)}")
    print_report(out, load_benchmark())
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    print(result_line(out))
    return 0 if report.correct else 1


# -- every workload, one fresh interpreter each ---------------------------------------


def run_set(args: argparse.Namespace, label: str) -> dict[str, dict]:
    """Run every workload in its own interpreter; returns their reports."""
    OUT.mkdir(exist_ok=True)
    reports: dict[str, dict] = {}
    for workload in (w["name"] for w in load_benchmark()["workloads"]):
        path = OUT / f"report_{label}_{workload}.json"
        path.unlink(missing_ok=True)
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--scale", args.scale,
            "--trace", str(args.trace),
            "--json", str(path),
        ]
        if args.reps is not None:
            command += ["--reps", str(args.reps)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # the child's last line is its machine-readable result; the set
        # prints one of its own
        sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stdout.flush()
        if not path.exists():
            raise SystemExit(
                f"{workload}: exited with {completed.returncode} and no report"
            )
        reports[workload] = json.loads(path.read_text())
    return reports


def set_result_line(reports: dict[str, dict]) -> str:
    return json.dumps(
        {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "workloads": {
                name: r["per_layer"] if r["traced"] else r["end_to_end"]
                for name, r in reports.items()
            },
        }
    )


def run_all(args: argparse.Namespace) -> int:
    reports = run_set(args, "all")
    if args.json:
        Path(args.json).write_text(json.dumps(reports, indent=1) + "\n")
    print(set_result_line(reports))
    return 0 if all(r["correct"] for r in reports.values()) else 1


# -- --selfcheck ------------------------------------------------------------------------


def selfcheck(args: argparse.Namespace) -> int:
    """Two end-to-end sets back to back, compared metric by metric."""
    args.trace = 0
    first = run_set(args, "selfcheck_a")
    second = run_set(args, "selfcheck_b")
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    differing = 0
    print("== selfcheck: set B against set A ==")
    for workload, a in first.items():
        b = second[workload]
        for metric, bound in bounds.items():
            va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
            relative = abs(vb - va) / abs(va)
            if is_exact(metric):
                verdict = "agree" if relative <= EXACT_REL else "DIFFER (exact)"
                differing += relative > EXACT_REL
            elif relative <= bound:
                verdict = "agree"
            else:
                verdict = "unresolved (spread > bound)"
            print(
                f"  {workload:<20} {metric:<18} {_format(va):>16} "
                f"{_format(vb):>16}  {relative:8.2%}  {verdict}"
            )
        for report in (a, b):
            if not report["correct"]:
                differing += 1
                print(f"  {workload}: a run failed its output checks")
    if args.json:
        Path(args.json).write_text(
            json.dumps({"a": first, "b": second}, indent=1) + "\n"
        )
    return 1 if differing else 0


# -- command line ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--reps", type=int)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--json")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        # a directory holding only the benchmark: nothing to measure
        print(f"ledger: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in load_benchmark()["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
