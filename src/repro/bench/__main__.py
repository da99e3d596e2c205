"""Command-line regeneration of the paper's evaluation artifacts.

Usage::

    python -m repro.bench table1
    python -m repro.bench stencil ipic3d tpc          # Fig. 7 panels
    python -m repro.bench all --quick --out results/  # CSV per panel
    python -m repro.bench --scaling --churn --smoke --check  # pinned panels

Each Fig. 7 panel prints the regenerated table; with ``--out`` the raw
numbers are additionally written as CSV files.  The pinned panels
(:data:`PANELS`) all go through :func:`repro.bench.panel.run_panel`.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.bench import churn, comms, placement, scaling, service
from repro.bench.figures import FIG7_BUILDERS
from repro.bench.panel import panel_mode, run_panel
from repro.bench.report import (
    region_cache_csv,
    region_cache_stats,
    render_region_cache,
    render_series,
    render_table1,
    series_to_csv,
)
from repro.bench.tables import table1

#: every pinned panel, in the order the CLI runs them; to add one,
#: define a ``Panel`` (see :mod:`repro.bench.panel`) and list it here
PANELS = (
    scaling.PANEL,
    placement.PANEL,
    churn.PANEL,
    service.PANEL,
    comms.PANEL,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    choices = ["table1", *FIG7_BUILDERS, "all"]
    panel_flags = "/".join(f"--{panel.name}" for panel in PANELS)
    parser.add_argument(
        "artifacts",
        nargs="*",
        metavar=f"{{{','.join(choices)}}}",
        help="which artifact(s) to regenerate (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sweeps (1/4/16 nodes, reduced workloads)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="minimal CI smoke run (1/4 nodes, reduced workloads)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to write CSV files into",
    )
    for panel in PANELS:
        parser.add_argument(
            f"--{panel.name}", action="store_true", help=panel.help
        )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="with any panel flag (" + panel_flags + "): merge this run's "
        "section into the panel's BENCH_*_baseline.json; refused if the "
        "run fails the panel's own claims",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="with any panel flag (" + panel_flags + "): compare against "
        "the committed baseline; non-zero exit if any simulated value "
        "differs or wall clock regresses >20%%",
    )
    parser.add_argument(
        "--profile",
        metavar="APP",
        choices=sorted(FIG7_BUILDERS),
        default=None,
        help="profile one panel under cProfile and print the top-20 "
        "functions by cumulative time (quick mode unless --smoke)",
    )
    parser.add_argument(
        "--sentinel",
        action="store_true",
        help="re-run each panel with the runtime invariant sentinel "
        "attached; report checking overhead and any violations "
        "(non-zero exit if an invariant fails)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="re-run each panel with static admission analysis attached; "
        "report per-panel analysis wall time and finding counts "
        "(non-zero exit if any error finding surfaces)",
    )
    args = parser.parse_args(argv)

    for artifact in args.artifacts:
        if artifact not in choices:
            parser.error(
                f"argument artifacts: invalid choice: {artifact!r} "
                f"(choose from {', '.join(map(repr, choices))})"
            )

    wanted = set(args.artifacts or ["all"])
    if "all" in wanted:
        wanted = {"table1", *FIG7_BUILDERS}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    if args.profile is not None:
        import cProfile
        import pstats

        build = FIG7_BUILDERS[args.profile]
        quick = args.quick or not args.smoke
        profiler = cProfile.Profile()
        profiler.enable()
        build(quick=quick, smoke=args.smoke)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
        return 0

    requested = [panel for panel in PANELS if getattr(args, panel.name)]
    # every requested panel runs, even after an earlier one failed
    passed = [
        run_panel(
            panel,
            panel_mode(args.quick, args.smoke),
            write=args.write_baseline,
            check=args.check,
        )
        for panel in requested
    ]
    if not all(passed):
        return 1
    if requested and not (args.artifacts or args.sentinel or args.analyze):
        return 0

    if "table1" in wanted:
        print(render_table1(table1()))
        print()

    ran_panels = False
    total_violations = 0
    total_analysis_errors = 0
    for name, build in FIG7_BUILDERS.items():
        if name not in wanted:
            continue
        ran_panels = True
        if args.sentinel:
            # cold-start every timed segment (see the matching reset
            # before the checked run below)
            from repro.regions.kernel import get_kernel

            get_kernel().reset()
        started = time.perf_counter()
        series = build(quick=args.quick, smoke=args.smoke)
        elapsed = time.perf_counter() - started
        print(render_series(series))
        print(f"(regenerated in {elapsed:.1f}s wall time)")
        print()
        if args.sentinel:
            import gc

            from repro.regions.kernel import get_kernel
            from repro.runtime import sentinel as sentinel_mod

            # the baseline run above started with cold region-kernel
            # caches; a second run in the same process inherits its
            # interned regions and op-LRU entries plus their GC
            # pressure, which alone inflates wall time by >10% on the
            # stencil panel.  Reset to the baseline's cold-start state
            # so the delta measures the sentinel, not cache history.
            get_kernel().reset()
            gc.collect()
            sentinel_mod.enable_globally(
                sentinel_mod.SentinelConfig.bench_profile()
            )
            try:
                checked_started = time.perf_counter()
                build(quick=args.quick, smoke=args.smoke)
                checked_elapsed = time.perf_counter() - checked_started
            finally:
                sentinels = sentinel_mod.drain_created()
                sentinel_mod.reset_global()
            checks = sum(s.checks for s in sentinels)
            scans = sum(s.scans for s in sentinels)
            violations = sum(len(s.violations) for s in sentinels)
            total_violations += violations
            overhead = (
                (checked_elapsed / elapsed - 1.0) * 100.0 if elapsed else 0.0
            )
            print(
                f"(sentinel: {checked_elapsed:.1f}s wall time, "
                f"{overhead:+.1f}% overhead, {checks} checks, "
                f"{scans} scans, {violations} violation(s))"
            )
            for sentinel in sentinels:
                for line in sentinel.report_lines()[1:]:
                    print(line)
            print()
        if args.analyze:
            from repro.analysis import admission

            admission.enable_globally(admission.AdmissionConfig(strict=False))
            try:
                analyzed_started = time.perf_counter()
                build(quick=args.quick, smoke=args.smoke)
                analyzed_elapsed = time.perf_counter() - analyzed_started
            finally:
                controllers = admission.drain_created()
                admission.reset_global()
            reports = [
                report
                for controller in controllers
                for report in controller.reports
            ]
            analysis_time = sum(report.elapsed for report in reports)
            counts = {"error": 0, "warning": 0, "info": 0}
            for report in reports:
                for severity, count in report.counts().items():
                    counts[severity] += count
            total_analysis_errors += counts["error"]
            share = (
                analysis_time / analyzed_elapsed * 100.0
                if analyzed_elapsed
                else 0.0
            )
            print(
                f"(analysis: {analysis_time * 1000.0:.1f} ms over "
                f"{len(reports)} submission(s) ({share:.1f}% of "
                f"{analyzed_elapsed:.1f}s wall time), "
                f"{counts['error']} error(s), {counts['warning']} "
                f"warning(s), {counts['info']} info(s))"
            )
            for report in reports:
                if not report.clean:
                    for line in report.render_lines(max_findings=10):
                        print(f"  {line}")
            print()
        if args.out is not None:
            path = args.out / f"fig7_{name}.csv"
            path.write_text(series_to_csv(series))
            print(f"wrote {path}")
            print()

    if ran_panels:
        stats = region_cache_stats()
        print(render_region_cache(stats))
        print()
        if args.out is not None:
            path = args.out / "region_cache.csv"
            path.write_text(region_cache_csv(stats))
            print(f"wrote {path}")
            print()
    if total_violations:
        print(f"sentinel: {total_violations} invariant violation(s) detected")
        return 1
    if total_analysis_errors:
        print(f"analysis: {total_analysis_errors} error finding(s) detected")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
