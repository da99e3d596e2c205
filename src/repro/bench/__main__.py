"""Command-line regeneration of the paper's evaluation artifacts.

Usage::

    python -m repro.bench table1
    python -m repro.bench stencil ipic3d tpc          # Fig. 7 panels
    python -m repro.bench all --quick --out results/  # one JSON per panel
    python -m repro.bench --scaling --churn --smoke --check  # pinned panels
    python -m repro.bench --ablations --quick --sentinel     # observed re-run

Every run goes through :func:`repro.bench.panel.run_panel`, once per
requested panel (:data:`PANELS`).  The positional names are selectors:
``table1`` prints Table 1, ``stencil|ipic3d|tpc|all`` run the scaling
panel restricted to those Fig. 7 applications.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench import ablations, churn, comms, placement, scaling, service
from repro.bench.panel import OBSERVERS, panel_mode, run_panel
from repro.bench.report import render_table1
from repro.bench.tables import table1

#: every pinned panel, in the order the CLI runs them; to add one,
#: define a ``Panel`` (see :mod:`repro.bench.panel`) and list it here
PANELS = (
    scaling.PANEL,
    placement.PANEL,
    churn.PANEL,
    service.PANEL,
    comms.PANEL,
    ablations.PANEL,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    choices = ["table1", *scaling.APPS, "all"]
    panel_flags = "/".join(f"--{panel.name}" for panel in PANELS)
    parser.add_argument(
        "artifacts",
        nargs="*",
        metavar=f"{{{','.join(choices)}}}",
        help="which artifact(s) to regenerate: Table 1 and/or the scaling "
        "panel for the named Fig. 7 apps (default without a panel flag: all)",
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
        help="directory to write <panel>.json into, one per requested "
        "panel: the section --write-baseline would pin",
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
        choices=sorted(scaling.APPS),
        default=None,
        help="run the scaling panel for one app under cProfile and print "
        "the top-20 functions by cumulative time (quick mode unless --smoke)",
    )
    for observer in OBSERVERS:
        parser.add_argument(
            f"--{observer.flag}", action="store_true", help=observer.help
        )
    args = parser.parse_args(argv)

    for artifact in args.artifacts:
        if artifact not in choices:
            parser.error(
                f"argument artifacts: invalid choice: {artifact!r} "
                f"(choose from {', '.join(map(repr, choices))})"
            )

    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.runcall(
            run_panel,
            scaling.select([args.profile]),
            "smoke" if args.smoke else "quick",
        )
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
        return 0

    requested = [panel for panel in PANELS if getattr(args, panel.name)]
    wanted = set(args.artifacts) or (set() if requested else {"all"})
    if "all" in wanted:
        wanted |= {"table1", *scaling.APPS}
    if "table1" in wanted:
        print(render_table1(table1()))
        print()
    apps = [app for app in scaling.APPS if app in wanted]
    if args.write_baseline and 0 < len(apps) < len(scaling.APPS):
        parser.error("--write-baseline would pin a partial scaling section")
    if apps:
        requested = [
            scaling.select(apps),
            *(panel for panel in requested if panel is not scaling.PANEL),
        ]

    # every requested panel runs, even after an earlier one failed
    passed = [
        run_panel(
            panel,
            panel_mode(args.quick, args.smoke),
            write=args.write_baseline,
            check=args.check,
            out=args.out,
            observers=[o for o in OBSERVERS if getattr(args, o.flag)],
        )
        for panel in requested
    ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
