"""Rendering of benchmark results as ASCII tables and CSV."""

from __future__ import annotations

import io
from typing import Sequence

from repro.bench.harness import ScalingSeries
from repro.bench.tables import Table1Row


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Plain fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(str(cell)))
    lines = []
    header = "  ".join(h.ljust(widths[k]) for k, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(widths[k]) for k, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_table1(rows: Sequence[Table1Row]) -> str:
    return render_table(
        ["Name", "Description", "Data Structure", "Problem Size", "Metric"],
        [row.as_tuple() for row in rows],
    )


def _fmt(value: float) -> str:
    if value >= 1e6:
        return f"{value:.4g}"
    if value >= 100:
        return f"{value:.1f}"
    return f"{value:.3g}"


def render_series(series: ScalingSeries) -> str:
    """One Fig. 7 panel as a table: nodes | AllScale | MPI | linear."""
    linear = series.linear("allscale")
    rows = []
    for point, ideal in zip(series.points, linear):
        rows.append(
            (
                str(point.nodes),
                _fmt(point.allscale),
                _fmt(point.mpi),
                _fmt(ideal),
                f"{point.ratio:.2f}",
            )
        )
    title = f"Fig. 7 — {series.app} throughput [{series.metric}]"
    body = render_table(
        ["nodes", "AllScale", "MPI", "linear", "AS/MPI"], rows
    )
    return f"{title}\n{body}"


def render_region_cache(stats: dict[str, int]) -> str:
    """The kernel's per-op hit/miss counters as an ASCII table."""
    ops = sorted(
        {
            name.split(".")[1]
            for name in stats
            if name.count(".") == 2 and name.endswith(".hits")
        }
    )
    rows = []
    for op in ops:
        hits = stats.get(f"region.{op}.hits", 0)
        misses = stats.get(f"region.{op}.misses", 0)
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "-"
        rows.append((op, str(hits), str(misses), rate))
    hits = stats.get("region.cache_hits", 0)
    misses = stats.get("region.cache_misses", 0)
    total = hits + misses
    rate = f"{hits / total:.1%}" if total else "-"
    rows.append(("TOTAL", str(hits), str(misses), rate))
    body = render_table(["op", "hits", "misses", "hit rate"], rows)
    interned = stats.get("region.interned", 0)
    return (
        f"Region kernel cache ({interned} regions interned)\n{body}"
    )


def series_to_csv(series: ScalingSeries) -> str:
    """CSV text with the panel's raw numbers."""
    out = io.StringIO()
    out.write("app,metric,nodes,allscale,mpi,linear\n")
    linear = series.linear("allscale")
    for point, ideal in zip(series.points, linear):
        out.write(
            f"{series.app},{series.metric},{point.nodes},"
            f"{point.allscale!r},{point.mpi!r},{ideal!r}\n"
        )
    return out.getvalue()
