"""Benchmark harness utilities: series, ASCII plots, expectation checks.

The paper's evaluation figures plot *cumulative time spent (ms)* against
*number of operations* (Fig. 7, Fig. 8).  The harness reproduces each
figure as a :class:`FigureResult`: the same series, the paper's
qualitative expectations as machine-checked assertions, and an ASCII
rendering for the bench log.

Scale: Fig. 7 runs 10,000 ops and Fig. 8 5,000 per client (the paper
runs 60,000).  The time model is per-operation, so the series are
straight lines and every comparison (who wins, by what factor, where
crossovers fall) is invariant to the op count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.kv import PAPER_VALUE

__all__ = ["FigureResult", "write_then_read", "ascii_chart", "format_table"]


def write_then_read(client, keys: list[bytes],
                    value: str = PAPER_VALUE.decode(), prefix: str = "",
                    read: bool = False):
    """Connect ``client``, ``write_latest`` every ``prefix + key``, then
    (``read=True``) ``read_latest`` each back in the same order: the
    load the ablations and the scalability bench drive."""
    yield from client.connect()
    for key in keys:
        yield from client.write_latest(prefix + key.decode(), value)
    if read:
        for key in keys:
            yield from client.read_latest(prefix + key.decode())


@dataclass
class FigureResult:
    """One regenerated figure: series, totals, and checked expectations."""

    figure: str
    title: str
    series: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    expectations: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one paper-shape expectation (checked by the bench)."""
        self.expectations.append((name, bool(ok), detail))

    @property
    def all_expectations_met(self) -> bool:
        return all(ok for _n, ok, _d in self.expectations)

    def failed_expectations(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.expectations
                if not ok]

    def render(self) -> str:
        """Human-readable block for the bench log."""
        lines = [f"== {self.figure}: {self.title} =="]
        if self.series:
            lines.append(ascii_chart(self.series))
        if self.totals:
            lines.append(format_table(
                [(k, f"{v:,.1f}") for k, v in sorted(self.totals.items())],
                headers=("series", "total (ms)")))
        for name, ok, detail in self.expectations:
            mark = "PASS" if ok else "FAIL"
            lines.append(f"  [{mark}] {name}" + (f" — {detail}" if detail else ""))
        return "\n".join(lines)


_GLYPHS = "*o+x#@%&"


def ascii_chart(series: dict[str, list[tuple[float, float]]],
                width: int = 68, height: int = 16) -> str:
    """Plot (x, y) series on a character grid (the bench-log figure)."""
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xmax = max(x for x, _ in points) or 1
    ymax = max(y for _, y in points) or 1
    grid = [[" "] * width for _ in range(height)]
    legend = []
    for idx, (label, pts) in enumerate(sorted(series.items())):
        glyph = _GLYPHS[idx % len(_GLYPHS)]
        legend.append(f"{glyph} {label}")
        for x, y in pts:
            col = min(width - 1, int(x / xmax * (width - 1)))
            row = min(height - 1, int(y / ymax * (height - 1)))
            grid[height - 1 - row][col] = glyph
    out = []
    for i, row in enumerate(grid):
        y_label = ""
        if i == 0:
            y_label = f"{ymax:,.0f} ms"
        elif i == height - 1:
            y_label = "0"
        out.append("".join(row) + "  " + y_label)
    out.append("-" * width)
    out.append(f"0 .. {xmax:,.0f} ops")
    out.append("   ".join(legend))
    return "\n".join(out)


def format_table(rows: list[tuple], headers: tuple = ()) -> str:
    """Fixed-width text table."""
    str_rows = [tuple(str(c) for c in row) for row in rows]
    if headers:
        str_rows.insert(0, tuple(str(h) for h in headers))
    if not str_rows:
        return "(empty)"
    widths = [max(len(row[i]) for row in str_rows)
              for i in range(len(str_rows[0]))]
    lines = []
    for i, row in enumerate(str_rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if headers and i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
