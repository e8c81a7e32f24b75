"""Deterministic report artifacts: comparison tables, resilience curves,
loss exceedance plots.

Everything here must be byte-stable across reruns: JSON is written with
sorted keys, floats go through repr (shortest round-trip form), and plots
are hand-rolled SVG polylines with fixed formatting. No timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConfigError


def fmt_float(x) -> str:
    """Shortest exact decimal form; integers stay integral."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def write_json(obj, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, header: list, rows: list):
    """Plain CSV with repr-stable float formatting. Values must not contain
    commas or newlines (ids and numbers only)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, str):
                    if "," in v or "\n" in v:
                        raise ConfigError(f"csv cell needs quoting: {v!r}")
                    cells.append(v)
                elif v is None:
                    cells.append("")
                elif isinstance(v, (int, float)):
                    cells.append(fmt_float(v))
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


@dataclass
class ComparisonRow:
    magnitude: float
    scenario_id: int
    solver: str
    status: str  # 'ok' | 'limit' | 'error'
    objective: float | None
    makespan_hours: float | None
    weighted_completion: float | None
    ens_mwh: float | None
    gap_vs_exact: float | None = None


COMPARISON_HEADER = [
    "magnitude", "scenario_id", "solver", "status", "objective",
    "makespan_hours", "weighted_completion", "ens_mwh", "gap_vs_exact",
]


def fill_gaps(rows: list) -> list:
    """Compute each row's relative objective gap against the exact solver's
    row for the same (magnitude, scenario)."""
    exact = {}
    for r in rows:
        if r.solver == "exact" and r.status == "ok" and r.objective is not None:
            exact[(r.magnitude, r.scenario_id)] = r.objective
    out = []
    for r in rows:
        ref = exact.get((r.magnitude, r.scenario_id))
        gap = None
        if ref is not None and r.objective is not None and ref > 0:
            gap = (r.objective - ref) / ref
        out.append(ComparisonRow(**{**r.__dict__, "gap_vs_exact": gap}))
    return out


def write_comparison_csv(rows: list, path: str):
    rows = sorted(rows, key=lambda r: (r.magnitude, r.scenario_id, r.solver))
    table = [
        [r.magnitude, r.scenario_id, r.solver, r.status, r.objective,
         r.makespan_hours, r.weighted_completion, r.ens_mwh, r.gap_vs_exact]
        for r in rows
    ]
    write_csv(path, COMPARISON_HEADER, table)


def write_resilience_csv(curves: dict, path: str):
    """curves: name -> (hours list, fraction list); all on the same grid."""
    names = sorted(curves)
    if not names:
        raise ConfigError("no curves to write")
    grid = curves[names[0]][0]
    for name in names:
        if list(curves[name][0]) != list(grid):
            raise ConfigError("resilience curves on different time grids")
    rows = []
    for i, t in enumerate(grid):
        rows.append([t] + [curves[name][1][i] for name in names])
    write_csv(path, ["hour"] + names, rows)


# --- SVG plotting -----------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 62, 16, 34, 46


def _svg_coords(xs, ys, xlim, ylim):
    x0, x1 = xlim
    y0, y1 = ylim
    sx = (_W - _ML - _MR) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (_H - _MT - _MB) / (y1 - y0 if y1 > y0 else 1.0)
    pts = []
    for x, y in zip(xs, ys):
        px = _ML + (x - x0) * sx
        py = _H - _MB - (y - y0) * sy
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def _ticks(lo, hi, count=5):
    if hi <= lo:
        return [lo]
    step = (hi - lo) / count
    return [lo + i * step for i in range(count + 1)]


def plot_lines_svg(curves: dict, path: str, title: str,
                   xlabel: str, ylabel: str,
                   ylim: tuple | None = None, step: bool = False):
    """Write a fixed-size SVG line chart. curves: name -> (xs, ys)."""
    names = sorted(curves)
    if not names:
        raise ConfigError("nothing to plot")
    all_x = [x for n in names for x in curves[n][0]]
    all_y = [y for n in names for y in curves[n][1]]
    if not all_x:
        raise ConfigError("empty curves")
    xlim = (min(all_x), max(all_x) if max(all_x) > min(all_x) else min(all_x) + 1)
    if ylim is None:
        pad = 0.05 * max(max(all_y) - min(all_y), 1e-9)
        ylim = (min(all_y) - pad, max(all_y) + pad)

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">')
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    parts.append(
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>')

    # axes
    ax_x0, ax_y0 = _ML, _H - _MB
    ax_x1, ax_y1 = _W - _MR, _MT
    parts.append(f'<line x1="{ax_x0}" y1="{ax_y0}" x2="{ax_x1}" y2="{ax_y0}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{ax_x0}" y1="{ax_y0}" x2="{ax_x0}" y2="{ax_y1}" '
                 f'stroke="black" stroke-width="1"/>')
    for tx in _ticks(*xlim):
        px = _ML + (tx - xlim[0]) * (_W - _ML - _MR) / (xlim[1] - xlim[0])
        parts.append(f'<line x1="{px:.2f}" y1="{ax_y0}" x2="{px:.2f}" '
                     f'y2="{ax_y0 + 4}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{ax_y0 + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:.3g}</text>')
    for ty in _ticks(*ylim):
        py = _H - _MB - (ty - ylim[0]) * (_H - _MT - _MB) / (ylim[1] - ylim[0])
        parts.append(f'<line x1="{ax_x0 - 4}" y1="{py:.2f}" x2="{ax_x0}" '
                     f'y2="{py:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{ax_x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.3g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.0f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.0f})">{ylabel}</text>')

    for i, name in enumerate(names):
        xs, ys = curves[name]
        if step:
            sx, sy = [], []
            for j in range(len(xs)):
                if j > 0:
                    sx.append(xs[j])
                    sy.append(ys[j - 1])
                sx.append(xs[j])
                sy.append(ys[j])
            xs, ys = sx, sy
        color = _PALETTE[i % len(_PALETTE)]
        pts = _svg_coords(xs, ys, xlim, ylim)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 120}" y1="{ly}" '
                     f'x2="{_W - _MR - 96}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        parts.append(f'<text x="{_W - _MR - 90}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">{name}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def resilience_curves_ok(curves: dict) -> list:
    """Validate restoration curves: served fraction never decreases (loads
    are frozen, equipment only returns) and the final value is 1. Returns a
    list of violation strings."""
    problems = []
    for name in sorted(curves):
        _, ys = curves[name]
        for a, b in zip(ys, ys[1:]):
            if b < a - 1e-9:
                problems.append(f"{name}: served fraction drops {a} -> {b}")
                break
        if abs(ys[-1] - 1.0) > 1e-6:
            problems.append(f"{name}: final served fraction {ys[-1]} != 1")
    return problems
