"""Deterministic report artifacts: comparison tables, resilience curves,
loss exceedance plots.

Everything here must be byte-stable across reruns: JSON is written with
sorted keys, floats go through repr (shortest round-trip form), and plots
are hand-rolled SVG polylines with fixed formatting. No timestamps.
"""

from __future__ import annotations

import functools
import hashlib
import json
from itertools import repeat
from json.encoder import encode_basestring_ascii

from .errors import ConfigError


def fmt_float(x) -> str:
    """Shortest exact decimal form; integers stay integral."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


_CONTAINERS = (dict, list, tuple)
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@functools.cache
def _flat_encoder(depth: int):
    """json's own encoder (C where CPython has it) for a container at
    `depth` holding no container: one item per line, brackets inline."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "),
                            sort_keys=True).encode


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return _flat_encoder(0)({key: 0})[1:-4]  # json's key rule: '{"1": 0}'


def _json_text(obj, depth: int) -> str:
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_WORDS.get(text, text)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    if not isinstance(obj, _CONTAINERS):
        return _flat_encoder(0)(obj)  # str, true, false, null or TypeError
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    pad = "\n" + "  " * depth
    # exact scalar types settle most flat containers without an isinstance
    if (_SCALAR_TYPES.issuperset(map(type, values))
            or not any(map(isinstance, values, repeat(_CONTAINERS)))):
        text = _flat_encoder(depth)(obj)
        if len(text) == 2:  # [] or {}
            return text
        return f"{text[0]}{pad}  {text[1:-1]}{pad}{text[-1]}"
    if is_dict:
        parts = [_key_text(k) + ": " + _json_text(v, depth + 1)
                 for k, v in sorted(obj.items())]
    else:
        parts = [_json_text(v, depth + 1) for v in obj]
    # brackets go on the end parts, so that the join is the one big copy
    parts[0] = ("{" if is_dict else "[") + pad + "  " + parts[0]
    parts[-1] += pad + ("}" if is_dict else "]")
    return ("," + pad + "  ").join(parts)


def json_text(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte. Python
    walks the document only down to its flat containers (those holding no
    dict, list or tuple); each of those is one call of json's encoder."""
    return _json_text(obj, 0)


def _write(path: str, text: str) -> str:
    """Write `text` as UTF-8 in one write; return the bytes' SHA-256."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_json(obj, path: str) -> str:
    """Write `json_text(obj)` and a newline; returns the bytes' SHA-256.
    The text is built before the file is opened, so a value json cannot
    encode raises TypeError and leaves an existing file as it was."""
    return _write(path, json_text(obj) + "\n")


def _cell(v) -> str:
    if isinstance(v, str):
        if "," in v or "\n" in v or "\r" in v:
            raise ConfigError(f"csv cell needs quoting: {v!r}")
        return v
    if v is None:
        return ""
    if isinstance(v, (int, float)):
        return fmt_float(v)
    return str(v)


def write_csv(path: str, header: list, rows: list) -> str:
    """Plain CSV with repr-stable float formatting, written as `write_json`
    writes. Header and row cells must not contain commas, line feeds or
    carriage returns (ids and numbers only)."""
    lines = [",".join(map(_cell, row)) for row in [header, *rows]]
    return _write(path, "\n".join(lines) + "\n")


def relative_gap(value, ref):
    """(value - ref) / ref, or None unless both exist and ref is above 0."""
    if value is None or ref is None or not ref > 0:
        return None
    return (value - ref) / ref


COMPARISON_HEADER = [
    "magnitude", "scenario_id", "solver", "status", "objective",
    "makespan_hours", "weighted_completion", "ens_mwh", "gap_vs_exact",
]


def write_comparison_csv(plans: list, path: str) -> str:
    """One row per plan document of a study, sorted by (magnitude,
    scenario_id, solver). A row's gap is its objective's relative gap to
    the `ok` exact plan of the same scenario, and empty unless the row has
    an objective and that exact objective is above 0."""
    exact = {(d["magnitude"], d["scenario_id"]): d["objective"]["value"]
             for d in plans if d["solver"] == "exact" and d["status"] == "ok"}
    table = []
    for d in sorted(plans, key=lambda d: (d["magnitude"], d["scenario_id"],
                                          d["solver"])):
        obj = d.get("objective", {})
        gap = relative_gap(obj.get("value"),
                           exact.get((d["magnitude"], d["scenario_id"])))
        table.append([d["magnitude"], d["scenario_id"], d["solver"],
                      d["status"], obj.get("value"), obj.get("makespan_hours"),
                      obj.get("weighted_completion"), d.get("ens_mwh"), gap])
    return write_csv(path, COMPARISON_HEADER, table)


def write_resilience_csv(curves: dict, path: str) -> str:
    """curves: name -> (hours list, fraction list); all on the same grid."""
    names = sorted(curves)
    if not names:
        raise ConfigError("no curves to write")
    grid = curves[names[0]][0]
    for name in names:
        if list(curves[name][0]) != list(grid):
            raise ConfigError("resilience curves on different time grids")
    columns = [curves[name][1] for name in names]
    return write_csv(path, ["hour"] + names,
                     list(zip(grid, *columns, strict=True)))


# --- SVG plotting -----------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 62, 16, 34, 46
# every plotted curve is a fraction (served load, exceedance probability)
_YLIM = (0.0, 1.05)


def _svg_coords(xs, ys, xlim):
    x0, x1 = xlim
    y0, y1 = _YLIM
    sx = (_W - _ML - _MR) / (x1 - x0)
    sy = (_H - _MT - _MB) / (y1 - y0)
    pts = []
    for x, y in zip(xs, ys):
        px = _ML + (x - x0) * sx
        py = _H - _MB - (y - y0) * sy
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def _ticks(lo, hi, count=5):
    step = (hi - lo) / count
    return [lo + i * step for i in range(count + 1)]


def _svg_text(text: str) -> str:
    """`text` as SVG character data: `&` and `<` escaped, nothing else."""
    return text.replace("&", "&amp;").replace("<", "&lt;")


def plot_lines_svg(curves: dict, path: str, title: str,
                   xlabel: str, ylabel: str, step: bool = False) -> str:
    """Write a fixed-size SVG line chart of fractions over [0, 1.05] and
    return its SHA-256. curves: name -> (xs, ys). All text is escaped."""
    names = sorted(curves)
    if not names:
        raise ConfigError("nothing to plot")
    all_x = [x for n in names for x in curves[n][0]]
    if not all_x:
        raise ConfigError("empty curves")
    xlim = (min(all_x), max(all_x) if max(all_x) > min(all_x) else min(all_x) + 1)

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">')
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    parts.append(
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_svg_text(title)}</text>')

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
    y0, y1 = _YLIM
    for ty in _ticks(y0, y1):
        py = _H - _MB - (ty - y0) * (_H - _MT - _MB) / (y1 - y0)
        parts.append(f'<line x1="{ax_x0 - 4}" y1="{py:.2f}" x2="{ax_x0}" '
                     f'y2="{py:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{ax_x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.3g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{_svg_text(xlabel)}</text>')
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.0f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.0f})">'
                 f'{_svg_text(ylabel)}</text>')

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
        pts = _svg_coords(xs, ys, xlim)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 120}" y1="{ly}" '
                     f'x2="{_W - _MR - 96}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        parts.append(f'<text x="{_W - _MR - 90}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{_svg_text(name)}</text>')

    parts.append("</svg>")
    return _write(path, "\n".join(parts) + "\n")


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
