"""Self-contained SVG line plots (no external assets, byte-deterministic)."""

from __future__ import annotations

import math
from typing import Sequence

# Stroke dash patterns; line style carries the series identity, as in the
# monochrome figure convention (solid / broken / dotted / dot-and-dash).
DASH_STYLES = {
    "solid": None,
    "broken": "9,5",
    "dotted": "2,4",
    "dotdash": "11,4,2,4",
}

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 78
_MARGIN_RIGHT = 24
_MARGIN_TOP = 42
_MARGIN_BOTTOM = 58
_TINY = 1e-300  # far above the subnormals, where a tick step keeps few digits


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t - hi <= 1e-9 * span:  # past the float maximum t is inf, which ends it
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _axis(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi], padded when a tick step (a fraction of its span) could not advance
    a float: equal or nearly equal bounds, or a span too small for subnormal floats
    to hold its ticks. The pad is a tenth of |lo| each side, or 1 where that is tiny."""
    if hi - lo > max(1024 * math.ulp(max(abs(lo), abs(hi))), _TINY):
        return lo, hi
    pad = 0.1 * abs(lo)
    if pad < _TINY:
        pad = 1.0
    return lo - pad, hi + pad


def _fmt_tick(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def write_line_plot(
    path,
    title: str,
    x_label: str,
    y_label: str,
    x: Sequence[float],
    series: Sequence[tuple[str, Sequence[float], str]],
) -> None:
    """Write one SVG with shared x values and several (label, values, style) series;
    a nan or an infinity raises ValueError naming its series, and an axis whose
    padded span exceeds the largest float one naming the axis."""
    x = [float(v) for v in x]
    if not x:
        raise ValueError("x must be non-empty")
    if not series:
        raise ValueError("need at least one series")
    series = [(label, [float(v) for v in values], style) for label, values, style in series]
    for name, values in [("x", x), *((f"series {label!r}", values) for label, values, _ in series)]:
        bad = next((v for v in values if not math.isfinite(v)), None)
        if bad is not None:
            raise ValueError(f"{name} holds {bad!r}, which cannot be plotted")
    all_y = [v for _, values, _ in series for v in values]
    x_lo, x_hi = _axis(min(x), max(x))
    y_lo, y_hi = _axis(min(all_y), max(all_y))
    # Small headroom so lines do not sit on the frame.
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    for name, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"the {name} axis, padded to [{lo!r}, {hi!r}], "
                             "spans more than any float")

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(v: float) -> float:
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h  # down from the top

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>'
    )
    # Axes frame.
    out.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        xp = px(t)
        out.append(
            f'<line x1="{xp:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{xp:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{xp:.2f}" y="{_MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        if not y_lo <= t <= y_hi:
            continue
        yp = py(t)
        out.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{yp:.2f}" x2="{_MARGIN_LEFT}" '
            f'y2="{yp:.2f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 9}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt_tick(t)}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    out.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>'
    )

    for label, values, style in series:
        if len(values) != len(x):
            raise ValueError(f"series {label!r} has {len(values)} points, expected {len(x)}")
        dash = DASH_STYLES[style]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, values))
        out.append(
            f'<polyline fill="none" stroke="black" stroke-width="1.6"{dash_attr} '
            f'points="{pts}"/>'
        )

    # Legend: dash swatch plus label, top-right corner of the plot area.
    legend_x = _MARGIN_LEFT + plot_w - 170
    legend_y = _MARGIN_TOP + 12
    out.append(
        f'<rect x="{legend_x - 8}" y="{legend_y - 10}" width="178" '
        f'height="{16 * len(series) + 8}" fill="white" stroke="black" stroke-width="0.5"/>'
    )
    for i, (label, _, style) in enumerate(series):
        yp = legend_y + 16 * i
        dash = DASH_STYLES[style]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{legend_x}" y1="{yp}" x2="{legend_x + 34}" y2="{yp}" '
            f'stroke="black" stroke-width="1.6"{dash_attr}/>'
        )
        out.append(
            f'<text x="{legend_x + 40}" y="{yp + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
