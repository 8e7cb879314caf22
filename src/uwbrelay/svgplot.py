"""Self-contained SVG line charts.

No plotting dependency: charts are assembled from text so that a sweep
figure can be regenerated byte-for-byte from its CSV alone.  Layout,
tick selection and formatting are all deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

WIDTH = 840
HEIGHT = 520
MARGIN_LEFT = 78
MARGIN_RIGHT = 200
MARGIN_TOP = 46
MARGIN_BOTTOM = 64

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)
DASHES = ("", "7,4", "2,3", "7,4,2,4", "1,2", "10,3", "4,4", "12,3,3,3")


@dataclass
class Series:
    label: str
    x: list[float]
    y: list[float]
    points: list[tuple[float, float]] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y lengths differ")
        if not self.x:
            raise ValueError("empty series")
        self.points = list(zip(self.x, self.y))


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _fmt(value: float) -> str:
    out = format(value, ".6g")
    return "0" if out in ("-0", "-0.0") else out


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round-number ticks covering [lo, hi]; deterministic."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("non-finite axis range")
    if hi <= lo:
        pad = 1.0 if lo == 0 else abs(lo) * 0.5
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag + 1e-12 * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9)
    ticks = []
    k = first
    while k * step <= hi + 1e-9 * step:
        ticks.append(k * step)
        k += 1
    return ticks or [lo, hi]


def line_chart(series: list[Series], x_label: str, y_label: str,
               title: str = "", error_bars: list[list[float]] | None = None) -> str:
    """Render series as an SVG document string.

    error_bars, when given, holds one half-width list per series (same
    length as the series) drawn as vertical whiskers.
    """
    if not series:
        raise ValueError("need at least one series")
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    if error_bars is not None:
        if len(error_bars) != len(series):
            raise ValueError("one error-bar list per series required")
        for s, errs in zip(series, error_bars):
            if len(errs) != len(s.x):
                raise ValueError("error-bar length mismatch")
            ys.extend(v + e for v, e in zip(s.y, errs))
            ys.extend(v - e for v, e in zip(s.y, errs))
    x_ticks = _ticks(min(xs), max(xs))
    y_ticks = _ticks(min(ys), max(ys))
    x_lo, x_hi = min(x_ticks[0], min(xs)), max(x_ticks[-1], max(xs))
    y_lo, y_hi = min(y_ticks[0], min(ys)), max(y_ticks[-1], max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v: float) -> str:
        return _fmt(MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w)

    def sy(v: float) -> str:
        return _fmt(MARGIN_TOP + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16">{_escape(title)}</text>')
    for tick in x_ticks:
        px = sx(tick)
        parts.append(f'<line x1="{px}" y1="{MARGIN_TOP}" x2="{px}" '
                     f'y2="{MARGIN_TOP + plot_h}" stroke="#dddddd"/>')
        parts.append(f'<text x="{px}" y="{MARGIN_TOP + plot_h + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{_fmt(tick)}</text>')
    for tick in y_ticks:
        py = sy(tick)
        parts.append(f'<line x1="{MARGIN_LEFT}" y1="{py}" '
                     f'x2="{MARGIN_LEFT + plot_w}" y2="{py}" stroke="#dddddd"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{py}" text-anchor="end" '
                     f'dominant-baseline="middle" font-family="sans-serif" '
                     f'font-size="12">{_fmt(tick)}</text>')
    parts.append(f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 18}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="14">{_escape(x_label)}</text>')
    parts.append(f'<text x="22" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 22 {MARGIN_TOP + plot_h // 2})">'
                 f'{_escape(y_label)}</text>')

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        dash = DASHES[idx % len(DASHES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        if error_bars is not None:
            for xv, yv, err in zip(s.x, s.y, error_bars[idx]):
                if err <= 0:
                    continue
                px = sx(xv)
                parts.append(f'<line x1="{px}" y1="{sy(yv - err)}" x2="{px}" '
                             f'y2="{sy(yv + err)}" stroke="{color}" '
                             f'stroke-width="1" opacity="0.6"/>')
        pts = " ".join(f"{sx(xv)},{sy(yv)}" for xv, yv in s.points)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="2"{dash_attr}/>')
        for xv, yv in s.points:
            parts.append(f'<circle cx="{sx(xv)}" cy="{sy(yv)}" r="3" '
                         f'fill="{color}"/>')
        ly = MARGIN_TOP + 14 + 22 * idx
        lx = MARGIN_LEFT + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"{dash_attr}/>')
        parts.append(f'<text x="{lx + 32}" y="{ly}" dominant-baseline="middle" '
                     f'font-family="sans-serif" font-size="12">'
                     f'{_escape(s.label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def parse_sweep_csv(text: str):
    """Read back the sweep CSV schema (axis, bound, mean, stderr, trials).

    Returns (axis_name, rate_column_name, ordered series dict
    label -> (x, y, stderr)).
    """
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty sweep CSV")
    header = lines[0].split(",")
    if len(header) != 5 or not header[2].startswith("mean_"):
        raise ValueError(f"unexpected sweep CSV header: {lines[0]!r}")
    axis_name = header[0]
    rate_name = header[2][len("mean_"):]
    groups: dict[str, tuple[list[float], list[float], list[float]]] = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 5:
            raise ValueError(f"unexpected sweep CSV row: {line!r}")
        axis_value, bound, mean, err, _t = cells
        xs, ys, es = groups.setdefault(bound, ([], [], []))
        xs.append(float(axis_value))
        ys.append(float(mean))
        es.append(float(err))
    return axis_name, rate_name, groups


_AXIS_LABELS = {"source_relay_distance_m": "source to relay distance (m)"}
_RATE_LABELS = {
    "bits_per_sample": "rate (bits per sample)",
    "bits_per_second": "rate (bits per second)",
}


def sweep_chart(csv_text: str, title: str = "") -> str:
    """Chart a sweep CSV; the output depends only on the CSV text."""
    axis_name, rate_name, groups = parse_sweep_csv(csv_text)
    series = [Series(label=bound, x=xs, y=ys) for bound, (xs, ys, _) in groups.items()]
    errors = [es for _, (_, _, es) in groups.items()]
    return line_chart(
        series,
        x_label=_AXIS_LABELS.get(axis_name, axis_name),
        y_label=_RATE_LABELS.get(rate_name, rate_name),
        title=title,
        error_bars=errors,
    )
