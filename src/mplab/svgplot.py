"""Minimal deterministic SVG 1.1 rendering for polytopes and sample clouds.

Render-only: consumes previously computed artifacts and never recomputes
numbers, so plotting cannot alter results.
"""

from __future__ import annotations

import math

from .polytope import RationalPolytope

_HEADER = ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           'width="{w}" height="{h}" viewBox="0 0 {w} {h}">')


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_polytope_svg(p: RationalPolytope) -> str:
    """1-D polytope on the weight axis: segment, dot(s), or an 'empty' note."""
    width, height, pad = 420, 90, 30
    axis_y = 55.0
    try:
        vals = [float(v) for v in p.vertices]
        lo = min(vals + [0.0])
        hi = max(vals + [1.0])
        span = hi - lo
        lo -= 0.1 * span
        hi += 0.1 * span
        # one tick per integer, or per power of ten once the axis spans more than
        # 20; an infinite span overflows in ceil, as a huge vertex does in float
        step = 10 ** max(0, math.ceil(math.log10((hi - lo) / 20)))
    except OverflowError:
        raise ValueError("polytope vertices must lie in a range a float can hold") from None

    def sx(v: float) -> float:
        return pad + (v - lo) / (hi - lo) * (width - 2 * pad)

    parts = [_HEADER.format(w=width, h=height)]
    parts.append(f'<line x1="{pad}" y1="{_fmt(axis_y)}" x2="{width - pad}" '
                 f'y2="{_fmt(axis_y)}" stroke="black" stroke-width="1"/>')
    for tick in range(math.ceil(lo / step) * step, math.floor(hi / step) * step + 1, step):
        x = sx(tick)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y - 4)}" x2="{_fmt(x)}" '
                     f'y2="{_fmt(axis_y + 4)}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 18)}" font-size="10" '
                     f'text-anchor="middle">{tick}</text>')
    if not p.vertices:
        parts.append(f'<text x="{width // 2}" y="25" font-size="12" '
                     f'text-anchor="middle">empty polytope</text>')
    else:  # the one vertex of a point, or a segment's two endpoints
        x0, x1 = sx(vals[0]), sx(vals[-1])
        if len(vals) == 2:
            parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(axis_y)}" x2="{_fmt(x1)}" '
                         f'y2="{_fmt(axis_y)}" stroke="crimson" stroke-width="5"/>')
        for v in vals:
            parts.append(f'<circle cx="{_fmt(sx(v))}" cy="{_fmt(axis_y)}" r="4" fill="crimson"/>')
        parts.append(f'<text x="{_fmt((x0 + x1) / 2)}" y="25" font-size="12" '
                     f'text-anchor="middle">{p}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_samples_svg(phi1: list[float], phi3: list[float]) -> str:
    """Scatter of moment values projected to the conjugation-negated plane."""
    if len(phi1) != len(phi3):
        raise ValueError("coordinate lists must have equal length")
    width = height = 420
    pad = 25
    lo = min(phi1 + phi3 + [-1.0])
    hi = max(phi1 + phi3 + [1.0])
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span
    if not all(map(math.isfinite, phi1 + phi3 + [hi - lo])):
        raise ValueError("moment values must be finite, with a range a float can hold")

    def to_px(v: float) -> float:
        return pad + (v - lo) / (hi - lo) * (width - 2 * pad)

    parts = [_HEADER.format(w=width, h=height)]
    zero = to_px(0.0)
    parts.append(f'<line x1="{pad}" y1="{_fmt(height - zero)}" x2="{width - pad}" '
                 f'y2="{_fmt(height - zero)}" stroke="grey" stroke-width="0.5"/>')
    parts.append(f'<line x1="{_fmt(zero)}" y1="{pad}" x2="{_fmt(zero)}" '
                 f'y2="{height - pad}" stroke="grey" stroke-width="0.5"/>')
    for u, v in zip(phi1, phi3):
        parts.append(f'<circle cx="{_fmt(to_px(u))}" cy="{_fmt(height - to_px(v))}" '
                     f'r="1.2" fill="steelblue" fill-opacity="0.5"/>')
    parts.append(f'<text x="{width - pad}" y="{_fmt(height - zero - 5)}" font-size="10" '
                 f'text-anchor="end">e1</text>')
    parts.append(f'<text x="{_fmt(zero + 5)}" y="{pad + 5}" font-size="10">e3</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
