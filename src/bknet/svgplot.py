"""Minimal self-contained SVG output for nets and PL maps."""

from __future__ import annotations

import numpy as np

from .plmap import PLMap

_PALETTE = ["#444444", "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#e377c2"]


def _header(x0, y0, x1, y1, size):
    w = x1 - x0
    h = y1 - y0
    s = size / max(w, h)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * s:.0f}" '
        f'height="{h * s:.0f}" viewBox="{x0} {y0} {w} {h}">\n'
        f'<g transform="translate(0,{y0 + y1}) scale(1,-1)">\n'
    ), s


def net_svg(points: np.ndarray, tags: np.ndarray, size: int = 800) -> str:
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise ValueError(f"point {bad[0]} has a non-finite coordinate")
    if len(points) == 0:
        return '<svg xmlns="http://www.w3.org/2000/svg"/>'
    x0, y0 = points.min(axis=0) - 1
    x1, y1 = points.max(axis=0) + 1
    head, s = _header(x0, y0, x1, y1, size)
    r = max((x1 - x0), (y1 - y0)) / size * 2.0
    parts = [head]
    for (x, y), t in zip(points, tags):
        color = _PALETTE[int(t) % len(_PALETTE)]
        parts.append(f'<circle cx="{x}" cy="{y}" r="{r}" fill="{color}"/>\n')
    parts.append("</g>\n</svg>\n")
    return "".join(parts)


def plmap_svg(m: PLMap, size: int = 800) -> str:
    verts = m.vertices
    x0, y0 = verts.min(axis=0)
    x1, y1 = verts.max(axis=0)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    head, s = _header(x0 - pad, y0 - pad, x1 + pad, y1 + pad, size)
    width = max(x1 - x0, y1 - y0) / size * 1.5
    parts = [head]
    for (a, b, c) in m.triangles():
        pa, pb, pc = verts[a], verts[b], verts[c]
        parts.append(
            f'<polygon points="{pa[0]},{pa[1]} {pb[0]},{pb[1]} {pc[0]},{pc[1]}" '
            f'fill="none" stroke="#1f77b4" stroke-width="{width}"/>\n')
    parts.append("</g>\n</svg>\n")
    return "".join(parts)
