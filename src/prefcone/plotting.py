"""Hand-rolled SVG 1.1 schematics of 2-criteria instances.

The drawing shades the preference cone anchored at the reference point,
overlays the shrunk cone when one exists, draws the judgement arrows, and
labels every alternative.  A JSON metadata block inside the SVG records the
geometry (facet normals, boundary ray directions) so the output is easy to
assert on.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .consistency import epsilon_search
from .cones import FacetCone, extreme_rays
from .errors import NotPointedError, UnsupportedDimensionError
from .instance import PreferenceInstance, generators

__all__ = ["plot2d"]

_SIZE = 640
_FAN_SEGMENTS = 96


def _angular_interval(facets: FacetCone) -> tuple[float, float]:
    """[theta_lo, theta_hi]: the cone is the directions in between.  Every facet
    normal lies in the closed first quadrant here, so the arc never wraps: it is
    the intersection of the half-circles [angle(a) - pi/2, angle(a) + pi/2]."""
    angles = np.arctan2(facets.facet_normals[:, 1], facets.facet_normals[:, 0])
    return float(angles.max() - math.pi / 2), float(angles.min() + math.pi / 2)


def _boundary_rays(facets: FacetCone) -> list[list[float]]:
    return [[round(math.cos(a), 12), round(math.sin(a), 12)] for a in _angular_interval(facets)]


def plot2d(inst: PreferenceInstance, out_svg_path) -> None:
    """Write the instance schematic to ``out_svg_path``; requires p = 2."""
    if inst.p != 2:
        raise UnsupportedDimensionError(f"plots are only available for 2 criteria, got {inst.p}")
    facets = extreme_rays(generators(inst, 0.0))
    try:
        eps_bar = epsilon_search(inst)
    except NotPointedError:
        eps_bar = None
    eps_facets = None if eps_bar is None else extreme_rays(generators(inst, eps_bar))
    with open(out_svg_path, "w", encoding="utf-8") as fh:
        fh.write(_render(inst, facets, eps_bar, eps_facets))


def _render(inst, facets, eps_bar, eps_facets) -> str:
    # drawn in the box's own frame: an exact power-of-two scale that puts the largest
    # |entry| in [0.5, 1), then centred, so no scale or shared offset rounds the box away
    pts = np.ldexp(inst.alternatives, -math.frexp(np.abs(inst.alternatives).max())[1])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pts = pts - (lo + hi) / 2.0
    ref = pts[inst.reference_index]
    span = max(float((hi - lo).max()), sys.float_info.min)  # > 0 even if it underflowed
    half, radius = 0.85 * span, 4.0 * span

    def xy(pt) -> tuple[str, str]:
        x = (pt[0] + half) / (2.0 * half) * _SIZE
        y = _SIZE - (pt[1] + half) / (2.0 * half) * _SIZE
        return f"{x:.2f}", f"{y:.2f}"

    whole = facets.is_whole_space
    meta = {
        "whole_space": whole,
        "facet_normals": [] if whole else facets.facet_normals.tolist(),
        "boundary_rays": None if whole else _boundary_rays(facets),
        "epsilon_bar": eps_bar,
        "epsilon_facet_normals": None if eps_facets is None else eps_facets.facet_normals.tolist(),
    }
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f"<metadata>{json.dumps(meta)}</metadata>",
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#555"/></marker></defs>',
    ]
    if whole:
        parts.append(
            f'<rect class="cone-shade" width="{_SIZE}" height="{_SIZE}" fill="#9fd49f" '
            'fill-opacity="0.45"/>\n<text class="annotation" x="20" y="40" font-size="20" '
            'fill="#333">cone = R^2 (whole plane)</text>'
        )
    # the shrunk cone first, then the preference cone over it, each as a fan from the reference
    fans = ((eps_facets, "cone-shade-eps", "#f2c4c4"), (facets, "cone-shade", "#9fd49f"))
    for cone, css_class, color in fans:
        if cone is not None and not cone.is_whole_space:
            arc = np.linspace(*_angular_interval(cone), _FAN_SEGMENTS)
            ring = [ref + radius * np.array([math.cos(a), math.sin(a)]) for a in arc]
            coords = " ".join(",".join(xy(pt)) for pt in [ref, *ring])
            parts.append(
                f'<polygon class="{css_class}" points="{coords}" '
                f'fill="{color}" fill-opacity="0.5" stroke="none"/>'
            )
    # axes through the reference point, then one arrow per judgement
    rx, ry = xy(ref)
    parts.append(f'<line class="axis" x1="0" y1="{ry}" x2="{_SIZE}" y2="{ry}" stroke="#bbb"/>')
    parts.append(f'<line class="axis" x1="{rx}" y1="0" x2="{rx}" y2="{_SIZE}" stroke="#bbb"/>')
    for j in inst.preferred_indices:
        x, y = xy(pts[j])
        parts.append(
            f'<line class="generator-arrow" x1="{rx}" y1="{ry}" x2="{x}" y2="{y}" '
            'stroke="#555" stroke-width="1.5" marker-end="url(#arrow)"/>'
        )
    for i, pt in enumerate(pts):
        x, y = xy(pt)
        label = "ref" if i == inst.reference_index else f"x{i}"
        parts.append(f'<circle class="alt-point" cx="{x}" cy="{y}" r="4" fill="#222"/>')
        parts.append(
            f'<text x="{float(x) + 7:.2f}" y="{float(y) - 7:.2f}" '
            f'font-size="14" fill="#222">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
