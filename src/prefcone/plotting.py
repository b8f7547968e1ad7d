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

import numpy as np

from .consistency import epsilon_search
from .cones import FacetCone, extreme_rays
from .errors import NotPointedError, UnsupportedDimensionError
from .instance import PreferenceInstance, generators, require_valid

__all__ = ["plot2d", "cone_angular_interval", "boundary_rays"]

_SIZE = 640
_FAN_SEGMENTS = 96


def cone_angular_interval(facets: FacetCone) -> tuple[float, float]:
    """[theta_lo, theta_hi] such that the cone is the directions in between.

    Every facet normal lies in the closed first quadrant here, so the
    feasible arc never wraps: it is the intersection of the half-circles
    [angle(a) - pi/2, angle(a) + pi/2].
    """
    angles = np.arctan2(facets.facet_normals[:, 1], facets.facet_normals[:, 0])
    return float(angles.max() - math.pi / 2), float(angles.min() + math.pi / 2)


def boundary_rays(facets: FacetCone) -> list[list[float]]:
    lo, hi = cone_angular_interval(facets)
    return [
        [round(math.cos(a), 12), round(math.sin(a), 12)] for a in (lo, hi)
    ]


def plot2d(inst: PreferenceInstance, out_svg_path) -> None:
    """Write the instance schematic to ``out_svg_path``; requires p = 2."""
    require_valid(inst)
    if inst.p != 2:
        raise UnsupportedDimensionError(
            f"plots are only available for 2 criteria, got {inst.p}"
        )
    facets = extreme_rays(generators(inst, 0.0))
    try:
        eps_bar = epsilon_search(inst)
    except NotPointedError:
        eps_bar = eps_facets = None
    else:
        eps_facets = extreme_rays(generators(inst, eps_bar))

    svg = _render(inst, facets, eps_bar, eps_facets)
    with open(out_svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def _render(inst, facets, eps_bar, eps_facets) -> str:
    # drawn shrunk by a power of two once an entry reaches 2**1019, so that the
    # fan, four spans wide, stays finite; below that every coordinate keeps its bits
    exponent = math.frexp(float(np.abs(inst.alternatives).max()))[1]
    pts = inst.alternatives * math.ldexp(1.0, min(0, 1019 - exponent))
    ref = pts[inst.reference_index]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(float((hi - lo).max()), 1.0)
    center = (lo + hi) / 2.0
    half = 0.85 * span
    world = (center[0] - half, center[1] - half, center[0] + half, center[1] + half)
    radius = 4.0 * span

    def to_screen(pt):
        x = (pt[0] - world[0]) / (world[2] - world[0]) * _SIZE
        y = _SIZE - (pt[1] - world[1]) / (world[3] - world[1]) * _SIZE
        return f"{x:.2f},{y:.2f}"

    meta = {
        "whole_space": facets.is_whole_space,
        "facet_normals": [] if facets.is_whole_space else facets.facet_normals.tolist(),
        "boundary_rays": None if facets.is_whole_space else boundary_rays(facets),
        "epsilon_bar": eps_bar,
        "epsilon_facet_normals": None
        if eps_facets is None
        else eps_facets.facet_normals.tolist(),
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

    if facets.is_whole_space:
        parts.append(
            f'<rect class="cone-shade" width="{_SIZE}" height="{_SIZE}" '
            'fill="#9fd49f" fill-opacity="0.45"/>'
        )
        parts.append(
            f'<text class="annotation" x="20" y="40" font-size="20" fill="#333">'
            "cone = R^2 (whole plane)</text>"
        )
    else:
        if eps_facets is not None:
            parts.append(_fan(eps_facets, ref, radius, to_screen, "cone-shade-eps", "#f2c4c4"))
        parts.append(_fan(facets, ref, radius, to_screen, "cone-shade", "#9fd49f"))

    # axes through the reference point
    parts.append(
        f'<line class="axis" x1="0" y1="{to_screen(ref).split(",")[1]}" '
        f'x2="{_SIZE}" y2="{to_screen(ref).split(",")[1]}" stroke="#bbb"/>'
    )
    parts.append(
        f'<line class="axis" x1="{to_screen(ref).split(",")[0]}" y1="0" '
        f'x2="{to_screen(ref).split(",")[0]}" y2="{_SIZE}" stroke="#bbb"/>'
    )

    for j in inst.preferred_indices:
        a = to_screen(ref).split(",")
        b = to_screen(pts[j]).split(",")
        parts.append(
            f'<line class="generator-arrow" x1="{a[0]}" y1="{a[1]}" '
            f'x2="{b[0]}" y2="{b[1]}" stroke="#555" stroke-width="1.5" '
            'marker-end="url(#arrow)"/>'
        )

    for i, pt in enumerate(pts):
        sx, sy = to_screen(pt).split(",")
        label = "ref" if i == inst.reference_index else f"x{i}"
        parts.append(f'<circle class="alt-point" cx="{sx}" cy="{sy}" r="4" fill="#222"/>')
        parts.append(
            f'<text x="{float(sx) + 7:.2f}" y="{float(sy) - 7:.2f}" '
            f'font-size="14" fill="#222">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)


def _fan(facets, apex, radius, to_screen, css_class, color) -> str:
    lo, hi = cone_angular_interval(facets)
    angles = np.linspace(lo, hi, _FAN_SEGMENTS)
    ring = [apex + radius * np.array([math.cos(a), math.sin(a)]) for a in angles]
    coords = " ".join(to_screen(pt) for pt in [apex, *ring])
    return (
        f'<polygon class="{css_class}" points="{coords}" '
        f'fill="{color}" fill-opacity="0.5" stroke="none"/>'
    )
