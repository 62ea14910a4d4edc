"""Rasterization primitives shared by the synthetic dataset generators.

The digit and shape generators describe glyphs as strokes (polylines)
or filled polygons in a normalized [0, 1] x [0, 1] coordinate frame
(x right, y down), apply a random affine jitter, and rasterize onto a
small grayscale grid with anti-aliasing.  Everything is vectorized
numpy; no imaging libraries are used.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

Point = Tuple[float, float]


def arc_points(
    center: Point,
    radius_x: float,
    radius_y: float,
    start_deg: float,
    end_deg: float,
    n_points: int = 16,
) -> np.ndarray:
    """Sample an elliptical arc as an (n_points, 2) polyline.

    Angles are in degrees, measured clockwise from the +x axis (the y
    axis points down, so this matches screen convention).
    """
    angles = np.radians(np.linspace(start_deg, end_deg, n_points))
    xs = center[0] + radius_x * np.cos(angles)
    ys = center[1] + radius_y * np.sin(angles)
    return np.stack([xs, ys], axis=1)


def line_points(start: Point, end: Point) -> np.ndarray:
    """A two-point polyline."""
    return np.array([start, end], dtype=np.float64)


def polyline_segments(points: np.ndarray) -> np.ndarray:
    """Convert an (n, 2) polyline to (n-1, 4) segment endpoints."""
    points = np.asarray(points, dtype=np.float64)
    return np.concatenate([points[:-1], points[1:]], axis=1)


def affine_matrix(
    rotation_deg: float = 0.0,
    scale: float = 1.0,
    shear: float = 0.0,
    translate: Point = (0.0, 0.0),
    center: Point = (0.5, 0.5),
) -> np.ndarray:
    """A 3x3 homogeneous affine transform about ``center``."""
    theta = math.radians(rotation_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rotate_scale = np.array(
        [
            [scale * cos_t, -scale * sin_t, 0.0],
            [scale * sin_t, scale * cos_t, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    shear_m = np.array([[1.0, shear, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    to_origin = np.array([[1, 0, -center[0]], [0, 1, -center[1]], [0, 0, 1.0]])
    back = np.array(
        [[1, 0, center[0] + translate[0]], [0, 1, center[1] + translate[1]], [0, 0, 1.0]]
    )
    return back @ shear_m @ rotate_scale @ to_origin


def transform_points(points: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a 3x3 homogeneous transform to an (n, 2) point array."""
    points = np.asarray(points, dtype=np.float64)
    homogeneous = np.concatenate([points, np.ones((points.shape[0], 1))], axis=1)
    mapped = homogeneous @ matrix.T
    return mapped[:, :2]


def _segment_distances(grid: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Min distance from each grid point to any segment.

    grid: (P, 2) pixel-center coordinates; segments: (S, 4) endpoint
    pairs.  Returns (P,) distances.

    The point ``p``'s nearest point on segment ``a -> b`` is ``a + t d``
    with ``d = b - a`` and ``t = clip(<p - a, d> / max(|d|^2, 1e-12),
    0, 1)``.  Each coordinate is a (P, S) array, and every value is
    rounded exactly as the ``(P, S, 2)`` einsum / ``linalg.norm`` form
    rounds it, so the distances are bitwise that form's:

    * a two-term dot product is ``x0*y0 + x1*y1``, each product rounded
      and then summed in that order.  einsum adds the products to a
      zero start, which changes at most the sign of a zero ``t``; that
      sign reaches the distance only through ``+-0 * d`` and ``e*e``
      of an exact zero ``e``, which round both signs alike;
    * ``linalg.norm`` along the last axis is ``sqrt(e0*e0 + e1*e1)``.
    """
    gx = grid[:, :1]
    gy = grid[:, 1:]
    sx, sy, ex, ey = segments.T
    dx = ex - sx
    dy = ey - sy
    length_sq = np.maximum(dx * dx + dy * dy, 1e-12)
    t = (gx - sx) * dx
    t += (gy - sy) * dy
    t /= length_sq
    np.clip(t, 0.0, 1.0, out=t)
    # Offsets of each point from its nearest point on each segment.
    off_x = gx - (sx + t * dx)
    off_y = gy - (sy + t * dy)
    off_x *= off_x
    off_y *= off_y
    off_x += off_y
    return np.sqrt(off_x, out=off_x).min(axis=1)


@lru_cache(maxsize=8)
def pixel_grid(side: int) -> np.ndarray:
    """(side*side, 2) pixel-center coordinates in the unit square.

    Built once per side; every caller shares the one read-only array.
    """
    coords = (np.arange(side) + 0.5) / side
    ys, xs = np.meshgrid(coords, coords, indexing="ij")
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
    grid.flags.writeable = False
    return grid


def rasterize_strokes(
    strokes: Sequence[np.ndarray],
    side: int,
    thickness: float,
    antialias: float = 0.02,
) -> np.ndarray:
    """Rasterize polyline strokes to a (side, side) float image in [0, 1].

    ``thickness`` is the stroke width in unit-square coordinates
    (e.g. 0.08 is about 2.2 pixels on a 28-pixel grid); ``antialias``
    is the width of the soft edge.
    """
    segments = np.concatenate([polyline_segments(s) for s in strokes], axis=0)
    grid = pixel_grid(side)
    dist = _segment_distances(grid, segments)
    intensity = np.clip((thickness / 2 + antialias - dist) / antialias, 0.0, 1.0)
    return intensity.reshape(side, side)


def rasterize_polygon(
    vertices: np.ndarray, side: int, antialias: float = 0.02
) -> np.ndarray:
    """Rasterize a filled polygon to a (side, side) float image in [0, 1].

    Interior detection uses the even-odd crossing rule; edges are
    softened with a distance-based anti-aliasing band so the silhouette
    generator produces smooth 8-bit luminances rather than hard masks.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    grid = pixel_grid(side)
    x, y = grid[:, 0], grid[:, 1]
    inside = np.zeros(grid.shape[0], dtype=bool)
    n = vertices.shape[0]
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at_y = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < np.where(crosses, x_at_y, np.inf))
    closed = np.concatenate([vertices, vertices[:1]], axis=0)
    dist = _segment_distances(grid, polyline_segments(closed))
    edge = np.clip(dist / antialias, 0.0, 1.0)
    value = np.where(inside, 1.0, 1.0 - edge)
    # Outside the AA band the value must be exactly zero.
    value = np.where(~inside & (dist > antialias), 0.0, value)
    return value.reshape(side, side)


def to_uint8(image: np.ndarray, peak: float = 255.0) -> np.ndarray:
    """Convert a [0, 1] float image to 8-bit luminance with given peak."""
    return np.clip(np.round(image * peak), 0, 255).astype(np.uint8)


def add_noise(
    image: np.ndarray, rng: np.random.Generator, amplitude: float
) -> np.ndarray:
    """Add clipped Gaussian pixel noise to a [0, 1] float image."""
    if amplitude <= 0:
        return image
    noisy = image + rng.normal(0.0, amplitude, size=image.shape)
    return np.clip(noisy, 0.0, 1.0)


def random_affine(
    rng: np.random.Generator,
    max_rotation_deg: float,
    scale_range: Tuple[float, float],
    max_shear: float,
    max_translate: float,
) -> np.ndarray:
    """Draw a random affine jitter matrix."""
    return affine_matrix(
        rotation_deg=rng.uniform(-max_rotation_deg, max_rotation_deg),
        scale=rng.uniform(*scale_range),
        shear=rng.uniform(-max_shear, max_shear),
        translate=(
            rng.uniform(-max_translate, max_translate),
            rng.uniform(-max_translate, max_translate),
        ),
    )


def transform_strokes(
    strokes: Sequence[np.ndarray], matrix: np.ndarray
) -> List[np.ndarray]:
    """Apply an affine matrix to every stroke."""
    return [transform_points(s, matrix) for s in strokes]
