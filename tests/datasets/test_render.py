"""Tests for the rasterization primitives."""

import numpy as np
import pytest

from repro.datasets.render import (
    _segment_distances,
    affine_matrix,
    arc_points,
    line_points,
    pixel_grid,
    polyline_segments,
    rasterize_polygon,
    rasterize_strokes,
    to_uint8,
    transform_points,
)


def _segment_distances_oracle(grid, segments):
    """The ``(P, S, 2)`` einsum / ``linalg.norm`` form the rasterizer
    used to evaluate; ``_segment_distances`` must equal it bit for bit."""
    starts = segments[:, :2]
    ends = segments[:, 2:]
    direction = ends - starts
    length_sq = np.einsum("ij,ij->i", direction, direction)
    length_sq = np.maximum(length_sq, 1e-12)
    delta = grid[:, None, :] - starts[None, :, :]
    t = np.einsum("psi,si->ps", delta, direction) / length_sq[None, :]
    t = np.clip(t, 0.0, 1.0)
    nearest = starts[None, :, :] + t[:, :, None] * direction[None, :, :]
    dist = np.linalg.norm(grid[:, None, :] - nearest, axis=2)
    return dist.min(axis=1)


class TestGeometry:
    def test_arc_points_count_and_radius(self):
        points = arc_points((0.5, 0.5), 0.2, 0.2, 0, 360, 17)
        assert points.shape == (17, 2)
        radii = np.linalg.norm(points - 0.5, axis=1)
        assert np.allclose(radii, 0.2)

    def test_line_points(self):
        line = line_points((0, 0), (1, 1))
        assert line.shape == (2, 2)

    def test_polyline_segments(self):
        segments = polyline_segments(np.array([[0, 0], [1, 0], [1, 1]]))
        assert segments.shape == (2, 4)
        assert segments[0].tolist() == [0, 0, 1, 0]


class TestAffine:
    def test_identity(self):
        matrix = affine_matrix()
        points = np.array([[0.3, 0.7]])
        assert np.allclose(transform_points(points, matrix), points)

    def test_translation(self):
        matrix = affine_matrix(translate=(0.1, -0.2))
        moved = transform_points(np.array([[0.5, 0.5]]), matrix)
        assert np.allclose(moved, [[0.6, 0.3]])

    def test_rotation_preserves_center(self):
        matrix = affine_matrix(rotation_deg=90)
        center = transform_points(np.array([[0.5, 0.5]]), matrix)
        assert np.allclose(center, [[0.5, 0.5]])

    def test_rotation_moves_off_center_points(self):
        matrix = affine_matrix(rotation_deg=90)
        moved = transform_points(np.array([[0.7, 0.5]]), matrix)
        assert not np.allclose(moved, [[0.7, 0.5]])
        # Distance from center preserved.
        assert np.linalg.norm(moved - 0.5) == pytest.approx(0.2)

    def test_scale(self):
        matrix = affine_matrix(scale=2.0)
        moved = transform_points(np.array([[0.6, 0.5]]), matrix)
        assert np.allclose(moved, [[0.7, 0.5]])


class TestRasterize:
    def test_pixel_grid_in_unit_square(self):
        grid = pixel_grid(8)
        assert grid.shape == (64, 2)
        assert grid.min() > 0 and grid.max() < 1

    def test_pixel_grid_is_one_read_only_array_per_side(self):
        grid = pixel_grid(12)
        assert pixel_grid(12) is grid
        assert pixel_grid(13) is not grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.25
        coords = (np.arange(12) + 0.5) / 12
        ys, xs = np.meshgrid(coords, coords, indexing="ij")
        assert np.array_equal(grid, np.stack([xs.ravel(), ys.ravel()], axis=1))

    def test_stroke_lights_pixels_near_line(self):
        image = rasterize_strokes(
            [line_points((0.1, 0.5), (0.9, 0.5))], side=16, thickness=0.1
        )
        middle_row = image[8]
        assert middle_row.max() == 1.0
        assert image[0].max() == 0.0  # far from the stroke

    def test_values_in_unit_interval(self):
        image = rasterize_strokes(
            [arc_points((0.5, 0.5), 0.3, 0.3, 0, 360)], side=20, thickness=0.08
        )
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_polygon_interior_filled(self):
        square = np.array([[0.2, 0.2], [0.8, 0.2], [0.8, 0.8], [0.2, 0.8]])
        image = rasterize_polygon(square, side=20)
        assert image[10, 10] == 1.0
        assert image[1, 1] == 0.0

    def test_polygon_area_roughly_right(self):
        square = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]])
        image = rasterize_polygon(square, side=40)
        assert (image > 0.5).mean() == pytest.approx(0.25, abs=0.03)

    def test_to_uint8_peak(self):
        image = np.array([[0.0, 1.0]])
        out = to_uint8(image, peak=200)
        assert out.dtype == np.uint8
        assert out.tolist() == [[0, 200]]


class TestSegmentDistances:
    @staticmethod
    def _assert_bitwise(grid, segments):
        grid = np.asarray(grid, dtype=np.float64)
        segments = np.asarray(segments, dtype=np.float64)
        got = _segment_distances(grid, segments)
        expected = _segment_distances_oracle(grid, segments)
        assert got.shape == (grid.shape[0],)
        assert np.array_equal(got, expected)
        # array_equal treats -0.0 == 0.0; the bytes must match too.
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_segments(self, seed):
        rng = np.random.default_rng(seed)
        segments = rng.uniform(-0.2, 1.2, size=(int(rng.integers(1, 40)), 4))
        self._assert_bitwise(pixel_grid(28), segments)
        self._assert_bitwise(rng.uniform(-0.5, 1.5, size=(300, 2)), segments)

    def test_zero_length_segments(self):
        """A point segment's squared length is floored at 1e-12."""
        rng = np.random.default_rng(11)
        points = rng.uniform(0.0, 1.0, size=(6, 2))
        degenerate = np.concatenate([points, points], axis=1)
        self._assert_bitwise(pixel_grid(16), degenerate)
        tiny = degenerate.copy()
        tiny[:, 2] += 1e-9  # length^2 = 1e-18, below the floor
        self._assert_bitwise(pixel_grid(16), tiny)
        mixed = np.concatenate([degenerate, rng.uniform(0, 1, (5, 4))])
        self._assert_bitwise(pixel_grid(16), mixed)
        # The grid point itself as a zero-length segment: distance 0.
        self._assert_bitwise(pixel_grid(4)[:3], np.tile(pixel_grid(4)[1], 2)[None])

    def test_collinear_segments(self):
        line = np.array(
            [
                [0.1, 0.1, 0.5, 0.5],
                [0.5, 0.5, 0.9, 0.9],
                [0.3, 0.3, 0.7, 0.7],  # overlaps both
                [0.9, 0.9, 0.1, 0.1],  # reversed
                [0.2, 0.5, 0.8, 0.5],
                [0.8, 0.5, 0.4, 0.5],
            ]
        )
        on_line = np.linspace(-0.1, 1.1, 25)
        grid = np.concatenate(
            [
                pixel_grid(20),
                np.stack([on_line, on_line], axis=1),
                np.stack([on_line, np.full_like(on_line, 0.5)], axis=1),
            ]
        )
        self._assert_bitwise(grid, line)

    def test_grid_points_on_segments(self):
        """Points at endpoints, inside and on axis-aligned segments;
        reversed directions make the dot products' zero terms -0.0."""
        grid = pixel_grid(8)
        a, b, c = grid[9], grid[13], grid[41]
        segments = np.array(
            [
                [*a, *b],  # horizontal, through grid points
                [*b, *a],  # the same, reversed
                [*a, *c],  # vertical
                [*c, *a],
                [*a, *grid[54]],  # diagonal through grid[18], [27], ...
                [*grid[54], *a],
            ]
        )
        self._assert_bitwise(grid, segments)
        for segment in segments:
            self._assert_bitwise(grid, segment[None])
