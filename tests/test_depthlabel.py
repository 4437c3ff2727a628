import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthpad import model
from depthpad.depthlabel import generate_living_depth, synthesize_face_surface


def hemisphere_cloud(grid_size=65):
    return synthesize_face_surface(amplitude=8.0, center=(16.0, 16.0),
                                   radius=12.0, grid_size=grid_size)


def jittered(cloud, amount, seed):
    """The cloud's vertices with x, then y, moved by uniform draws in
    [-amount, amount]; z is kept, as only x and y place a vertex in a cell."""
    rng = np.random.default_rng(seed)
    v = cloud.copy()
    v[:, 0] += rng.uniform(-amount, amount, len(v))
    v[:, 1] += rng.uniform(-amount, amount, len(v))
    return v


def reference_label(vertices):
    # Per-vertex loop: each vertex's cell on the cloud's own x/y extent keeps
    # the largest z; occupied cells are min-max normalized, the rest stay 0.
    # Returns the label and the number of occupied cells.
    points = np.asarray(vertices, dtype=float).tolist()
    x_low, x_high = min(p[0] for p in points), max(p[0] for p in points)
    y_low, y_high = min(p[1] for p in points), max(p[1] for p in points)
    best = {}
    for x, y, z in points:
        j = min(int((x - x_low) / (x_high - x_low) * 32), 31)
        i = min(int((y - y_low) / (y_high - y_low) * 32), 31)
        best[i, j] = max(best.get((i, j), z), z)
    z_low, z_high = min(best.values()), max(best.values())
    label = np.zeros((32, 32))
    for (i, j), z in best.items():
        label[i, j] = (z - z_low) / (z_high - z_low)
    return label, len(best)


class TestTypes:
    def test_vertex_set_needs_three_points(self):
        # generate_living_depth's input checks: an (n, 3) array of at least
        # three finite rows.
        cloud = hemisphere_cloud(grid_size=8)
        with pytest.raises(ValueError, match=r"an \(n, 3\) array, got shape"):
            generate_living_depth(cloud[:, :2])
        with pytest.raises(ValueError, match=r"an \(n, 3\) array, got shape"):
            generate_living_depth(cloud.ravel())
        with pytest.raises(ValueError, match="need at least 3 vertices, got 2"):
            generate_living_depth(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]]))
        with pytest.raises(ValueError, match="non-finite coordinates"):
            generate_living_depth(np.array([[0.0, 0.0, np.nan]] * 4))


class TestSpoofDepth:
    def test_all_zero(self):
        living, spoof, _ = model.demo_labels()
        assert spoof.shape == (32, 32) and spoof.dtype == living.dtype
        assert not spoof.any()

    def test_sum_and_max(self):
        spoof = model.demo_labels()[1]
        assert spoof.sum() == 0
        assert spoof.max() == 0


class TestSynthesizeFaceSurface:
    def test_vertex_count_contract(self):
        assert hemisphere_cloud(grid_size=32).shape == (32 * 32, 3)
        assert hemisphere_cloud(grid_size=17).shape == (17 * 17, 3)

    def test_flat_surface_rejected_downstream(self):
        flat = synthesize_face_surface(amplitude=0.0, center=(16.0, 16.0),
                                       radius=12.0, grid_size=32)
        with pytest.raises(ValueError):
            generate_living_depth(flat)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            synthesize_face_surface(amplitude=8.0, center=(16.0, 16.0),
                                    radius=0.0, grid_size=32)


class TestGenerateLivingDepth:
    def test_planar_cloud_rejected(self):
        rng = np.random.default_rng(0)
        v = np.column_stack([rng.uniform(0, 32, 50), rng.uniform(0, 32, 50),
                             np.full(50, 3.0)])
        with pytest.raises(ValueError):
            generate_living_depth(v)

    def test_zero_extent_rejected(self):
        # The grid spans the vertex extent, so a cloud on one vertical line
        # has no width to rasterize over.
        line = np.column_stack([np.full(5, 3.0), np.arange(5.0), np.arange(5.0)])
        with pytest.raises(ValueError, match="vertex extent must be positive"):
            generate_living_depth(line)

    def test_hemisphere_against_analytic_profile(self):
        v = generate_living_depth(hemisphere_cloud())
        assert v.shape == (32, 32)
        assert v.min() == 0.0
        assert v.max() == 1.0
        # Center cell holds the apex lattice point, corners sit outside the dome.
        assert v[16, 16] == 1.0
        assert v[0, 0] == 0.0 and v[31, 31] == 0.0
        # Analytic hemisphere sampled at cell centers; compare away from the
        # rim where the profile slope stays bounded.
        cell = 24.0 / 32.0
        for i in range(32):
            for j in range(32):
                cx = 4.0 + (j + 0.5) * cell
                cy = 4.0 + (i + 0.5) * cell
                r = math.hypot(cx - 16.0, cy - 16.0)
                if r <= 10.0:
                    expected = math.sqrt(1.0 - (r / 12.0) ** 2)
                    assert abs(v[i, j] - expected) < 0.1

    def test_z_translation_invariance(self):
        cloud = hemisphere_cloud(grid_size=40)
        shifted = cloud + np.array([0.0, 0.0, 123.5])
        a = generate_living_depth(cloud)
        b = generate_living_depth(shifted)
        assert np.allclose(a, b, atol=1e-12)

    def test_normalization_bounds_on_random_clouds(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = rng.integers(50, 300)
            v = np.column_stack([rng.uniform(0, 32, n), rng.uniform(0, 32, n),
                                 rng.uniform(1, 7, n)])
            depth = generate_living_depth(v)
            assert depth.min() == 0.0
            assert depth.max() == 1.0


class TestLivingDepthProperties:
    @settings(max_examples=60, deadline=None)
    @given(amplitude=st.floats(0.05, 500.0),
           center=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
           radius=st.floats(0.5, 200.0),
           grid_size=st.integers(8, 64))
    def test_dome_labels_span_zero_to_exactly_one(self, amplitude, center,
                                                  radius, grid_size):
        cloud = synthesize_face_surface(amplitude=amplitude, center=center,
                                        radius=radius, grid_size=grid_size)
        values = generate_living_depth(cloud)
        assert values.min() >= 0.0
        assert values.max() == 1.0


class TestReferenceLabel:
    """generate_living_depth against the per-vertex loop, bit for bit."""

    def assert_matches_reference(self, cloud):
        expected, occupied = reference_label(cloud)
        assert np.array_equal(generate_living_depth(cloud), expected)
        return occupied

    def test_demo_lattice_fills_every_cell(self):
        # Every command's living label comes from this lattice, and it leaves
        # no cell empty.
        cloud = synthesize_face_surface(**model.DEMO_SURFACE)
        assert self.assert_matches_reference(cloud) == 32 * 32
        assert np.array_equal(model.demo_labels()[0],
                              generate_living_depth(cloud))

    @settings(max_examples=60, deadline=None)
    @given(amplitude=st.floats(0.05, 500.0),
           center=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
           radius=st.floats(0.5, 200.0),
           grid_size=st.integers(8, 64))
    def test_domes(self, amplitude, center, radius, grid_size):
        self.assert_matches_reference(synthesize_face_surface(
            amplitude=amplitude, center=center, radius=radius,
            grid_size=grid_size))

    def test_jittered_domes(self):
        for grid_size in (12, 20, 65):
            dome = hemisphere_cloud(grid_size=grid_size)
            for seed in range(10):
                self.assert_matches_reference(jittered(dome, 0.4, seed))

    def test_sparse_random_clouds(self):
        # Far fewer vertices than cells: most cells are empty background.
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(3, 200)
            cloud = np.column_stack([rng.uniform(-5, 40, n),
                                     rng.uniform(-5, 40, n),
                                     rng.uniform(1, 7, n)])
            assert self.assert_matches_reference(cloud) < 32 * 32


class TestMaskFromDepth:
    """The demo's face mask, model.demo_labels()[2]: the living label's
    positive cells as an int64 0/1 grid."""

    def test_int64_zero_one_grid(self):
        living, _, mask = model.demo_labels()
        assert np.array_equal(living, generate_living_depth(hemisphere_cloud()))
        assert mask.dtype == np.int64 and mask.shape == (32, 32)
        assert set(np.unique(mask)) == {0, 1}
        assert np.array_equal(mask, living > 0)

    def test_spoof_gives_empty_mask(self):
        assert not (model.demo_labels()[1] > 0).any()

    def test_hemisphere_mask_matches_support_oracle(self):
        mask = model.demo_labels()[2]
        # Oracle: a cell belongs to the face if any of its lattice points falls
        # strictly inside the dome support; re-derived with plain loops.
        xs = np.linspace(4.0, 28.0, 65)
        expected = np.zeros((32, 32), dtype=int)
        for x in xs:
            for y in xs:
                if math.hypot(x - 16.0, y - 16.0) < 12.0:
                    j = min(int((x - 4.0) / 24.0 * 32), 31)
                    i = min(int((y - 4.0) / 24.0 * 32), 31)
                    expected[i, j] = 1
        assert np.array_equal(mask, expected)

    def test_living_mask_nonempty(self):
        assert (generate_living_depth(hemisphere_cloud()) > 0).sum() >= 1

