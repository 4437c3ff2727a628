import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay, QhullError

from depthpad import model
from depthpad.depthlabel import (
    _cell_indices,
    _fill_holes,
    _hull_mask,
    generate_living_depth,
    synthesize_face_surface,
)


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


def reference_hull_mask(occupied):
    # Triangulation path: a cell is inside when its centre falls in some
    # Delaunay simplex of the occupied cell centres.
    pts = np.argwhere(occupied).astype(float)
    try:
        tri = Delaunay(pts)
    except QhullError:
        return occupied.copy()
    grid = occupied.shape[0]
    centers = np.argwhere(np.ones_like(occupied)).astype(float)
    return (tri.find_simplex(centers) >= 0).reshape(grid, grid)


def qhull_reference_mask(occupied):
    # Facet path: Qhull's equations rows are (unit outward normal, offset), so
    # a centre is inside when normal . p + offset <= 1e-9 for every facet; the
    # tolerance keeps centres on a hull edge despite rounding.
    pts = np.argwhere(occupied).astype(float)
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return occupied.copy()
    centers = np.argwhere(np.ones_like(occupied)).astype(float)
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    inside = (centers @ normals.T + offsets <= 1e-9).all(axis=1)
    return inside.reshape(occupied.shape)


@st.composite
def occupancy_grids(draw):
    """Non-empty grids 3-40 cells wide: sparse, dense, at most 3 cells, one
    row, one column, or a diagonal with an optional extra cell."""
    grid = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(["sparse", "dense", "few", "row", "column",
                                 "diagonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    occupied = np.zeros((grid, grid), dtype=bool)
    if kind == "sparse":
        n = draw(st.integers(1, grid))
        occupied[rng.integers(0, grid, n), rng.integers(0, grid, n)] = True
    elif kind == "dense":
        occupied = rng.random((grid, grid)) < draw(st.floats(0.3, 1.0))
    elif kind == "few":
        n = draw(st.integers(1, 3))
        occupied[rng.integers(0, grid, n), rng.integers(0, grid, n)] = True
    elif kind in ("row", "column"):
        line = occupied[draw(st.integers(0, grid - 1))]
        line[rng.random(grid) < draw(st.floats(0.1, 1.0))] = True
        if kind == "column":
            occupied = occupied.T.copy()
    else:
        k = np.flatnonzero(rng.random(grid) < draw(st.floats(0.1, 1.0)))
        occupied[k, k if draw(st.booleans()) else grid - 1 - k] = True
        if draw(st.booleans()):
            occupied[rng.integers(0, grid), rng.integers(0, grid)] = True
    if not occupied.any():
        occupied[rng.integers(0, grid), rng.integers(0, grid)] = True
    return occupied


def reference_fill_holes(values, filled, hull):
    # Per-cell loops: each pass gives every hole with a filled 8-neighbour
    # the mean of those neighbours, summed in the order of the offsets
    # (-1, -1), (-1, 0), ..., (1, 1) read as p - (di, dj); a pass that fills
    # nothing gives the leftovers the mean of all filled cells.
    values, filled = values.copy(), filled.copy()
    grid = values.shape[0]
    while (hull & ~filled).any():
        ready = {}
        for i, j in np.argwhere(hull & ~filled):
            acc, cnt = 0.0, 0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    a, b = i - di, j - dj
                    if ((di, dj) != (0, 0) and 0 <= a < grid and 0 <= b < grid
                            and filled[a, b]):
                        acc += values[a, b]
                        cnt += 1
            if cnt:
                ready[i, j] = acc / cnt
        if not ready:
            values[hull & ~filled] = values[filled].mean()
            break
        for (i, j), value in ready.items():
            values[i, j] = value
            filled[i, j] = True
    return values


def occupied_cells(vertices):
    v = np.asarray(vertices, dtype=float)
    occupied = np.zeros((32, 32), dtype=bool)
    occupied[_cell_indices(v[:, 1]), _cell_indices(v[:, 0])] = True
    return occupied


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

    def test_sparse_cloud_holes_get_filled(self):
        from depthpad.depthlabel import _hull_mask
        cloud = hemisphere_cloud(grid_size=65)
        verts = cloud[::7]
        v = generate_living_depth(verts)
        assert np.all(np.isfinite(v))
        assert v.max() == 1.0
        # Re-derive the occupied cells on the vertex extent to check every
        # in-hull cell got a value strictly inside the normalized range of
        # its neighbors.
        low, high = verts[:, :2].min(axis=0), verts[:, :2].max(axis=0)
        assert low.tolist() == [4.0, 4.0] and high.tolist() == [28.0, 28.0]
        cells = np.clip(((verts[:, :2] - low) / (high - low) * 32).astype(int),
                        0, 31)
        cols, rows = cells[:, 0], cells[:, 1]
        occupied = np.zeros((32, 32), dtype=bool)
        occupied[rows, cols] = True
        assert occupied.sum() < 32 * 32  # the cloud really is sparse
        hull = _hull_mask(occupied)
        holes = hull & ~occupied
        assert holes.any()
        inner = holes & (v > 0)
        assert inner.sum() > 0.8 * holes.sum()

    def test_ring_with_peak_fills_inward(self):
        angles = np.linspace(0, 2 * math.pi, 60, endpoint=False)
        ring = np.column_stack([16 + 10 * np.cos(angles), 16 + 10 * np.sin(angles),
                                np.ones(60)])
        peak = np.array([[16.0, 16.0, 5.0]])
        v = generate_living_depth(np.vstack([ring, peak]))
        # The grid spans the ring's extent [6, 26] in x and y, so the peak
        # lands in cell 16 and cell 12 holds x or y of about 13.8.
        assert v[16, 16] == 1.0
        # Interior cells between ring and peak were holes; all filled > 0.
        assert v[16, 12] > 0.0
        assert v[12, 16] > 0.0


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


class TestFillHoles:
    def test_matches_reference_loops_exactly(self):
        rng = np.random.default_rng(31)
        grid = 32
        # Two disjoint discs: a stalled pass once the sparse disc runs dry.
        yy, xx = np.mgrid[:grid, :grid]
        two_discs = (((yy - 10) ** 2 + (xx - 10) ** 2 < 36)
                     | ((yy - 24) ** 2 + (xx - 24) ** 2 < 16))
        cases = [(two_discs, two_discs & (xx < 12))]
        for density in (0.02, 0.1, 0.3, 0.7):
            occupied = rng.random((grid, grid)) < density
            cases.append((_hull_mask(occupied), occupied))
        for hull, filled in cases:
            filled = filled & hull
            values = np.where(filled, rng.normal(size=(grid, grid)), 0.0)
            got = _fill_holes(values, filled, hull)
            assert np.array_equal(got, reference_fill_holes(values, filled, hull))
            assert np.array_equal(got[filled], values[filled])


class TestHullMask:
    """Integer lattice hull against the triangulation and Qhull references."""

    def assert_matches_reference(self, occupied):
        got = _hull_mask(occupied)
        assert got.dtype == bool
        assert np.array_equal(got, reference_hull_mask(occupied))
        assert not (occupied & ~got).any()  # every occupied cell is inside

    def test_dome_clouds(self):
        # The unjittered 65x65 dome is the demo's living surface.
        for grid_size in (12, 20, 65):
            dome = hemisphere_cloud(grid_size=grid_size)
            clouds = [dome]
            clouds += [jittered(dome, 0.4, seed) for seed in range(10)]
            for cloud in clouds:
                self.assert_matches_reference(occupied_cells(cloud))

    def test_sparse_random_clouds(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(3, 40)
            occupied = np.zeros((32, 32), dtype=bool)
            occupied[rng.integers(0, 32, n), rng.integers(0, 32, n)] = True
            self.assert_matches_reference(occupied)

    def test_collinear_cells_fall_back_to_occupied(self):
        for cells in (np.arange(32)[:, None].repeat(2, axis=1),   # diagonal
                      np.column_stack([np.full(10, 5), np.arange(3, 13)]),
                      np.column_stack([np.arange(0, 30, 3), np.full(10, 31)])):
            occupied = np.zeros((32, 32), dtype=bool)
            occupied[cells[:, 0], cells[:, 1]] = True
            assert np.array_equal(_hull_mask(occupied), occupied)
            self.assert_matches_reference(occupied)

    def test_single_and_pair_of_cells(self):
        for cells in ([(4, 9)], [(0, 0), (31, 31)]):
            occupied = np.zeros((32, 32), dtype=bool)
            for i, j in cells:
                occupied[i, j] = True
            assert np.array_equal(_hull_mask(occupied), occupied)
            self.assert_matches_reference(occupied)

    @settings(max_examples=300, deadline=None)
    @given(occupied=occupancy_grids())
    def test_matches_qhull_facets(self, occupied):
        got = _hull_mask(occupied)
        assert got.dtype == bool
        assert np.array_equal(got, qhull_reference_mask(occupied))
        assert not (occupied & ~got).any()

    def test_full_grid_and_edge_centres(self):
        self.assert_matches_reference(np.ones((32, 32), dtype=bool))
        # Triangle corners only: every centre on its three edges is a tie.
        occupied = np.zeros((32, 32), dtype=bool)
        occupied[0, 0] = occupied[0, 31] = occupied[31, 0] = True
        hull = _hull_mask(occupied)
        assert hull[0].all() and hull[:, 0].all()
        assert all(hull[i, 31 - i] for i in range(32))
        self.assert_matches_reference(occupied)


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

