import numpy as np
import pytest

from ecgssl import diffcore as dc
from ecgssl import distshift as ds
from ecgssl.signal_core import LabelSet, Window


class TestPca:
    def test_planar_data_recovered_exactly(self, rng):
        # 2-D data embedded in 6-D by a random orthonormal map: the reduction
        # must preserve pairwise distances
        latent = rng.standard_normal((80, 2))
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        high = latent @ q.T + rng.standard_normal(6)
        red = ds.fit_reduce(ds.EmbeddingSet(high))[0]
        d_lat = np.linalg.norm(latent[:, None] - latent[None, :], axis=2)
        d_red = np.linalg.norm(red.points[:, None] - red.points[None, :], axis=2)
        np.testing.assert_allclose(d_red, d_lat, atol=1e-9)

    def test_others_share_reference_frame(self, rng):
        ref = ds.EmbeddingSet(rng.standard_normal((30, 5)))
        other = ds.EmbeddingSet(ref.points + 100.0)
        r_ref, r_other = ds.fit_reduce(ref, [other])
        # a pure translation in embedding space stays a pure translation
        diff = r_other.points - r_ref.points
        np.testing.assert_allclose(diff, np.tile(diff[0], (30, 1)), atol=1e-8)

    def test_fit_ignores_other_set(self, rng):
        ref = ds.EmbeddingSet(rng.standard_normal((30, 5)))
        a = ds.fit_reduce(ref)[0].points
        b = ds.fit_reduce(ref, [ds.EmbeddingSet(rng.standard_normal((50, 5)) * 40)])[0].points
        np.testing.assert_array_equal(a, b)

    def test_returns_embedding_sets_with_their_tags(self, rng):
        ref = ds.EmbeddingSet(rng.standard_normal((30, 5)), "ref")
        others = [ds.EmbeddingSet(rng.standard_normal((n, 5)), f"o{n}") for n in (2, 40)]
        reduced = ds.fit_reduce(ref, others)
        assert all(type(r) is ds.EmbeddingSet for r in reduced)
        assert [r.source_tag for r in reduced] == ["ref", "o2", "o40"]
        assert [r.points.shape for r in reduced] == [(30, 2), (2, 2), (40, 2)]

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            ds.fit_reduce(ds.EmbeddingSet(np.ones((10, 4))))

    def test_too_few_points_rejected(self, rng):
        with pytest.raises(ValueError):
            ds.fit_reduce(ds.EmbeddingSet(rng.standard_normal((2, 4))))


class TestKde:
    def test_integrates_to_one(self, rng):
        pts = rng.standard_normal((200, 2))
        g = ds.kde_2d(pts, 64, ds.shared_grid_bounds(pts, pts))
        np.testing.assert_allclose(g.density.sum() * g.cell_area, 1.0, atol=1e-12)

    def test_gaussian_peak_height(self):
        # standard normal smoothed by a bandwidth-h kernel has peak density
        # 1/(2*pi*(1+h^2)); allow sampling noise on 4000 draws
        rng = np.random.default_rng(0)
        n = 4000
        pts = rng.standard_normal((n, 2))
        g = ds.kde_2d(pts, 128, ds.shared_grid_bounds(pts, pts))
        h2 = float(n ** (-1.0 / 3.0))
        expect = 1.0 / (2 * np.pi * (1.0 + h2))
        assert abs(g.density.max() - expect) < 0.15 * expect

    def test_translation_equivariance(self, rng):
        pts = rng.standard_normal((150, 2))
        moved = pts + [5.0, -3.0]
        g1 = ds.kde_2d(pts, 64, ds.shared_grid_bounds(pts, pts))
        g2 = ds.kde_2d(moved, 64, ds.shared_grid_bounds(moved, moved))
        np.testing.assert_allclose(g1.density, g2.density, atol=1e-9)
        np.testing.assert_allclose(g2.grid_min, g1.grid_min + [5.0, -3.0], atol=1e-9)

    def test_mass_concentrates_near_points(self, rng):
        pts = rng.standard_normal((100, 2)) * 0.1
        bounds = (np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
        g = ds.kde_2d(pts, resolution=128, bounds=bounds)
        gx = np.linspace(g.grid_min[0], g.grid_max[0], g.resolution)
        gy = np.linspace(g.grid_min[1], g.grid_max[1], g.resolution)
        inner = (np.abs(gx) < 1)[:, None] & (np.abs(gy) < 1)[None, :]
        assert g.density[inner].sum() * g.cell_area > 0.95

    def test_zero_variance_axis_flagged(self, rng):
        pts = np.column_stack([rng.standard_normal(50), np.zeros(50)])
        bounds = (np.array([-5.0, -1.0]), np.array([5.0, 1.0]))
        g = ds.kde_2d(pts, resolution=32, bounds=bounds)
        assert g.zero_variance_flag

    def test_low_resolution_rejected(self, rng):
        pts = rng.standard_normal((20, 2))
        with pytest.raises(ValueError):
            ds.kde_2d(pts, 8, ds.shared_grid_bounds(pts, pts))


class TestOverlap:
    def test_self_overlap_is_one(self, rng):
        pts = rng.standard_normal((300, 2))
        bounds = ds.shared_grid_bounds(pts, pts)
        g = ds.kde_2d(pts, 128, bounds)
        assert ds.overlap_index(g, g) >= 0.99

    def test_disjoint_near_zero(self, rng):
        a = rng.standard_normal((300, 2))
        b = rng.standard_normal((300, 2)) + [60.0, 0.0]
        bounds = ds.shared_grid_bounds(a, b)
        eta = ds.overlap_index(ds.kde_2d(a, 256, bounds), ds.kde_2d(b, 256, bounds))
        assert eta < 0.01

    def test_symmetry(self, rng):
        a = rng.standard_normal((200, 2))
        b = rng.standard_normal((200, 2)) + [1.0, 0.5]
        bounds = ds.shared_grid_bounds(a, b)
        g1, g2 = ds.kde_2d(a, 128, bounds), ds.kde_2d(b, 128, bounds)
        assert ds.overlap_index(g1, g2) == ds.overlap_index(g2, g1)

    def test_unit_shifted_gaussians_analytic(self):
        # two standard normals two units apart along x overlap by
        # 2*Phi(-1) = 0.3173 (mildly inflated by kernel smoothing)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5000, 2))
        b = rng.standard_normal((5000, 2)) + [2.0, 0.0]
        bounds = ds.shared_grid_bounds(a, b)
        eta = ds.overlap_index(ds.kde_2d(a, 256, bounds), ds.kde_2d(b, 256, bounds))
        assert abs(eta - 0.3173) < 0.02

    def test_rigid_transform_invariance(self, rng):
        a = rng.standard_normal((400, 2))
        b = rng.standard_normal((400, 2)) + [1.5, 0.0]
        th = 0.7
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])

        def eta(x, y):
            bounds = ds.shared_grid_bounds(x, y)
            return ds.overlap_index(ds.kde_2d(x, 128, bounds), ds.kde_2d(y, 128, bounds))

        base = eta(a, b)
        moved = eta(a @ rot.T + [3.0, -2.0], b @ rot.T + [3.0, -2.0])
        assert abs(base - moved) < 0.01

    def test_mismatched_grids_rejected(self, rng):
        a = rng.standard_normal((50, 2))
        g1 = ds.kde_2d(a, 64, ds.shared_grid_bounds(a, a))
        g2 = ds.kde_2d(a + 10.0, 64, ds.shared_grid_bounds(a + 10.0, a + 10.0))
        with pytest.raises(ValueError):
            ds.overlap_index(g1, g2)

    def test_axis_overlap_bounds(self, rng):
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((100, 2)) + [2.0, 0.0]
        e0 = ds.axis_overlap_1d(a, b, 0)
        e1 = ds.axis_overlap_1d(a, b, 1)
        assert 0.0 <= e0 <= 1.0 and 0.0 <= e1 <= 1.0
        assert e0 < e1  # the shift is along axis 0


def direct_axis_overlap_1d(points_a, points_b, axis, resolution=1024):
    """`axis_overlap_1d` with each full resolution x n kernel built in one
    expression: the reference for its blocked, in-place kernels."""
    a, b = points_a[:, axis], points_b[:, axis]

    def bw(x):
        h = x.std() * len(x) ** (-0.2)
        return h if h > 0 else 1e-6

    ha, hb = bw(a), bw(b)
    lo = min(a.min() - 3 * ha, b.min() - 3 * hb)
    hi = max(a.max() + 3 * ha, b.max() + 3 * hb)
    g = np.linspace(lo, hi, resolution)
    step = g[1] - g[0]

    def dens(x, h):
        d = np.exp(-0.5 * ((g[:, None] - x[None, :]) / h) ** 2).sum(axis=1)
        return d / (d.sum() * step)

    eta = float(np.minimum(dens(a, ha), dens(b, hb)).sum() * step)
    return min(max(eta, 0.0), 1.0)


def direct_kde_density(points, resolution, bounds):
    """`kde_2d(...).density` with the kernels built in one expression each:
    the reference for its in-place kernels."""
    bw = points.std(axis=0) * points.shape[0] ** (-1.0 / 6.0)
    lo, hi = np.asarray(bounds[0]), np.asarray(bounds[1])
    cell = (hi - lo) / (resolution - 1)
    bw = np.where(bw > 0, bw, np.where(cell > 0, cell, 1e-6))
    gx = np.linspace(lo[0], hi[0], resolution)
    gy = np.linspace(lo[1], hi[1], resolution)
    kx = np.exp(-0.5 * ((gx[:, None] - points[None, :, 0]) / bw[0]) ** 2)
    ky = np.exp(-0.5 * ((gy[:, None] - points[None, :, 1]) / bw[1]) ** 2)
    density = (kx @ ky.T) / (points.shape[0] * 2.0 * np.pi * bw[0] * bw[1])
    return density / (density.sum() * (cell[0] * cell[1]))


class TestInPlaceKernels:
    @pytest.mark.parametrize("n", [2, 37, 1200])
    @pytest.mark.parametrize("resolution", [16, 64, 1000, 1024])
    def test_axis_overlap_bytes_equal_direct_form(self, rng, n, resolution):
        a = rng.standard_normal((n, 2)) * [2.0, 0.5]
        b = rng.standard_normal((n + 3, 2)) + [0.7, -0.2]
        for axis in (0, 1):
            got = ds.axis_overlap_1d(a, b, axis, resolution)
            assert got.hex() == direct_axis_overlap_1d(a, b, axis, resolution).hex()

    @pytest.mark.parametrize("n", [2, 37, 1200])
    @pytest.mark.parametrize("resolution", [16, 100, 256])
    def test_kde_bytes_equal_direct_form(self, rng, n, resolution):
        a = rng.standard_normal((n, 2)) * [2.0, 0.5]
        b = rng.standard_normal((n, 2)) + 1.0
        for pts, bounds in ((a, ds.shared_grid_bounds(a, a)), (b, ds.shared_grid_bounds(a, b))):
            got = ds.kde_2d(pts, resolution, bounds).density
            assert got.tobytes() == direct_kde_density(pts, resolution, bounds).tobytes()


class TestAnalyzePair:
    def _windows(self, rng, n, offset=0.0):
        labels = LabelSet((), ())
        return [
            Window(rng.standard_normal((1, 40)) + offset, f"s{i}", labels)
            for i in range(n)
        ]

    def _setup(self):
        cfg = dc.EncoderConfig(
            n_leads=1, conv_blocks=((4, 3, 2),), embedding_dim=4,
            projection_dim=2, prediction_hidden=2,
        )
        return cfg, dc.init_encoder_params(cfg, seed=0)

    def test_same_distribution_high_overlap(self, rng):
        cfg, params = self._setup()
        rep = ds.analyze_pair(
            params, cfg, self._windows(rng, 60), self._windows(rng, 60),
            resolution=64,
        )
        assert rep.eta > 0.5
        assert rep.reducer_fitted_on == "reference"

    def test_shifted_distribution_lower_overlap(self, rng):
        cfg, params = self._setup()
        near = ds.analyze_pair(
            params, cfg, self._windows(rng, 60), self._windows(rng, 60),
            resolution=64,
        ).eta
        far = ds.analyze_pair(
            params, cfg, self._windows(rng, 60), self._windows(rng, 60, offset=8.0),
            resolution=64,
        ).eta
        assert far < near

    def test_report_json(self, rng):
        cfg, params = self._setup()
        rep = ds.analyze_pair(
            params, cfg, self._windows(rng, 40), self._windows(rng, 40),
            resolution=64,
        )
        import json

        j = json.loads(rep.to_json())
        assert 0.0 <= j["eta"] <= 1.0
        assert len(j["axis_etas"]) == 2
        assert j["resolution"] == 64

    def test_empty_rejected(self, rng):
        cfg, params = self._setup()
        with pytest.raises(ValueError):
            ds.analyze_pair(params, cfg, [], self._windows(rng, 10))

