"""Distribution-shift quantification: embeddings -> 2-D reduction -> KDE ->
overlap index.

The overlap index is the integral of the pointwise minimum of two estimated
densities: 1 for identical distributions, 0 for disjoint ones. The reducer
is PCA fitted on a reference set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diffcore import EncoderConfig, ModelParams, encode

__all__ = [
    "EmbeddingSet",
    "DensityGrid",
    "OverlapReport",
    "extract_embeddings",
    "fit_reduce",
    "kde_2d",
    "shared_grid_bounds",
    "overlap_index",
    "axis_overlap_1d",
    "analyze_pair",
]

# cells per side of the KDE grid
DEFAULT_RESOLUTION = 256
# grid rows per kernel block in `axis_overlap_1d`: a 64 x n block of a
# cohort of a few thousand points stays in cache
_KERNEL_ROWS = 64


@dataclass
class EmbeddingSet:
    points: np.ndarray
    source_tag: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[0] < 2:
            raise ValueError("need a (n >= 2, dim) point matrix")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite embedding values")


@dataclass
class DensityGrid:
    grid_min: np.ndarray
    grid_max: np.ndarray
    resolution: int
    density: np.ndarray
    bandwidth: np.ndarray
    zero_variance_flag: bool = False

    @property
    def cell_area(self):
        dx = (self.grid_max[0] - self.grid_min[0]) / (self.resolution - 1)
        dy = (self.grid_max[1] - self.grid_min[1]) / (self.resolution - 1)
        return dx * dy


@dataclass
class OverlapReport:
    eta: float
    grids: tuple
    reducer_fitted_on: str
    axis_etas: tuple = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "eta": self.eta,
                "axis_etas": list(self.axis_etas),
                "reducer_fitted_on": self.reducer_fitted_on,
                "resolution": self.grids[0].resolution,
            }
        )


def extract_embeddings(
    encoder: ModelParams, cfg: EncoderConfig, windows, source_tag: str = ""
) -> EmbeddingSet:
    """Pre-projection encoder outputs, one row per window."""
    batch = np.stack([w.data for w in windows])
    return EmbeddingSet(encode(encoder, cfg, batch), source_tag)


def fit_reduce(reference: EmbeddingSet, others=()) -> list:
    """Fit PCA on the reference set only; project reference and others with
    the same transform into one 2-D frame, one EmbeddingSet per input."""
    if reference.points.shape[0] < 3:
        raise ValueError("need at least 3 reference points")
    mean = reference.points.mean(axis=0)
    _, s, vt = np.linalg.svd(reference.points - mean, full_matrices=False)
    if not np.any(s > 1e-12):
        raise ValueError("reference embeddings have zero variance")
    components = vt[:2]
    if components.shape[0] < 2:
        raise ValueError("reference rank too low for a 2-D reduction")
    return [
        EmbeddingSet((e.points - mean) @ components.T, e.source_tag)
        for e in (reference, *others)
    ]


def _scott_bandwidth(points: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    return points.std(axis=0) * n ** (-1.0 / 6.0)


def shared_grid_bounds(points_a, points_b):
    """Joint min/max of the pair, padded by 3 bandwidths (the larger set's)."""
    both = np.vstack([points_a, points_b])
    bw = np.maximum(_scott_bandwidth(points_a), _scott_bandwidth(points_b))
    rng = both.max(axis=0) - both.min(axis=0)
    bw = np.where(bw > 0, bw, np.where(rng > 0, 1e-6 * rng, 1e-6))
    return both.min(axis=0) - 3.0 * bw, both.max(axis=0) + 3.0 * bw


def _gauss_kernel(grid, x, h, out):
    """exp(-0.5 * ((grid[:, None] - x) / h) ** 2) with each step written
    into `out`: the same bytes without four full-size temporaries."""
    np.subtract(grid[:, None], x, out=out)
    np.divide(out, h, out=out)
    np.square(out, out=out)
    np.multiply(out, -0.5, out=out)
    return np.exp(out, out=out)


def kde_2d(points, resolution: int, bounds) -> DensityGrid:
    """Gaussian product-kernel density on a regular grid spanning `bounds`
    (a (lo, hi) pair of 2-vectors, as `shared_grid_bounds` gives), normalized
    so the cell sum times the cell area is 1.

    Per-axis bandwidths follow Scott's rule (n^(-1/6) x axis std); a
    zero-variance axis gets a floored bandwidth and sets a flag.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 2:
        raise ValueError("need a (n >= 2, 2) point matrix")
    if resolution < 16:
        raise ValueError("resolution must be >= 16")

    bw = _scott_bandwidth(points)
    flagged = bool(np.any(bw == 0))
    lo, hi = np.asarray(bounds[0]), np.asarray(bounds[1])
    rng = hi - lo
    # floor a degenerate bandwidth at one grid cell so the kernel still
    # lands on grid points
    cell = rng / (resolution - 1)
    bw = np.where(bw > 0, bw, np.where(cell > 0, cell, 1e-6))

    gx = np.linspace(lo[0], hi[0], resolution)
    gy = np.linspace(lo[1], hi[1], resolution)
    # product kernel factorizes: density = Kx @ Ky^T / n
    n = points.shape[0]
    kx = _gauss_kernel(gx, points[:, 0], bw[0], np.empty((resolution, n)))
    ky = _gauss_kernel(gy, points[:, 1], bw[1], np.empty((resolution, n)))
    density = (kx @ ky.T) / (n * 2.0 * np.pi * bw[0] * bw[1])

    grid = DensityGrid(lo, hi, resolution, density, bw, flagged)
    total = density.sum() * grid.cell_area
    if total <= 0:
        raise ValueError("degenerate density (no mass on grid)")
    grid.density = density / total
    return grid


def overlap_index(g1: DensityGrid, g2: DensityGrid) -> float:
    """Integral of min(f1, f2) over the shared grid, clamped to [0, 1]."""
    if (
        g1.resolution != g2.resolution
        or not np.allclose(g1.grid_min, g2.grid_min)
        or not np.allclose(g1.grid_max, g2.grid_max)
    ):
        raise ValueError("grids must share extents and resolution")
    eta = float(np.minimum(g1.density, g2.density).sum() * g1.cell_area)
    return min(max(eta, 0.0), 1.0)


def axis_overlap_1d(points_a, points_b, axis: int, resolution: int = 1024) -> float:
    """Overlap of the two 1-D marginals along one reduced axis."""
    a = np.asarray(points_a, dtype=np.float64)[:, axis]
    b = np.asarray(points_b, dtype=np.float64)[:, axis]

    def bw(x):
        h = x.std() * len(x) ** (-0.2)
        return h if h > 0 else 1e-6

    ha, hb = bw(a), bw(b)
    lo = min(a.min() - 3 * ha, b.min() - 3 * hb)
    hi = max(a.max() + 3 * ha, b.max() + 3 * hb)
    g = np.linspace(lo, hi, resolution)
    step = g[1] - g[0]

    def dens(x, h):
        # kernel rows block by block through one buffer
        d = np.empty(resolution)
        buf = np.empty((min(_KERNEL_ROWS, resolution), len(x)))
        for i in range(0, resolution, _KERNEL_ROWS):
            rows = g[i : i + _KERNEL_ROWS]
            _gauss_kernel(rows, x, h, buf[: len(rows)]).sum(axis=1, out=d[i : i + _KERNEL_ROWS])
        return d / (d.sum() * step)

    eta = float(np.minimum(dens(a, ha), dens(b, hb)).sum() * step)
    return min(max(eta, 0.0), 1.0)


def analyze_pair(
    encoder: ModelParams,
    cfg: EncoderConfig,
    ref_windows,
    other_windows,
    resolution: int = DEFAULT_RESOLUTION,
    ref_tag: str = "reference",
    other_tag: str = "other",
) -> OverlapReport:
    """Full pipeline: embed both sets, reduce in the reference frame, fit a
    KDE per set on a shared grid, and integrate the overlap."""
    if not ref_windows or not other_windows:
        raise ValueError("both window sets must be nonempty")
    e_ref = extract_embeddings(encoder, cfg, ref_windows, ref_tag)
    e_other = extract_embeddings(encoder, cfg, other_windows, other_tag)
    red_ref, red_other = fit_reduce(e_ref, [e_other])

    bounds = shared_grid_bounds(red_ref.points, red_other.points)
    g1 = kde_2d(red_ref.points, resolution, bounds)
    g2 = kde_2d(red_other.points, resolution, bounds)
    eta = overlap_index(g1, g2)
    axis_etas = tuple(
        axis_overlap_1d(red_ref.points, red_other.points, ax) for ax in (0, 1)
    )
    return OverlapReport(eta, (g1, g2), ref_tag, axis_etas)

