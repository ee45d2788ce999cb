import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgssl import augment as ag

PAPER_GRIDS = {
    "GaussianNoise": [{"sigma": s} for s in (0.01, 0.1, 1.0)],
    "ChannelScaling": [
        {"a": a, "b": b} for a, b in ((0.33, 3.0), (0.33, 1.0), (0.5, 2.0))
    ],
    "BaselineWander": [{"f_w": 100.0, "s_bw": s} for s in (0.1, 0.7, 1.0)],
    "EmgNoise": [{"sigma": s} for s in (0.01, 0.5, 1.0)],
    "Masking": [
        {"a_pct": a, "b_pct": b} for a, b in ((10, 20), (0, 50), (40, 50))
    ],
    "TimeWarping": [{"w": w, "r_pct": r} for w, r in ((1, 10), (3, 5), (3, 10))],
}


def zeros(leads=12, n=250):
    return np.zeros((leads, n))


def aug(kind, x, seed=0, **params):
    """`x` through the recipe `kind` with `params`, drawn from stream `seed`."""
    return ag.apply_augmentation(x, ag.AugmentationSpec(kind, params), ag.RngStream(seed))


class TestGaussianNoise:
    def test_degenerate_sigma(self):
        x = np.random.default_rng(0).standard_normal((2, 100))
        out = aug("GaussianNoise", x, sigma=1e-9)
        assert np.max(np.abs(out - x)) < 1e-6

    def test_unit_sigma_std(self):
        out = aug("GaussianNoise", zeros(), 1, sigma=1.0)
        assert 0.9 <= out.std() <= 1.1  # chi-square bound on 3000 draws

    def test_paper_grid_accepted(self):
        for params in PAPER_GRIDS["GaussianNoise"]:
            ag.AugmentationSpec("GaussianNoise", params)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            ag.AugmentationSpec("GaussianNoise", {"sigma": 0.0})


class TestChannelScale:
    def test_identity(self):
        x = np.random.default_rng(2).standard_normal((3, 50))
        np.testing.assert_allclose(aug("ChannelScaling", x, a=1.0, b=1.0), x)

    def test_forced_double(self):
        x = np.random.default_rng(3).standard_normal((3, 50))
        np.testing.assert_allclose(
            aug("ChannelScaling", x, a=2.0, b=2.0), 2.0 * x
        )

    def test_ratios_within_range(self):
        x = np.ones((12, 250))
        out = aug("ChannelScaling", x, 4, a=0.33, b=3.0)
        ratios = out / x
        assert np.all(ratios >= 0.33) and np.all(ratios <= 3.0)

    def test_inverse_scaling_is_identity(self):
        x = np.random.default_rng(5).standard_normal((4, 100))
        k = 3.7
        y = aug("ChannelScaling", x, a=k, b=k)
        back = aug("ChannelScaling", y, a=1 / k, b=1 / k)
        np.testing.assert_allclose(back, x, atol=1e-12)


class TestNegate:
    def test_values(self):
        np.testing.assert_array_equal(
            ag.negate(np.array([[1.0, -2.0, 0.0]])), [[-1.0, 2.0, 0.0]]
        )

    def test_involution(self):
        x = np.random.default_rng(6).standard_normal((5, 80))
        np.testing.assert_array_equal(ag.negate(ag.negate(x)), x)

    def test_zero(self):
        np.testing.assert_array_equal(ag.negate(zeros(2, 10)), zeros(2, 10))


class TestBaselineWander:
    def test_zero_scale_identity(self):
        x = np.random.default_rng(7).standard_normal((3, 250))
        np.testing.assert_array_equal(
            aug("BaselineWander", x, f_w=100.0, s_bw=0.0), x
        )

    def test_peak_amplitude(self):
        out = aug("BaselineWander", zeros(1, 250), 8, f_w=100.0, s_bw=1.0)
        # >= 2 full periods of a 100-sample sine in 250 samples
        assert 0.99 <= np.max(np.abs(out)) <= 1.0

    def test_same_wave_on_all_leads(self):
        out = aug("BaselineWander", zeros(12, 250), 9, f_w=100.0, s_bw=0.7)
        for lead in range(1, 12):
            np.testing.assert_array_equal(out[lead], out[0])

    def test_paper_grid_accepted(self):
        for params in PAPER_GRIDS["BaselineWander"]:
            ag.AugmentationSpec("BaselineWander", params)


class TestEmgNoise:
    def test_degenerate_sigma(self):
        x = np.random.default_rng(10).standard_normal((2, 250))
        out = aug("EmgNoise", x, sigma=1e-9)
        assert np.max(np.abs(out - x)) < 1e-6

    def test_std_after_filtering(self):
        out = aug("EmgNoise", zeros(12, 250), 11, sigma=0.5)
        assert 0.45 <= out.std() <= 0.55

    def test_high_pass_removes_low_frequencies(self):
        out = aug("EmgNoise", zeros(1, 1024), 12, sigma=1.0)
        spec = np.abs(np.fft.rfft(out[0]))
        freqs = np.fft.rfftfreq(1024)
        low = spec[freqs < 0.14].sum()
        high = spec[freqs >= 0.15].sum()
        assert low < 0.01 * high

    def test_paper_grid_accepted(self):
        for params in PAPER_GRIDS["EmgNoise"]:
            ag.AugmentationSpec("EmgNoise", params)


class TestMasking:
    def test_zero_range_identity(self):
        x = np.random.default_rng(13).standard_normal((3, 250))
        np.testing.assert_array_equal(ag.mask(x, 0.0, 0.0, ag.RngStream(0)), x)

    def test_full_mask(self):
        x = np.random.default_rng(14).standard_normal((3, 250))
        np.testing.assert_array_equal(
            ag.mask(x, 100.0, 100.0, ag.RngStream(0)), np.zeros_like(x)
        )

    def test_run_lengths_in_range(self):
        x = np.ones((12, 250))
        out = ag.mask(x, 40.0, 50.0, ag.RngStream(15))
        for lead in out:
            run = int(np.sum(lead == 0.0))
            assert 100 <= run <= 125
            # the zeros form one contiguous run
            z = np.where(lead == 0.0)[0]
            assert z[-1] - z[0] + 1 == run

    def test_untouched_outside_run(self):
        x = np.random.default_rng(16).standard_normal((4, 250)) + 10.0
        out = ag.mask(x, 10.0, 20.0, ag.RngStream(17))
        changed = out != x
        np.testing.assert_array_equal(out[~changed], x[~changed])
        assert np.all(out[changed] == 0.0)


class TestTimeWarp:
    @pytest.mark.parametrize("w,r", [(1, 10.0), (3, 5.0), (3, 10.0)])
    def test_length_preserved(self, w, r):
        x = np.random.default_rng(18).standard_normal((2, 250))
        out = ag.time_warp(x, w, r, ag.RngStream(19))
        assert out.shape == x.shape

    def test_degenerate_r(self):
        x = np.random.default_rng(20).standard_normal((1, 250))
        out = ag.time_warp(x, 3, 1e-6, ag.RngStream(21))
        assert np.max(np.abs(out - x)) < 1e-4

    def test_ramp_three_slope_regions(self):
        n = 300
        ramp = np.arange(n, dtype=float)[None, :]
        out = ag.time_warp(ramp, 3, 10.0, ag.RngStream(22))[0]
        slopes = np.diff(out)
        # two stretched segments (slope 1/1.1) and one squeezed (slope 1/0.8)
        q = 3.0 - 2.0 * 1.1
        expect = sorted([1 / 1.1, 1 / 1.1, 1 / q])
        # ignore the one-sample jumps at segment joints: keep slope values
        # that occur over a whole segment
        vals, counts = np.unique(np.round(slopes, 3), return_counts=True)
        uniq = sorted(vals[counts >= 10])
        assert len(uniq) == 2  # stretched slope and squeezed slope
        for u in uniq:
            assert any(abs(u - e) < 0.02 for e in expect)
        ratio = max(uniq) / min(uniq)
        assert abs(ratio - 1.1 / q) < 0.05

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ag.time_warp(np.ones((1, 5)), 3, 10.0, ag.RngStream(0))


class TestCombine:
    def test_deterministic(self):
        x = np.random.default_rng(23).standard_normal((3, 250))
        a = aug("Combination", x, 77)
        b = aug("Combination", x, 77)
        np.testing.assert_array_equal(a, b)

    def test_length_preserved(self):
        x = np.random.default_rng(24).standard_normal((2, 250))
        for seed in range(10):
            assert aug("Combination", x, seed).shape == x.shape

    def test_pool_matches_stated_parameters(self):
        pool = dict(ag.COMBINATION_POOL)
        assert pool["GaussianNoise"] == {"sigma": 1.0}
        assert pool["ChannelScaling"] == {"a": 0.33, "b": 3.0}
        assert pool["BaselineWander"] == {"f_w": 100.0, "s_bw": 1.0}
        assert pool["EmgNoise"] == {"sigma": 0.01}
        assert pool["Masking"] == {"a_pct": 40.0, "b_pct": 50.0}
        assert pool["TimeWarping"] == {"w": 1, "r_pct": 10.0}
        for kind, params in ag.COMBINATION_POOL:
            ag.AugmentationSpec(kind, params)


class TestSpecSerialization:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ag.AugmentationSpec("FrequencyShift", {})

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ag.AugmentationSpec("Masking", {"a_pct": 60.0, "b_pct": 20.0})
        with pytest.raises(ValueError):
            ag.AugmentationSpec("Masking", {"a_pct": 10.0})

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("GaussianNoise", {"sigma": 0.1, "sigmaa": 5}),
            ("GaussianNoise", {}),
            ("Negation", {"sigma": 0.1}),
            ("Combination", {"w": 1}),
            ("ChannelScaling", {"a": 0.5}),
        ],
    )
    def test_missing_or_extra_parameter_rejected(self, kind, params):
        with pytest.raises(ValueError, match="takes parameters"):
            ag.AugmentationSpec(kind, params)

    @pytest.mark.parametrize(
        "value", [True, False, "3", None, [3], {"w": 3}, float("nan"), float("inf"), 10**400]
    )
    def test_value_that_is_not_a_finite_number_rejected(self, value):
        with pytest.raises(ValueError, match="'w' must be a finite number"):
            ag.AugmentationSpec("TimeWarping", {"w": value, "r_pct": 10.0})

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("GaussianNoise", {"sigma": 0}),
            ("ChannelScaling", {"a": 0, "b": 1}),
            ("ChannelScaling", {"a": 2, "b": 1}),
            ("BaselineWander", {"f_w": 0, "s_bw": 1.0}),
            ("BaselineWander", {"f_w": 100.0, "s_bw": -0.1}),
            ("EmgNoise", {"sigma": -1}),
            ("Masking", {"a_pct": -1, "b_pct": 20}),
            ("Masking", {"a_pct": 10, "b_pct": 100.5}),
            ("TimeWarping", {"w": 0, "r_pct": 10.0}),
            ("TimeWarping", {"w": 1.5, "r_pct": 10.0}),
            ("TimeWarping", {"w": 3, "r_pct": 0}),
        ],
    )
    def test_value_out_of_range_rejected(self, kind, params):
        with pytest.raises(ValueError, match="invalid parameters"):
            ag.AugmentationSpec(kind, params)

    def test_integer_and_numpy_values_accepted(self):
        x = np.random.default_rng(25).standard_normal((3, 120))
        np.testing.assert_array_equal(
            aug("TimeWarping", x, 4, w=np.int64(3), r_pct=np.float64(5.0)),
            aug("TimeWarping", x, 4, w=3.0, r_pct=5),
        )


def test_readme_table_lists_each_recipes_parameters():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*?) \|", text, re.M))
    for kind, recipe in ag._RECIPES.items():
        assert re.findall(r"`(\w+)`", rows[kind]) == list(recipe.names), kind


ALL_SPECS = [
    ag.AugmentationSpec(kind, params)
    for kind, grid in PAPER_GRIDS.items()
    for params in grid
] + [ag.AugmentationSpec("Negation", {}), ag.AugmentationSpec("Combination", {})]


@settings(max_examples=60, deadline=None)
@given(
    spec_idx=st.integers(0, len(ALL_SPECS) - 1),
    seed=st.integers(0, 2**32 - 1),
    leads=st.integers(1, 12),
    n=st.integers(64, 400),
)
def test_property_shape_preserved_and_deterministic(spec_idx, seed, leads, n):
    spec = ALL_SPECS[spec_idx]
    x = np.random.default_rng(seed).standard_normal((leads, n))
    a = ag.apply_augmentation(x, spec, ag.RngStream(seed))
    b = ag.apply_augmentation(x, spec, ag.RngStream(seed))
    assert a.shape == x.shape
    np.testing.assert_array_equal(a, b)
