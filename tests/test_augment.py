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


class TestGaussianNoise:
    def test_degenerate_sigma(self):
        x = np.random.default_rng(0).standard_normal((2, 100))
        out = ag.gaussian_noise(x, 1e-9, ag.RngStream(0))
        assert np.max(np.abs(out - x)) < 1e-6

    def test_unit_sigma_std(self):
        out = ag.gaussian_noise(zeros(), 1.0, ag.RngStream(1))
        assert 0.9 <= out.std() <= 1.1  # chi-square bound on 3000 draws

    def test_paper_grid_accepted(self):
        for params in PAPER_GRIDS["GaussianNoise"]:
            ag.AugmentationSpec("GaussianNoise", params)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            ag.gaussian_noise(zeros(), 0.0, ag.RngStream(0))


class TestChannelScale:
    def test_identity(self):
        x = np.random.default_rng(2).standard_normal((3, 50))
        np.testing.assert_allclose(ag.channel_scale(x, 1.0, 1.0, ag.RngStream(0)), x)

    def test_forced_double(self):
        x = np.random.default_rng(3).standard_normal((3, 50))
        np.testing.assert_allclose(
            ag.channel_scale(x, 2.0, 2.0, ag.RngStream(0)), 2.0 * x
        )

    def test_ratios_within_range(self):
        x = np.ones((12, 250))
        out = ag.channel_scale(x, 0.33, 3.0, ag.RngStream(4))
        ratios = out / x
        assert np.all(ratios >= 0.33) and np.all(ratios <= 3.0)

    def test_inverse_scaling_is_identity(self):
        x = np.random.default_rng(5).standard_normal((4, 100))
        k = 3.7
        y = ag.channel_scale(x, k, k, ag.RngStream(0))
        back = ag.channel_scale(y, 1 / k, 1 / k, ag.RngStream(0))
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
            ag.baseline_wander(x, 100.0, 0.0, ag.RngStream(0)), x
        )

    def test_peak_amplitude(self):
        out = ag.baseline_wander(zeros(1, 250), 100.0, 1.0, ag.RngStream(8))
        # >= 2 full periods of a 100-sample sine in 250 samples
        assert 0.99 <= np.max(np.abs(out)) <= 1.0

    def test_same_wave_on_all_leads(self):
        out = ag.baseline_wander(zeros(12, 250), 100.0, 0.7, ag.RngStream(9))
        for lead in range(1, 12):
            np.testing.assert_array_equal(out[lead], out[0])

    def test_paper_grid_accepted(self):
        for params in PAPER_GRIDS["BaselineWander"]:
            ag.AugmentationSpec("BaselineWander", params)


class TestEmgNoise:
    def test_degenerate_sigma(self):
        x = np.random.default_rng(10).standard_normal((2, 250))
        out = ag.emg_noise(x, 1e-9, ag.RngStream(0))
        assert np.max(np.abs(out - x)) < 1e-6

    def test_std_after_filtering(self):
        out = ag.emg_noise(zeros(12, 250), 0.5, ag.RngStream(11))
        assert 0.45 <= out.std() <= 0.55

    def test_high_pass_removes_low_frequencies(self):
        out = ag.emg_noise(zeros(1, 1024), 1.0, ag.RngStream(12))
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
        a = ag.combine(x, ag.RngStream(77))
        b = ag.combine(x, ag.RngStream(77))
        np.testing.assert_array_equal(a, b)

    def test_length_preserved(self):
        x = np.random.default_rng(24).standard_normal((2, 250))
        for seed in range(10):
            assert ag.combine(x, ag.RngStream(seed)).shape == x.shape

    def test_pool_matches_stated_parameters(self):
        pool = dict(ag.COMBINATION_POOL)
        assert pool["GaussianNoise"] == {"sigma": 1.0}
        assert pool["ChannelScaling"] == {"a": 0.33, "b": 3.0}
        assert pool["BaselineWander"] == {"f_w": 100.0, "s_bw": 1.0}
        assert pool["EmgNoise"] == {"sigma": 0.01}
        assert pool["Masking"] == {"a_pct": 40.0, "b_pct": 50.0}
        assert pool["TimeWarping"] == {"w": 1, "r_pct": 10.0}


class TestSpecSerialization:
    def test_json_roundtrip(self):
        spec = ag.AugmentationSpec("Masking", {"a_pct": 10.0, "b_pct": 20.0})
        back = ag.AugmentationSpec.from_json(spec.to_json())
        assert back == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ag.AugmentationSpec("FrequencyShift", {})

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ag.AugmentationSpec("Masking", {"a_pct": 60.0, "b_pct": 20.0})
        with pytest.raises(ValueError):
            ag.AugmentationSpec("Masking", {"a_pct": 10.0})


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
