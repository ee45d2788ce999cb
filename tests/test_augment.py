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
            # stretched segments that would fill the whole window
            ("TimeWarping", {"w": 1, "r_pct": 100}),
            ("TimeWarping", {"w": 2, "r_pct": 150}),
            ("TimeWarping", {"w": 3, "r_pct": 50}),
            ("TimeWarping", {"w": 5, "r_pct": 66.7}),
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


BATCH_SPECS = ALL_SPECS + [
    ag.AugmentationSpec("ChannelScaling", {"a": 1.0, "b": 1.0}),
    ag.AugmentationSpec("BaselineWander", {"f_w": 7.5, "s_bw": 0.0}),
    ag.AugmentationSpec("Masking", {"a_pct": 0.0, "b_pct": 0.0}),
    ag.AugmentationSpec("Masking", {"a_pct": 100.0, "b_pct": 100.0}),
    ag.AugmentationSpec("TimeWarping", {"w": 5, "r_pct": 20.0}),
    ag.AugmentationSpec("TimeWarping", {"w": 2, "r_pct": 50.0}),
]


# recipes whose draws for a batch are those of its windows one by one
PER_WINDOW_DRAWS = ("GaussianNoise", "ChannelScaling", "Negation", "BaselineWander", "EmgNoise")


def spec_id(s):
    return f"{s.kind}{sorted(s.params.values())}"


@pytest.mark.parametrize("batch", [1, 7, 32])
@pytest.mark.parametrize("leads", [1, 12])
@pytest.mark.parametrize(
    "spec", [s for s in BATCH_SPECS if s.kind in PER_WINDOW_DRAWS], ids=spec_id
)
def test_batch_equals_its_windows_one_by_one(spec, leads, batch):
    for seed in (0, 5, 2**32 - 1):
        X = np.random.default_rng(seed).standard_normal((batch, leads, 37))
        X[0, 0, :3] = -0.0
        one, whole = ag.RngStream(seed), ag.RngStream(seed)
        expect = np.stack([ag.apply_augmentation(x, spec, one) for x in X])
        got = ag.apply_augmentation(X, spec, whole)
        assert got.tobytes() == expect.tobytes()
        assert whole.generator.bit_generator.state == one.generator.bit_generator.state


@pytest.mark.parametrize("batch", [1, 7, 32])
@pytest.mark.parametrize("leads", [1, 12])
@pytest.mark.parametrize("spec", BATCH_SPECS, ids=spec_id)
def test_batch_contract(spec, leads, batch):
    X = np.random.default_rng(batch).standard_normal((batch, leads, 37))
    before = X.copy()
    rng = ag.RngStream(3)
    got = ag.apply_augmentation(X, spec, rng)
    assert got.shape == X.shape and got.dtype == np.float64
    assert ag.apply_augmentation(X, spec, ag.RngStream(3)).tobytes() == got.tobytes()
    assert X.tobytes() == before.tobytes()
    advanced = rng.generator.bit_generator.state != ag.RngStream(3).generator.bit_generator.state
    assert advanced == (spec.kind != "Negation")


@pytest.mark.parametrize("n", [2, 5, 6])
def test_orders_are_uniform_permutations(n):
    rows = 60_000
    order = ag._orders(ag.RngStream(n), rows, n)
    np.testing.assert_array_equal(np.sort(order, axis=1), np.broadcast_to(np.arange(n), order.shape))
    # counts[position, value]: each Binomial(rows, 1/n)
    counts = np.stack([np.bincount(order[:, j], minlength=n) for j in range(n)])
    sigma = np.sqrt(rows * (1 / n) * (1 - 1 / n))
    assert np.all(np.abs(counts - rows / n) <= 5 * sigma), counts


def test_masking_batch_runs_in_range():
    out = ag.mask(np.ones((32, 12, 250)), 40.0, 50.0, ag.RngStream(15))
    for lead in out.reshape(-1, 250):
        z = np.flatnonzero(lead == 0.0)
        assert 100 <= z.size <= 125
        assert z[-1] - z[0] + 1 == z.size  # one contiguous run


def test_time_warp_window_too_short_for_its_stretch_rejected():
    with pytest.raises(ValueError, match="23-sample window .* w = 5 and r_pct = 60"):
        ag.time_warp(np.ones((8, 1, 23)), 5, 60.0, ag.RngStream(0))


@pytest.mark.parametrize("seed", range(5))
def test_time_warp_window_too_short_rejected_on_every_draw(seed):
    # one window, so its own draw of the stretched segments decides
    with pytest.raises(ValueError, match="23-sample window .* w = 5 and r_pct = 60"):
        ag.time_warp(np.ones((1, 1, 23)), 5, 60.0, ag.RngStream(seed))


def test_batch_too_short_for_time_warp_rejected():
    with pytest.raises(ValueError, match="window too short"):
        ag.time_warp(np.ones((4, 2, 5)), 3, 10.0, ag.RngStream(0))


# Oracles: the recipes as they read before the combination rewrite, verbatim
# but for the `ag.` prefix of the helpers they share with the module. The
# rewrite must give their bytes and leave the generator where they leave it.
def _oracle_gaussian_noise(x, p, rng):
    """Additive i.i.d. Normal(0, sigma^2) noise on every sample."""
    noise = rng.generator.normal(0.0, p["sigma"], size=x.shape)
    noise += x
    return noise


def _oracle_emg_noise(x, p, rng):
    """High-pass-filtered white noise simulating muscle-activity artifacts.

    The noise is brick-wall filtered above 0.3 x Nyquist in the frequency
    domain, then rescaled so each window's sample std is sigma again.
    """
    n = x.shape[2]
    spec = np.fft.rfft(rng.generator.normal(0.0, p["sigma"], size=x.shape), axis=2)
    spec[:, :, np.fft.rfftfreq(n) < 0.15] = 0.0  # cycles per sample; Nyquist = 0.5
    filtered = np.fft.irfft(spec, n=n, axis=2)
    std = filtered.std(axis=(1, 2))
    filtered *= np.divide(p["sigma"], std, out=np.ones_like(std), where=std > 0)[:, None, None]
    filtered += x
    return filtered


def _oracle_mask(x, p, rng):
    """Zero a contiguous c% run per lead, c drawn once per window from [a, b]."""
    n_windows, n_leads, n = x.shape
    c = rng.generator.uniform(p["a_pct"], p["b_pct"], size=n_windows)
    run = np.round(c / 100.0 * n).astype(np.int64)[:, None]
    start = rng.generator.integers(0, n - run + 1, size=(n_windows, n_leads))
    t = np.arange(n)
    return np.where((t >= start[..., None]) & (t < (start + run)[..., None]), 0.0, x)


def _oracle_time_warp(x, p, rng):
    """Stretch a random half of w segments by r% and squeeze the rest.

    Total length is preserved exactly. For w = 1 the single segment is split
    into two halves internally so that one can stretch and the other squeeze.
    """
    n_windows, _, n = x.shape
    w = int(p["w"])
    if n < 2 * w:
        raise ValueError("window too short for the requested segment count")
    ag._check_fit(n, w, p["r_pct"])
    n_seg, n_stretch = ag._segment_counts(w)
    stretched = np.sort(ag._orders(rng, n_windows, n_seg)[:, :n_stretch], axis=1)
    out = np.empty_like(x)
    for s in np.unique(stretched, axis=0):
        rows = np.flatnonzero((stretched == s).all(axis=1))
        lo, hi, frac = ag._warp_plan(n, w, p["r_pct"], tuple(s.tolist()))
        windows = x[rows]
        y0 = np.take(windows, lo, axis=2)
        with np.errstate(invalid="ignore", over="ignore"):  # huge values may overflow
            warped = np.take(windows, hi, axis=2) - y0
            warped *= frac
            warped += y0
        out[rows] = warped
    return out


def _oracle_combine(x, p, rng):
    """Apply four distinct augmentations drawn without replacement, in order.

    Each window takes the first four of a random order of the pool. Each
    stage applies each pool recipe once, to the windows that picked it.
    """
    picks = ag._orders(rng, x.shape[0], len(ag.COMBINATION_POOL))[:, :4]
    x = x.copy()
    for stage in picks.T:
        for i in np.unique(stage):
            rows = np.flatnonzero(stage == i)
            kind, params = ag.COMBINATION_POOL[i]
            x[rows] = ORACLES[kind](x[rows], params, rng)
    return x


ORACLES = {kind: recipe.apply for kind, recipe in ag._RECIPES.items()} | {
    "GaussianNoise": _oracle_gaussian_noise,
    "EmgNoise": _oracle_emg_noise,
    "Masking": _oracle_mask,
    "TimeWarping": _oracle_time_warp,
    "Combination": _oracle_combine,
}


@pytest.mark.parametrize("batch", [1, 2, 7, 30])
@pytest.mark.parametrize("spec", BATCH_SPECS, ids=spec_id)
def test_recipes_give_the_oracles_bytes_and_stream_state(spec, batch):
    for leads in (1, 12):
        for n in (37, 250, 251):
            seed = 1000 * batch + 10 * leads + n
            X = np.random.default_rng(seed).standard_normal((batch, leads, n))
            X[0, 0, :3] = -0.0
            X[-1, -1, n // 2] = 1e308
            before = X.copy()
            mine, oracle = ag.RngStream(seed), ag.RngStream(seed)
            with np.errstate(over="ignore", invalid="ignore"):  # 1e308 scaled by up to 3
                got = ag._RECIPES[spec.kind].apply(X, spec.params, mine)
                expect = ORACLES[spec.kind](X, spec.params, oracle)
            assert got.tobytes() == expect.tobytes(), (leads, n)
            assert mine.generator.bit_generator.state == oracle.generator.bit_generator.state
            assert X.tobytes() == before.tobytes()
