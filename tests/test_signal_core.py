import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ecgssl import signal_core as sc


def make_record(leads, rate=100.0, subject="s0"):
    return sc.EcgRecord(subject, np.asarray(leads, dtype=float), rate, sc.LabelSet((), ()))


class TestRecordValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            make_record([[1.0, np.nan]])

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            make_record([[1.0, 2.0]], rate=0.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_rejects_nonfinite_rate(self, rate):
        with pytest.raises(ValueError, match="sampling_rate_hz"):
            make_record([[1.0, 2.0]], rate=rate)

    def test_labelset_length_mismatch(self):
        with pytest.raises(ValueError):
            sc.LabelSet(("a", "b"), (1,))


# (input rate, target rate): integer and non-integer ratios, downsampling and
# upsampling, and 333.3 Hz, whose ratio to 100 Hz needs one phase per output
REFERENCE_RATES = [(fs, 100.0) for fs in (500.0, 400.0, 360.0, 257.0, 250.0, 128.0)] + [
    (100.0, 250.0),
    (333.3, 100.0),
]


def direct_resample(leads, fs_in, target_hz, exact_centres=False):
    """The direct form that `resample` replaced: gather 2*half taps per
    output sample, then one einsum with a per-sample kernel."""
    n_in = leads.shape[1]
    n_out = int(round(n_in * target_hz / fs_in))
    c = min(1.0, target_hz / fs_in)
    half = int(np.ceil(sc._SINC_LOBES / c))
    if exact_centres:
        ratio = Fraction(fs_in) / Fraction(target_hz)
        centers = [m * ratio for m in range(n_out)]
        floors = np.array([int(x) for x in centers])
        frac = np.array([float(x - int(x)) for x in centers])
        idx = floors[:, None] - half + 1 + np.arange(2 * half)[None, :]
        tau = np.arange(1 - half, half + 1)[None, :] - frac[:, None]
    else:
        centers = np.arange(n_out) * fs_in / target_hz  # in input-sample units
        base = np.floor(centers).astype(int) - half + 1
        idx = base[:, None] + np.arange(2 * half)[None, :]  # (n_out, 2*half)
        tau = idx - centers[:, None]
    kernel = c * np.sinc(c * tau) * sc._kaiser(tau, half)
    kernel = kernel * ((idx >= 0) & (idx < n_in))
    idx = np.clip(idx, 0, n_in - 1)
    return np.einsum("cmt,mt->cm", leads[:, idx], kernel)


class TestResample:
    def test_500hz_to_100hz_sample_count(self):
        rec = make_record(np.random.default_rng(0).standard_normal((12, 5000)), 500.0)
        out = sc.resample(rec, 100.0)
        assert out.leads.shape == (12, 1000)
        assert out.sampling_rate_hz == 100.0

    def test_identity_is_byte_identical(self):
        rec = make_record(np.random.default_rng(1).standard_normal((3, 400)), 100.0)
        out = sc.resample(rec, 100.0)
        assert out.leads.tobytes() == rec.leads.tobytes()

    def test_sine_amplitude_preserved(self):
        t = np.arange(5000) / 500.0
        rec = make_record(np.sin(2 * np.pi * 2.0 * t)[None, :], 500.0)
        out = sc.resample(rec, 100.0)
        t2 = np.arange(1000) / 100.0
        ref = np.sin(2 * np.pi * 2.0 * t2)
        # compare away from the edges where the kernel is truncated
        core = slice(50, -50)
        assert np.max(np.abs(out.leads[0][core] - ref[core])) < 0.01

    def test_roundtrip_bandlimited(self):
        rng = np.random.default_rng(2)
        t = np.arange(5000) / 500.0
        x = np.zeros_like(t)
        for f, a, p in zip(
            rng.uniform(1, 39, 8), rng.uniform(0.2, 1.0, 8), rng.uniform(0, 6, 8)
        ):
            x += a * np.sin(2 * np.pi * f * t + p)
        rec = make_record(x[None, :], 500.0)
        back = sc.resample(sc.resample(rec, 100.0), 500.0)
        rel = np.linalg.norm(back.leads[0] - x) / np.linalg.norm(x)
        assert rel < 0.05

    def test_rejects_bad_target(self):
        rec = make_record([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            sc.resample(rec, -5.0)

    def test_kernel_cached_read_only(self):
        p, q, starts, rows = sc._resample_plan(257.0, 100.0, 1946)
        assert (p, q) == (257, 100) and rows.shape == (100, 2 * 83)
        assert not starts.flags.writeable and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_cached_equals_uncached(self):
        rec = make_record(np.random.default_rng(3).standard_normal((12, 5000)), 500.0)
        sc._resample_plan.cache_clear()
        uncached = sc.resample(rec, 100.0)
        cached = sc.resample(rec, 100.0)
        assert sc._resample_plan.cache_info().hits == 1
        assert np.array_equal(uncached.leads, cached.leads)

    @pytest.mark.parametrize("fs_in, target", REFERENCE_RATES)
    @pytest.mark.parametrize("n_leads", [1, 2, 12])
    def test_matches_direct_form(self, fs_in, target, n_leads):
        # 7 samples is shorter than every kernel; upsampling gives no
        # single-output length
        lengths = [n for n in range(1, 10) if round(n * target / fs_in) == 1]
        rng = np.random.default_rng(n_leads)
        for n in lengths[:1] + [7, 1234, 5003]:
            rec = make_record(rng.standard_normal((n_leads, n)), fs_in)
            ref = direct_resample(rec.leads, fs_in, target)
            out = sc.resample(rec, target).leads
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, out - ref)

    @pytest.mark.parametrize("fs_in, target", [(128.0, 100.0), (100.0, 250.0)])
    def test_long_record_matches_exact_centres(self, fs_in, target):
        # the direct form's float centres m * fs_in / target drift with m
        # (2e-12 relative by 20000 samples here); the polyphase centres are
        # j * p plus a phase's offset and do not
        rec = make_record(np.random.default_rng(4).standard_normal((2, 20000)), fs_in)
        ref = direct_resample(rec.leads, fs_in, target, exact_centres=True)
        out = sc.resample(rec, target).leads
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("fs_in, target, n", [(1000.1, 0.3, 5000)])
    def test_ratio_terms_beyond_index_range(self, fs_in, target, n):
        # p of the reduced rate ratio exceeds 2**63; a slice clamps such a
        # step. q can exceed it only when upsampling by more than 1024
        # times, which resample refuses (below)
        rec = make_record(np.random.default_rng(5).standard_normal((2, n)), fs_in)
        ref = direct_resample(rec.leads, fs_in, target)
        out = sc.resample(rec, target).leads
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_no_output_sample_raises(self):
        cases = [(fs_in, target, n) for fs_in, target in REFERENCE_RATES
                 for n in range(1, 10) if round(n * target / fs_in) == 0]
        assert {fs_in for fs_in, _, _ in cases} == {500.0, 400.0, 360.0, 257.0, 250.0, 333.3}
        for fs_in, target, n in cases:
            with pytest.raises(ValueError, match=f"{n} samples at {fs_in:g} Hz give no sample"):
                sc.resample(make_record(np.ones((2, n)), fs_in), target)

    @pytest.mark.parametrize("fs_in, target", [(1e-300, 100.0), (0.01, 100.0), (0.99, 100.0), (0.01, 100.3)])
    def test_rate_far_below_target_rejected_before_allocation(self, fs_in, target):
        # 5000 samples at 0.01 Hz would ask for a (12, 5e7) output at 100 Hz
        rec = make_record(np.ones((12, 5000)), fs_in)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"sampling rate {fs_in:g} Hz is more than 100 times below {target:g} Hz"):
                sc.resample(rec, target)
            assert tracemalloc.get_traced_memory()[1] < 1e6
        finally:
            tracemalloc.stop()
        assert sc.resample(make_record(np.ones((1, 40)), 1.0), 100.0).n_samples == 4000

    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_rejects_nonfinite_target(self, target):
        with pytest.raises(ValueError, match="target_hz"):
            sc.resample(make_record([[1.0, 2.0, 3.0]]), target)


class TestWindow:
    def test_1000_samples_gives_4_windows(self):
        rec = make_record(np.arange(1000, dtype=float)[None, :])
        assert len(sc.window(rec, 250)) == 4

    def test_exact_fit_single_window(self):
        data = np.random.default_rng(3).standard_normal((2, 250))
        rec = make_record(data)
        wins = sc.window(rec, 250)
        assert len(wins) == 1
        np.testing.assert_array_equal(wins[0].data, data)

    def test_remainder_dropped(self):
        rec = make_record(np.arange(999, dtype=float)[None, :])
        wins = sc.window(rec, 250)
        assert len(wins) == 3
        assert wins[-1].data[0, -1] == 749.0

    def test_too_short_gives_empty(self):
        rec = make_record(np.arange(10, dtype=float)[None, :])
        assert sc.window(rec, 250) == []

    def test_concatenation_reconstructs_prefix(self):
        data = np.random.default_rng(4).standard_normal((3, 777))
        rec = make_record(data)
        wins = sc.window(rec, 100)
        joined = np.concatenate([w.data for w in wins], axis=1)
        np.testing.assert_array_equal(joined, data[:, : joined.shape[1]])

    def test_labels_and_subject_carried(self):
        labels = sc.LabelSet(("a",), (1,))
        rec = sc.EcgRecord("subj9", np.ones((1, 500)), 100.0, labels)
        for w in sc.window(rec, 250):
            assert w.source_subject == "subj9"
            assert w.labels == labels


class TestStandardizeWindow:
    def test_zero_mean_unit_std(self):
        data = np.random.default_rng(30).standard_normal((3, 250)) * 4 + 7
        w = sc.standardize_window(sc.Window(data, "s", sc.LabelSet((), ())))
        np.testing.assert_allclose(w.data.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(w.data.std(axis=1), 1.0, atol=1e-12)

    def test_constant_lead_maps_to_zero(self):
        w = sc.standardize_window(sc.Window(np.full((1, 50), 3.0), "s", sc.LabelSet((), ())))
        np.testing.assert_array_equal(w.data, np.zeros((1, 50)))

    def test_split_windows_flag(self):
        recs = [
            sc.EcgRecord(f"s{i}", np.random.default_rng(i).standard_normal((2, 500)) + 5,
                         100.0, sc.LabelSet((), ()))
            for i in range(3)
        ]
        split = sc.split_by_subject(recs, (1 / 3, 1 / 3, 1 / 3), seed=0)
        wins = sc.split_windows(split, 250, standardize=True)
        for w in wins.train + wins.validation + wins.test:
            np.testing.assert_allclose(w.data.mean(axis=1), 0.0, atol=1e-12)


class TestSplitBySubject:
    def _records(self, n):
        return [make_record([[1.0, 2.0]], subject=f"s{i}") for i in range(n)]

    def test_8_1_1(self):
        split = sc.split_by_subject(self._records(10), (0.8, 0.1, 0.1), seed=7)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_three_subjects_one_each(self):
        split = sc.split_by_subject(self._records(3), (1 / 3, 1 / 3, 1 / 3), seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (1, 1, 1)

    def test_deterministic(self):
        recs = self._records(20)
        a = sc.split_by_subject(recs, (0.8, 0.1, 0.1), seed=42)
        b = sc.split_by_subject(recs, (0.8, 0.1, 0.1), seed=42)
        assert [r.subject_id for r in a.train] == [r.subject_id for r in b.train]
        assert [r.subject_id for r in a.test] == [r.subject_id for r in b.test]

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_subject_disjoint(self, seed):
        split = sc.split_by_subject(self._records(17), (0.6, 0.2, 0.2), seed=seed)
        parts = [
            {r.subject_id for r in p}
            for p in (split.train, split.validation, split.test)
        ]
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_too_few_subjects_rejected(self):
        with pytest.raises(ValueError):
            sc.split_by_subject(self._records(2), (0.8, 0.1, 0.1), seed=0)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            sc.split_by_subject(self._records(5), (0.8, 0.3, 0.1), seed=0)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError, match="fractions must be >= 0"):
            sc.split_by_subject(self._records(10), (1.5, -0.5, 0.0), seed=0)


class TestGenerateSynthetic:
    def test_noiseless_reproducible(self):
        cfg = sc.SyntheticEcgConfig(
            n_subjects=1, beats_per_record=1, class_id="normal", noise_sigma=0.0, seed=5
        )
        a = sc.generate_synthetic(cfg)[0]
        b = sc.generate_synthetic(cfg)[0]
        np.testing.assert_array_equal(a.leads, b.leads)
        assert np.max(a.leads) > 0.5  # the QRS bump is present

    def test_fast_rate_has_more_beats(self):
        def beat_count(class_id):
            cfg = sc.SyntheticEcgConfig(
                n_subjects=1,
                beats_per_record=20,
                class_id=class_id,
                noise_sigma=0.0,
                seed=11,
            )
            rec = sc.generate_synthetic(cfg)[0]
            # count QRS peaks: samples above half the R amplitude
            x = rec.leads[0]
            above = x > 0.5
            return int(np.sum(above[1:] & ~above[:-1]))

        assert beat_count("fast_rate") >= 1.4 * beat_count("normal")

    def test_seeds_differ(self):
        mk = lambda s: sc.generate_synthetic(
            sc.SyntheticEcgConfig(n_subjects=1, seed=s)
        )[0]
        assert np.any(mk(1).leads != mk(2).leads)

    def test_class_validation(self):
        with pytest.raises(ValueError):
            sc.SyntheticEcgConfig(n_subjects=1, class_id="nope")

    def test_equal_duration_across_classes(self):
        lens = {
            sc.generate_synthetic(
                sc.SyntheticEcgConfig(n_subjects=1, class_id=c, seed=0)
            )[0].n_samples
            for c in sc.SYNTH_CLASSES
        }
        assert len(lens) == 1


def reference_generate(config):
    """The generator as it was before it evaluated bumps on their support:
    every bump over the whole record, one beat at a time."""
    rng = np.random.default_rng(config.seed)
    fs = config.sampling_rate_hz
    duration_s = config.beats_per_record * sc._NORMAL_RR_S
    n_samples = int(round(duration_s * fs))
    t = np.arange(n_samples) / fs

    records = []
    for s in range(config.n_subjects):
        mean_rr = sc._NORMAL_RR_S * sc._RR_FACTOR[config.class_id]
        # per-subject physiological variation, fixed across the record
        mean_rr *= 1.0 + 0.05 * rng.standard_normal()
        onsets = []
        pos = 0.0
        while pos < duration_s:
            onsets.append(pos)
            rr = mean_rr
            if config.class_id == "irregular_interval":
                rr = max(0.2, rr * (1.0 + 0.3 * rng.standard_normal()))
            pos += rr

        signal = np.zeros(n_samples)
        for onset in onsets:
            for (off, width), amp in zip(sc._BUMPS, config.bump_amplitudes):
                signal += amp * np.exp(-0.5 * ((t - onset - off) / width) ** 2)

        lead_gain = 1.0 + 0.1 * rng.standard_normal(config.n_leads)
        leads = lead_gain[:, None] * signal[None, :]
        if config.noise_sigma > 0:
            leads = leads + rng.normal(0.0, config.noise_sigma, size=leads.shape)

        records.append(
            sc.EcgRecord(
                subject_id=f"synth-{config.class_id}-{config.seed}-{s}",
                leads=leads,
                sampling_rate_hz=fs,
                labels=sc.LabelSet.from_names(sc.SYNTH_CLASSES, [config.class_id]),
            )
        )
    return records


# (n_leads, bump_amplitudes, noise_sigma): default, out-of-distribution and
# negative amplitudes, with and without noise, on 1 and 12 leads
GENERATOR_VARIANTS = list(itertools.product(
    (1, 12), ((0.15, 1.0, 0.3), (0.5, 0.5, 0.7), (-0.4, 1.0, 0.3)), (0.0, 0.05)
))
ORACLE_RATES = (5.0, 37.0, 100.0, 250.0, 400.0, 500.0, 1000.0)


class TestGeneratorOracle:
    @pytest.mark.parametrize("rate", ORACLE_RATES)
    def test_byte_identical_to_whole_record_bumps(self, rate):
        """Each rate meets every class at 1, 12 and 40 beats, and every
        variant once, paired differently at each rate."""
        shift = ORACLE_RATES.index(rate)
        cases = itertools.product(sc.SYNTH_CLASSES, (1, 12, 40))
        for i, (class_id, beats) in enumerate(cases):
            n_leads, amplitudes, sigma = GENERATOR_VARIANTS[(i + shift) % len(GENERATOR_VARIANTS)]
            cfg = sc.SyntheticEcgConfig(
                n_subjects=2, beats_per_record=beats, class_id=class_id, noise_sigma=sigma,
                sampling_rate_hz=rate, seed=100 * shift + i, n_leads=n_leads,
                bump_amplitudes=amplitudes,
            )
            got, want = sc.generate_synthetic(cfg), reference_generate(cfg)
            assert len(got) == len(want) == 2
            for a, b in zip(got, want):
                assert a.leads.tobytes() == b.leads.tobytes(), cfg
                assert (a.subject_id, a.labels, a.sampling_rate_hz) == (
                    b.subject_id, b.labels, b.sampling_rate_hz
                )

    @pytest.mark.parametrize("rate, beats", [(0.01, 12), (0.6, 1), (1e-4, 1000)])
    def test_cohort_without_samples_rejected(self, rate, beats):
        with pytest.raises(ValueError, match="give no sample"):
            sc.SyntheticEcgConfig(n_subjects=1, beats_per_record=beats, sampling_rate_hz=rate)

    def test_one_sample_record(self):
        # 0.8 s at 1.25 Hz is one sample
        cfg = sc.SyntheticEcgConfig(n_subjects=1, beats_per_record=1, sampling_rate_hz=1.25)
        (rec,) = sc.generate_synthetic(cfg)
        assert rec.n_samples == 1
        assert rec.leads.tobytes() == reference_generate(cfg)[0].leads.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
        ("bump_amplitudes", (float("nan"), 1.0, 0.3)),
        ("bump_amplitudes", (0.15, float("-inf"), 0.3)),
    ])
    def test_nonfinite_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            sc.SyntheticEcgConfig(n_subjects=1, **{field: value})


class TestIngestion:
    def test_csv_roundtrip(self, tmp_path):
        rec = make_record(np.random.default_rng(6).standard_normal((3, 50)))
        path = tmp_path / "r.csv"
        sc.write_record_csv(path, rec)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(back.T, rec.leads)

    def test_binary_roundtrip(self, tmp_path):
        rec = make_record(
            np.random.default_rng(7).standard_normal((12, 250)).astype(np.float32)
        )
        path = tmp_path / "r.esig"
        sc.write_record_binary(path, rec)
        back = sc.read_record_binary(path, subject_id="s0")
        np.testing.assert_array_equal(back.leads, rec.leads)
        assert back.sampling_rate_hz == 100.0

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "junk.esig"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            sc.read_record_binary(path)

    def test_label_sidecar_roundtrip(self, tmp_path):
        mapping = {"r1": ["afib", "sb"], "r2": [], "r3": ["normal"]}
        path = tmp_path / "labels.csv"
        sc.write_label_sidecar(path, mapping)
        assert sc.read_label_sidecar(path) == mapping
