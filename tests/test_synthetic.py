import hashlib
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast import synthetic, trace
from cyclecast.synthetic import CPU_PER_EVENT, MEM_PER_EVENT, SyntheticSpec, generate, true_rate, write_truth
from cyclecast.trace import US_PER_SECOND, MetricKind, aggregate_span, write_trace

import oracles


def _same_events(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in ((a.timestamp, b.timestamp), (a.cpu, b.cpu), (a.mem, b.mem)))


class TestSpecValidation:
    def test_defaults_valid(self):
        SyntheticSpec()

    def test_amplitude_bounds(self):
        with pytest.raises(ValueError):
            SyntheticSpec(daily_amplitude=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(daily_amplitude=0.6, weekly_amplitude=0.5)

    def test_positive_rate_required(self):
        with pytest.raises(ValueError):
            SyntheticSpec(base_rate=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["base_rate", "noise_sigma"])
    def test_non_finite_rate_or_noise_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SyntheticSpec(**{field: value})

    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
            SyntheticSpec(seed=-1)

    def test_expected_event_count_is_bounded(self):
        # One 60 s sub-bin per period and no modulation: the expected count is tps * base_rate.
        one_bin = dict(tp_minutes=1, sub_bin_seconds=60, daily_amplitude=0.0, weekly_amplitude=0.0)
        SyntheticSpec(tps=1, base_rate=float(synthetic._MAX_EVENTS), **one_bin)
        SyntheticSpec(tps=2**21, base_rate=1024.0, **one_bin)
        for tps, rate in [(1, math.nextafter(2.0**31, math.inf)), (2**21 + 1, 1024.0), (1, 1e300)]:
            with pytest.raises(ValueError, match=re.escape(f"base_rate={rate!r} over tps={tps} periods of 1 sub-bins")):
                SyntheticSpec(tps=tps, base_rate=rate, **one_bin)

    def test_event_bound_counts_the_peak_modulation(self):
        # 30 sub-bins per period, peak factor 1 + 0.4 + 0.2.
        rate = 2**31 / (1000 * 30 * 1.6)
        SyntheticSpec(tps=1000, base_rate=rate * 0.999)
        with pytest.raises(ValueError, match="more than the 2147483648 a trace may hold"):
            SyntheticSpec(tps=1000, base_rate=rate * 1.001)

    def test_sub_bin_must_divide_period(self):
        with pytest.raises(ValueError):
            SyntheticSpec(tp_minutes=30, sub_bin_seconds=7)

    def test_span_past_the_sub_bin_cap_is_refused(self):
        # 3e10 sub-bins, though about 48 events are expected. Construction only:
        # a spec that constructs would generate a 3e10-cell count matrix.
        message = "1000000000 periods of 30 sub-bins are 30000000000 sub-bins, more than the 2147483648 a span may hold"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntheticSpec(tps=10**9, base_rate=1e-9)

    def test_trace_ending_past_2_63_us_is_refused(self):
        # The longest period below 2**63 us, in whole minutes, as one sub-bin: one such period fits, two do not.
        tp_minutes = 2**63 // (60 * US_PER_SECOND)
        longest = dict(tp_minutes=tp_minutes, sub_bin_seconds=tp_minutes * 60)
        SyntheticSpec(tps=1, pp_tps=1, **longest)
        end = 2 * tp_minutes * 60 * US_PER_SECOND
        with pytest.raises(ValueError, match=f"^2 periods of {tp_minutes}min end at {end}us, past 2\\*\\*63us$"):
            SyntheticSpec(tps=2, pp_tps=2, **longest)


class TestTrueRate:
    def test_periodic_by_construction(self):
        spec = SyntheticSpec(pp_tps=48, tps=144, daily_amplitude=0.3, weekly_amplitude=0.1)
        for tp in range(48):
            assert true_rate(spec, tp) == true_rate(spec, tp + 48) == true_rate(spec, tp + 96)

    def test_positive_everywhere(self):
        spec = SyntheticSpec(pp_tps=336, daily_amplitude=0.5, weekly_amplitude=0.4)
        assert all(true_rate(spec, tp) > 0 for tp in range(336))


class TestGenerate:
    def test_deterministic_under_seed(self):
        spec = SyntheticSpec(pp_tps=24, tps=48, base_rate=6.0, noise_sigma=0.2, seed=99)
        events_a, truths_a = generate(spec)
        events_b, truths_b = generate(spec)
        assert _same_events(events_a, events_b)
        assert truths_a == truths_b

    def test_seed_changes_stream(self):
        base = dict(pp_tps=24, tps=48, base_rate=6.0)
        events_a, _ = generate(SyntheticSpec(seed=1, **base))
        events_b, _ = generate(SyntheticSpec(seed=2, **base))
        assert not _same_events(events_a, events_b)

    def test_truth_periodic_without_noise(self):
        spec = SyntheticSpec(pp_tps=24, tps=72, noise_sigma=0.0, seed=5)
        _, truths = generate(spec)
        assert truths[:24] == truths[24:48] == truths[48:]

    def test_event_totals_match_aggregation(self):
        spec = SyntheticSpec(pp_tps=24, tps=48, base_rate=5.0, seed=11)
        events, _ = generate(spec)
        observations = aggregate_span(
            events, 0, spec.tps, spec.tp_minutes, spec.pp_tps, MetricKind.ARRIVALS, spec.sub_bin_seconds
        )
        assert sum(sum(o.samples) for o in observations) == len(events)

    def test_homogeneous_rate_recovered(self):
        # No modulation and no noise: the global mean count converges on the
        # base rate (three-sigma band for the total sample count).
        spec = SyntheticSpec(
            pp_tps=48, tps=96, base_rate=9.0, daily_amplitude=0.0, weekly_amplitude=0.0, seed=21
        )
        events, _ = generate(spec)
        observations = aggregate_span(
            events, 0, spec.tps, spec.tp_minutes, spec.pp_tps, MetricKind.ARRIVALS, spec.sub_bin_seconds
        )
        counts = [s for o in observations for s in o.samples]
        mean = sum(counts) / len(counts)
        tolerance = 3.0 * math.sqrt(spec.base_rate / len(counts))
        assert abs(mean - spec.base_rate) <= tolerance

    def test_events_sorted_and_stamped(self):
        spec = SyntheticSpec(pp_tps=24, tps=24, base_rate=4.0, seed=31)
        events, truths = generate(spec)
        assert len(truths) == 24
        assert np.all(np.diff(events.timestamp) >= 0)
        assert np.all(events.cpu == CPU_PER_EVENT) and np.all(events.mem == MEM_PER_EVENT)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        base_rate=st.floats(0.5, 40.0),
        noise_sigma=st.sampled_from([0.0, 0.3]),
        sub_bin_seconds=st.sampled_from([7, 60, 120]),
    )
    def test_event_placement_matches_scalar_loop(self, seed, base_rate, noise_sigma, sub_bin_seconds):
        spec = SyntheticSpec(
            pp_tps=6, tps=12, base_rate=base_rate, noise_sigma=noise_sigma, seed=seed,
            tp_minutes=14, sub_bin_seconds=sub_bin_seconds,
        )
        events, _ = generate(spec)
        observations = aggregate_span(
            events, 0, spec.tps, spec.tp_minutes, spec.pp_tps, MetricKind.ARRIVALS, spec.sub_bin_seconds
        )
        counts = [c for o in observations for c in o.samples]
        expected = oracles.place_events(counts, spec.sub_bin_seconds * US_PER_SECOND)
        assert events.timestamp.tolist() == expected

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        base_rate=st.floats(0.5, 12.0),
        sub_bin_seconds=st.sampled_from([7, 60, 120]),
        block=st.integers(1, 7),
    )
    def test_any_block_size_places_the_same_events(self, seed, base_rate, sub_bin_seconds, block):
        # Sub-bins of several events and blocks of 1 to 7: a sub-bin may pass several block multiples.
        spec = SyntheticSpec(
            pp_tps=3, tps=4, base_rate=base_rate, noise_sigma=0.3, seed=seed,
            tp_minutes=14, sub_bin_seconds=sub_bin_seconds,
        )
        with mock.patch.object(trace, "_EVENT_BLOCK", block):
            events, _ = generate(spec)
        observations = aggregate_span(
            events, 0, spec.tps, spec.tp_minutes, spec.pp_tps, MetricKind.ARRIVALS, spec.sub_bin_seconds
        )
        counts = [c for o in observations for c in o.samples]
        expected = oracles.place_events(counts, spec.sub_bin_seconds * US_PER_SECOND)
        assert events.timestamp.tolist() == expected

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 6, 7])
    def test_trace_bytes_do_not_depend_on_the_block_size(self, tmp_path, block):
        spec = SyntheticSpec(pp_tps=12, tps=36, base_rate=5.0, noise_sigma=0.1, seed=8)
        write_trace(tmp_path / "default.csv", generate(spec)[0], spec.tp_minutes)
        with mock.patch.object(trace, "_EVENT_BLOCK", block):
            write_trace(tmp_path / "blocked.csv", generate(spec)[0], spec.tp_minutes)
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    def test_peak_memory_is_the_output_and_one_block(self):
        # About 500k events in 720 sub-bins.
        spec = SyntheticSpec(pp_tps=12, tps=24, base_rate=700.0, seed=3)
        generate(spec)  # numpy's first-call allocations are not the generator's
        out = []
        tracemalloc.start()
        try:
            out.append(generate(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        events = out[0][0]
        output = events.timestamp.nbytes + events.cpu.nbytes + events.mem.nbytes
        # Eight 8-byte arrays of one block: a block's temporaries.
        assert len(events) > 400_000 and peak <= output + 8 * 8 * trace._EVENT_BLOCK, (peak, output)

    def test_trace_file_bytes_pinned(self, tmp_path):
        # Digest of the file the scalar per-event generator and writer produced.
        spec = SyntheticSpec(pp_tps=12, tps=36, base_rate=5.0, noise_sigma=0.1, seed=8)
        events, _ = generate(spec)
        path = tmp_path / "trace.csv"
        write_trace(path, events, spec.tp_minutes)
        assert len(events) == 5583
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2a6ee8ee512a78a4ff165040ae6bd07c8a4d345d772218408c943cd5562aa7c3"
        )


class TestTruthFile:
    def test_round_trip(self, tmp_path):
        truths = [4.0, 5.5, 3.25]
        path = tmp_path / "truth.csv"
        write_truth(path, truths)
        assert oracles.read_truth(path) == truths
