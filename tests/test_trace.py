import io
import re

import numpy as np
import pytest

from cyclecast.trace import (
    US_PER_SECOND,
    ColumnMapping,
    MetricKind,
    PeriodObservation,
    TraceEvent,
    aggregate_period,
    aggregate_span,
    build_histogram,
    parse_trace,
    read_observations,
    span_tps,
    write_observations,
    write_trace,
)


def _lines(*rows: str):
    return io.StringIO("\n".join(rows) + "\n")


class TestParse:
    def test_identity_mapping_row(self):
        res = parse_trace(_lines("600000000,j1,t1,0.5,0.02"))
        assert res.rejected == 0
        assert res.events == [TraceEvent(600000000, "j1", "t1", 0.5, 0.02)]

    def test_empty_input(self):
        res = parse_trace(_lines(""))
        assert res.events == []
        assert res.rejected == 0

    def test_bad_cpu_field_rejected(self):
        res = parse_trace(_lines("1,j,t,abc,0.1", "2,j,t,0.2,0.1"))
        assert res.rejected == 1
        assert len(res.events) == 1

    def test_bad_timestamp_rejected(self):
        res = parse_trace(_lines("oops,j,t,0.1,0.1", "-5,j,t,0.1,0.1"))
        assert res.rejected == 2
        assert res.events == []

    def test_short_row_rejected(self):
        res = parse_trace(_lines("12,j", "13,j,t,0.7,0.3"))
        assert res.rejected == 1
        assert res.events[0].timestamp == 13

    def test_negative_request_rejected(self):
        res = parse_trace(_lines("1,j,t,-0.5,0.1"))
        assert res.rejected == 1

    def test_unsorted_input_sorted(self):
        res = parse_trace(_lines("30,j,t,0,0", "10,j,t,0,0", "20,j,t,0,0"))
        assert [e.timestamp for e in res.events] == [10, 20, 30]

    def test_header_name_mapping(self):
        mapping = ColumnMapping(timestamp="time", cpu="cpu_req", mem="mem_req", job=None, task=None, has_header=True)
        res = parse_trace(_lines("time,cpu_req,mem_req", "42,0.25,0.5"), mapping)
        assert res.events == [TraceEvent(42, "", "", 0.25, 0.5)]

    def test_missing_named_column_raises(self):
        mapping = ColumnMapping(timestamp="nope", has_header=True)
        with pytest.raises(ValueError):
            parse_trace(_lines("time,cpu,mem", "42,0.25,0.5"), mapping)

    def test_named_column_without_header_raises(self):
        mapping = ColumnMapping(timestamp="time", has_header=False)
        with pytest.raises(ValueError):
            parse_trace(_lines("42,j,t,0.25,0.5"), mapping)

    def test_arrivals_only_mapping(self):
        mapping = ColumnMapping(timestamp=0, job=None, task=None, cpu=None, mem=None)
        res = parse_trace(_lines("7", "9"), mapping)
        assert [e.timestamp for e in res.events] == [7, 9]
        assert res.events[0].cpu_request == 0.0

    def test_alternate_delimiter(self):
        mapping = ColumnMapping(delimiter=";")
        res = parse_trace(_lines("600;j1;t1;0.5;0.02"), mapping)
        assert res.events == [TraceEvent(600, "j1", "t1", 0.5, 0.02)]


class TestAggregate:
    def test_arrival_counting(self):
        events = [TraceEvent(0), TraceEvent(10 * US_PER_SECOND), TraceEvent(70 * US_PER_SECOND)]
        obs = aggregate_period(events, (0, 120 * US_PER_SECOND), MetricKind.ARRIVALS, 60)
        assert obs.samples == [2, 1]

    def test_empty_window_zeros(self):
        obs = aggregate_period([], (0, 180 * US_PER_SECOND), MetricKind.ARRIVALS, 60)
        assert obs.samples == [0, 0, 0]

    def test_cpu_scaling(self):
        events = [
            TraceEvent(0, cpu_request=0.5),
            TraceEvent(1 * US_PER_SECOND, cpu_request=0.25),
        ]
        obs = aggregate_period(events, (0, 60 * US_PER_SECOND), MetricKind.CPU, 60, scale=100.0)
        assert obs.samples == [75]

    def test_memory_metric(self):
        events = [TraceEvent(0, mem_request=0.031)]
        obs = aggregate_period(events, (0, 60 * US_PER_SECOND), MetricKind.MEMORY, 60, scale=1000.0)
        assert obs.samples == [31]

    def test_events_outside_window_ignored(self):
        events = [TraceEvent(5), TraceEvent(61 * US_PER_SECOND)]
        obs = aggregate_period(events, (0, 60 * US_PER_SECOND), MetricKind.ARRIVALS, 60)
        assert obs.samples == [1]

    def test_indivisible_window_raises(self):
        with pytest.raises(ValueError):
            aggregate_period([], (0, 90 * US_PER_SECOND), MetricKind.ARRIVALS, 60)

    def test_inverted_window_raises(self):
        with pytest.raises(ValueError):
            aggregate_period([], (10, 10), MetricKind.ARRIVALS, 60)

    def test_nonpositive_scale_rejected_for_resource_metrics(self):
        with pytest.raises(ValueError):
            aggregate_period([], (0, 60 * US_PER_SECOND), MetricKind.CPU, 60, scale=0.0)

    def test_conservation_over_span(self):
        rng = np.random.default_rng(13)
        span_sec = 40 * 60
        ts = np.sort(rng.integers(0, span_sec * US_PER_SECOND, size=500))
        events = [TraceEvent(int(t)) for t in ts]
        observations = aggregate_span(events, 0, 4, 10, 2, MetricKind.ARRIVALS, 60)
        assert sum(sum(o.samples) for o in observations) == len(events)

    def test_rebinning_preserves_sum(self):
        rng = np.random.default_rng(17)
        ts = np.sort(rng.integers(0, 600 * US_PER_SECOND, size=200))
        events = [TraceEvent(int(t)) for t in ts]
        coarse = aggregate_period(events, (0, 600 * US_PER_SECOND), MetricKind.ARRIVALS, 60)
        fine = aggregate_period(events, (0, 600 * US_PER_SECOND), MetricKind.ARRIVALS, 30)
        assert len(fine.samples) == 2 * len(coarse.samples)
        assert sum(fine.samples) == sum(coarse.samples)

    def test_span_stamping(self):
        events = [TraceEvent(i * 30 * 60 * US_PER_SECOND) for i in range(6)]
        observations = aggregate_span(events, 0, 6, 30, 2, MetricKind.ARRIVALS, 60)
        assert [(o.tp_index, o.cycle_index) for o in observations] == [
            (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3),
        ]

    def test_span_tps_covers_last_event(self):
        events = [TraceEvent(0), TraceEvent(95 * 60 * US_PER_SECOND)]
        assert span_tps(events, 0, 30) == 4
        assert span_tps(events, 96 * 60 * US_PER_SECOND, 30) == 0


class TestHistogram:
    def test_unit_bins(self):
        assert build_histogram([1, 1, 2, 3], 1) == [(1, 2), (2, 1), (3, 1)]

    def test_single_sample(self):
        assert build_histogram([5], 4) == [(4, 1)]

    def test_wide_bins(self):
        assert build_histogram([0, 0, 0, 9], 5) == [(0, 3), (5, 1)]

    def test_interior_gap_bins_present(self):
        assert build_histogram([0, 11], 5) == [(0, 1), (5, 0), (10, 1)]

    def test_frequencies_sum_to_count(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            samples = [int(v) for v in rng.integers(0, 100, size=int(rng.integers(1, 80)))]
            width = int(rng.integers(1, 9))
            hist = build_histogram(samples, width)
            assert sum(f for _, f in hist) == len(samples)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_histogram([], 1)


class TestObservationFiles:
    def test_round_trip(self, tmp_path):
        observations = [
            PeriodObservation(1, 1, MetricKind.ARRIVALS, [0, 3, 1], 60),
            PeriodObservation(2, 1, MetricKind.ARRIVALS, [5, 5, 5], 60),
        ]
        path = tmp_path / "obs.csv"
        write_observations(path, observations, scale=100.0)
        assert read_observations(path) == observations

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_observations(path)

    def test_row_errors_name_the_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(
            "tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n"
            "1,1,arrivals,60,100.0,1 2\n"
            "2,1,arrivals,60,100.0,\n"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            read_observations(path)

    def test_trace_round_trip(self, tmp_path):
        events = [TraceEvent(5, "j1", "t1", 0.5, 0.25), TraceEvent(9, "j2", "t2", 1.5, 0.125)]
        path = tmp_path / "trace.csv"
        write_trace(path, events)
        res = parse_trace(path, ColumnMapping(has_header=True))
        assert res.events == events
        assert res.rejected == 0


class TestObservationType:
    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            PeriodObservation(1, 1, MetricKind.ARRIVALS, [], 60)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            PeriodObservation(1, 1, MetricKind.ARRIVALS, [3, -8, 1], 60)

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            PeriodObservation(0, 1, MetricKind.ARRIVALS, [1], 60)
