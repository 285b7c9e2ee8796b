import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cyclecast.store import (
    EmptyWindowError,
    SnapshotError,
    new_dataset,
    restore,
    snapshot,
)

import oracles

RATES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def reachable_stores(draw):
    """A store driven by update() from empty; returns (store, rates written)."""
    m = draw(st.integers(1, 8))
    l = draw(st.integers(1, 4))
    rates = draw(st.lists(RATES, max_size=3 * m * l + 2))
    ds = new_dataset(m, l)
    for rate in rates:
        ds.update(rate)
    return ds, rates


def _signed(lines: list[str]) -> str:
    """A snapshot image with a valid checksum over ``lines``."""
    body = "\n".join(lines) + "\n"
    return body + f"sha256={hashlib.sha256(body.encode()).hexdigest()}\n"


def _dims(m, l, p, w, t):
    return f"m={m} l={l} p={p} w={w} t={t}"


class TestConstruction:
    def test_weekly_dimensions(self):
        ds = new_dataset(336, 4)
        assert (ds.m, ds.l, ds.p, ds.w, ds.t) == (336, 4, 1, 1, 1)
        assert ds.populated == 0

    def test_single_cell(self):
        ds = new_dataset(1, 1)
        assert ds.populated == 0

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            new_dataset(0, 3)
        with pytest.raises(ValueError):
            new_dataset(3, 0)


class TestUpdate:
    def test_position_major_walk(self):
        ds = new_dataset(3, 2)
        for v in range(1, 7):
            ds.update(float(v))
        assert ds.get(1, 1) == 1.0
        assert ds.get(2, 1) == 2.0
        assert ds.get(3, 1) == 3.0
        assert ds.get(1, 2) == 4.0
        assert ds.get(2, 2) == 5.0
        assert ds.get(3, 2) == 6.0
        ds.update(7.0)
        assert ds.get(1, 1) == 7.0

    def test_single_cell_overwrites(self):
        ds = new_dataset(1, 1)
        for v in range(5):
            ds.update(float(v))
        assert ds.get(1, 1) == 4.0
        assert ds.populated == 1

    def test_oldest_replaced_after_full(self):
        ds = new_dataset(4, 2)
        for v in range(9):
            ds.update(float(v))
        stored = {ds.get(p, w) for p in range(1, 5) for w in range(1, 3)}
        assert 0.0 not in stored
        assert stored == {float(v) for v in range(1, 9)}

    def test_rejects_bad_rates(self):
        ds = new_dataset(2, 1)
        with pytest.raises(ValueError):
            ds.update(-1.0)
        with pytest.raises(ValueError):
            ds.update(float("nan"))

    @given(reachable_stores())
    def test_derived_cursors_match_explicit_walk(self, case):
        ds, rates = case
        p, w, t, cells = oracles.cyclic_store_walk(ds.m, ds.l, rates)
        assert (ds.p, ds.w, ds.t) == (p, w, t)
        assert ds.populated == len(cells)
        for position in range(1, ds.m + 1):
            for cycle in range(1, ds.l + 1):
                assert ds.get(position, cycle) == cells.get((position, cycle))

    def test_state_is_the_step_counter_and_cells(self):
        ds = new_dataset(3, 2)
        for name in ("p", "w", "populated", "cursor"):
            with pytest.raises(AttributeError):
                setattr(ds, name, 1)

    def test_get_rejects_cells_outside_the_matrix(self):
        ds = new_dataset(3, 2)
        for v in range(6):
            ds.update(float(v))
        for position, cycle in [(0, 1), (-1, 0), (4, 1), (1, 0), (1, 3), (-1, 1)]:
            with pytest.raises(ValueError):
                ds.get(position, cycle)

    def test_cursor_law_random_replay(self):
        rng = np.random.default_rng(5)
        for m, l in [(1, 1), (5, 3), (12, 4)]:
            ds = new_dataset(m, l)
            n_updates = int(rng.integers(1, 6 * m * l))
            for v in range(n_updates):
                ds.update(float(v))
            p, w, t, cells = oracles.cyclic_store_walk(m, l, [float(v) for v in range(n_updates)])
            assert (ds.p, ds.w, ds.t) == (p, w, t)
            assert ds.populated == min(n_updates, m * l)
            for (pp, ww), value in cells.items():
                assert ds.get(pp, ww) == float(value)


class TestWindow:
    def test_wraparound_positions(self):
        ds = new_dataset(7, 1)
        for v in range(8):  # cursor lands on p=2
            ds.update(float(v))
        assert ds.window_positions(3) == [7, 1, 2]

    def test_no_wrap_positions(self):
        ds = new_dataset(7, 1)
        for v in range(11):  # cursor lands on p=5
            ds.update(float(v))
        assert ds.window_positions(3) == [3, 4, 5]

    def test_replicate_stacking(self):
        ds = new_dataset(5, 2)
        for v in range(10):
            ds.update(float(v))
        window = ds.extract_window(3)
        assert len(window.entries) == 6
        assert sorted({x for x, _ in window.entries}) == [1, 2, 3]
        assert sum(1 for x, _ in window.entries if x == 2) == 2

    def test_warmup_skips_empty_cells(self):
        ds = new_dataset(6, 2)
        ds.update(4.5)
        # cursor at p=2; position 1 (the only populated cell) is offset 5
        window = ds.extract_window(6)
        assert window.entries == [(5, 4.5)]

    def test_empty_window_raises(self):
        ds = new_dataset(6, 1)
        with pytest.raises(EmptyWindowError):
            ds.extract_window(3)

    def test_oversized_window_raises(self):
        ds = new_dataset(4, 1)
        ds.update(1.0)
        with pytest.raises(ValueError):
            ds.extract_window(5)

    def test_window_positions_all_cursors(self):
        m, n = 9, 4
        ds = new_dataset(m, 1)
        for step in range(1, 3 * m + 1):
            ds.update(float(step))
            expected = sorted(((ds.p - 1 - i) % m) + 1 for i in range(n))
            assert sorted(ds.window_positions(n)) == expected

    def test_full_store_window_size(self):
        ds = new_dataset(8, 3)
        for v in range(24):
            ds.update(float(v))
        for n in (1, 4, 8):
            assert len(ds.extract_window(n).entries) == n * 3

    def test_offsets_pair_with_stored_rates(self):
        ds = new_dataset(4, 1)
        for v in [10.0, 20.0, 30.0, 40.0]:
            ds.update(v)
        # cursor back at p=1; window of 3 ends at position 1
        window = ds.extract_window(3)
        assert window.entries == [(1, 30.0), (2, 40.0), (3, 10.0)]


class TestSnapshot:
    def test_round_trip_random(self):
        rng = np.random.default_rng(9)
        ds = new_dataset(11, 3)
        for _ in range(int(rng.integers(5, 40))):
            ds.update(float(rng.uniform(0, 50)))
        assert restore(snapshot(ds)) == ds

    def test_round_trip_empty(self):
        ds = new_dataset(4, 2)
        assert restore(snapshot(ds)) == ds

    def test_truncated_image_rejected(self):
        image = snapshot(new_dataset(3, 2))
        truncated = "\n".join(image.splitlines()[:-2]) + "\n"
        with pytest.raises(SnapshotError):
            restore(truncated)

    def test_tampered_image_rejected(self):
        ds = new_dataset(3, 2)
        ds.update(1.25)
        image = snapshot(ds)
        with pytest.raises(SnapshotError):
            restore(image.replace("1.25", "1.35"))

    def test_restored_copy_is_independent(self):
        ds = new_dataset(5, 2)
        for v in range(7):
            ds.update(float(v))
        copy = restore(snapshot(ds))
        ds.update(99.0)
        assert copy.get(3, 2) is None  # the write landed only in the source
        assert ds.get(3, 2) == 99.0
        assert copy != ds

    def test_bad_header_rejected(self):
        ds = new_dataset(2, 2)
        lines = snapshot(ds).splitlines()
        lines[0] = "SOMETHING-ELSE v1"
        body = "\n".join(lines[:-1]) + "\n"
        import hashlib

        digest = hashlib.sha256(body.encode()).hexdigest()
        with pytest.raises(SnapshotError):
            restore(body + f"sha256={digest}\n")

    def test_image_format_is_stable(self):
        ds = new_dataset(2, 2)
        for v in (1.5, 0.1, 3.0):
            ds.update(v)
        assert snapshot(ds) == (
            "CYCLECAST-STORE v1\nm=2 l=2 p=2 w=2 t=4\n1 1.5\n1 3.0\n1 0.1\n0 -\n"
            "sha256=3995f5f040ad598767ff1674a2ddf3a0a25666c42f7834eb4f3a3e1e19171bcf\n"
        )

    @given(reachable_stores())
    def test_round_trip_reachable_states(self, case):
        ds, _ = case
        image = snapshot(ds)
        assert restore(image) == ds
        assert snapshot(restore(image)) == image

    @pytest.mark.parametrize(
        "dims, cells",
        [
            (_dims(1, 1, 9, -3, 0), ["0 -"]),
            (_dims(1, 1, 1, 1, 2), ["1 nan"]),
            (_dims(1, 1, 1, 1, 2), ["1 -5.0"]),
            (_dims(1, 1, 1, 1, 2), ["1 inf"]),
            (_dims(2, 1, 1, 1, 1), ["1 1.0", "1 2.0"]),
            (_dims(2, 2, 1, 1, 0), ["0 -"] * 4),
            (_dims(0, 2, 1, 1, 1), []),
        ],
    )
    def test_unreachable_states_rejected(self, dims, cells):
        with pytest.raises(SnapshotError):
            restore(_signed(["CYCLECAST-STORE v1", dims, *cells]))

    @given(
        reachable_stores(),
        st.sampled_from(["t", "p", "w", "flag", "nan", "inf", "negative"]),
        st.data(),
    )
    def test_single_field_corruptions_rejected(self, case, field, data):
        ds, _ = case
        lines = snapshot(ds).splitlines()[:-1]
        m, l, p, w, t = ds.m, ds.l, ds.p, ds.w, ds.t
        written = [i for i in range(m * l) if lines[2 + i] != "0 -"]
        if field == "t":
            t = data.draw(st.integers(max_value=0))
        elif field == "p":
            p = data.draw(st.integers(-2, m + 2).filter(lambda v: v != ds.p))
        elif field == "w":
            w = data.draw(st.integers(-2, l + 2).filter(lambda v: v != ds.w))
        elif field == "flag":
            i = data.draw(st.integers(0, m * l - 1))
            lines[2 + i] = "1 1.0" if lines[2 + i] == "0 -" else "0 -"
        else:
            assume(written)
            bad = {"nan": "nan", "inf": "inf", "negative": "-5.0"}[field]
            lines[2 + data.draw(st.sampled_from(written))] = f"1 {bad}"
        lines[1] = _dims(m, l, p, w, t)
        with pytest.raises(SnapshotError):
            restore(_signed(lines))
