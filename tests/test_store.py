import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclecast.store import EmptyWindowError, new_dataset

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


def _entries(ds, n):
    """The populated (offset, rate) cells of ``window_cells(n)``, offset by offset."""
    block, empty = ds.window_cells(n)
    rows, cols = np.nonzero(~empty)
    return list(zip((rows + 1).tolist(), block[rows, cols].tolist()))


def _positions(ds, n):
    """Positions ``window_cells(n)`` reads, for a store whose cells hold their positions."""
    block, _ = ds.window_cells(n)
    return block[:, 0].astype(int).tolist()


def _filled_with_positions(m, steps):
    """An m x 1 store after ``steps`` writes, each cell holding its position."""
    ds = new_dataset(m, 1)
    for _ in range(steps):
        ds.update(float(ds.p))
    return ds


class TestConstruction:
    def test_weekly_dimensions(self):
        ds = new_dataset(336, 4)
        assert (ds.m, ds.l, ds.p, ds.w, ds.t) == (336, 4, 1, 1, 1)
        assert oracles.store_populated(ds) == 0

    def test_single_cell(self):
        ds = new_dataset(1, 1)
        assert oracles.store_populated(ds) == 0

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
        assert oracles.store_get(ds, 1, 1) == 1.0
        assert oracles.store_get(ds, 2, 1) == 2.0
        assert oracles.store_get(ds, 3, 1) == 3.0
        assert oracles.store_get(ds, 1, 2) == 4.0
        assert oracles.store_get(ds, 2, 2) == 5.0
        assert oracles.store_get(ds, 3, 2) == 6.0
        ds.update(7.0)
        assert oracles.store_get(ds, 1, 1) == 7.0

    def test_single_cell_overwrites(self):
        ds = new_dataset(1, 1)
        for v in range(5):
            ds.update(float(v))
        assert oracles.store_get(ds, 1, 1) == 4.0
        assert oracles.store_populated(ds) == 1

    def test_oldest_replaced_after_full(self):
        ds = new_dataset(4, 2)
        for v in range(9):
            ds.update(float(v))
        stored = {oracles.store_get(ds, p, w) for p in range(1, 5) for w in range(1, 3)}
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
        assert oracles.store_populated(ds) == len(cells)
        for position in range(1, ds.m + 1):
            for cycle in range(1, ds.l + 1):
                assert oracles.store_get(ds, position, cycle) == cells.get((position, cycle))

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
                oracles.store_get(ds, position, cycle)

    def test_cursor_law_random_replay(self):
        rng = np.random.default_rng(5)
        for m, l in [(1, 1), (5, 3), (12, 4)]:
            ds = new_dataset(m, l)
            n_updates = int(rng.integers(1, 6 * m * l))
            for v in range(n_updates):
                ds.update(float(v))
            p, w, t, cells = oracles.cyclic_store_walk(m, l, [float(v) for v in range(n_updates)])
            assert (ds.p, ds.w, ds.t) == (p, w, t)
            assert oracles.store_populated(ds) == min(n_updates, m * l)
            for (pp, ww), value in cells.items():
                assert oracles.store_get(ds, pp, ww) == float(value)


class TestWindow:
    def test_wraparound_positions(self):
        ds = _filled_with_positions(7, 8)  # cursor lands on p=2
        assert _positions(ds, 3) == [7, 1, 2]

    def test_no_wrap_positions(self):
        ds = _filled_with_positions(7, 11)  # cursor lands on p=5
        assert _positions(ds, 3) == [3, 4, 5]

    def test_replicate_stacking(self):
        ds = new_dataset(5, 2)
        for v in range(10):
            ds.update(float(v))
        entries = _entries(ds, 3)
        assert len(entries) == 6
        assert sorted({x for x, _ in entries}) == [1, 2, 3]
        assert sum(1 for x, _ in entries if x == 2) == 2

    def test_warmup_skips_empty_cells(self):
        ds = new_dataset(6, 2)
        ds.update(4.5)
        # cursor at p=2; position 1 (the only populated cell) is offset 5
        assert _entries(ds, 6) == [(5, 4.5)]

    def test_empty_window_raises(self):
        ds = new_dataset(6, 1)
        with pytest.raises(EmptyWindowError):
            ds.window_cells(3)

    def test_oversized_window_raises(self):
        ds = new_dataset(4, 1)
        ds.update(1.0)
        with pytest.raises(ValueError):
            ds.window_cells(5)

    def test_window_positions_all_cursors(self):
        m, n = 9, 4
        ds = _filled_with_positions(m, m)
        for _ in range(3 * m):
            ds.update(float(ds.p))
            expected = sorted(((ds.p - 1 - i) % m) + 1 for i in range(n))
            assert sorted(_positions(ds, n)) == expected

    def test_full_store_window_size(self):
        ds = new_dataset(8, 3)
        for v in range(24):
            ds.update(float(v))
        for n in (1, 4, 8):
            block, empty = ds.window_cells(n)
            assert block.shape == (n, 3) and not empty.any()

    @given(reachable_stores(), st.data())
    def test_entries_match_cell_by_cell_walk(self, case, data):
        ds, _ = case
        n = data.draw(st.integers(1, ds.m))
        expected = oracles.window_entries(ds, n)
        if not expected:
            with pytest.raises(EmptyWindowError):
                ds.window_cells(n)
            return
        block, empty = ds.window_cells(n)
        assert block.shape == empty.shape == (n, ds.l)
        assert np.array_equal(np.isnan(block), empty)
        assert _entries(ds, n) == expected

    def test_offsets_pair_with_stored_rates(self):
        ds = new_dataset(4, 1)
        for v in [10.0, 20.0, 30.0, 40.0]:
            ds.update(v)
        # cursor back at p=1; window of 3 ends at position 1
        assert _entries(ds, 3) == [(1, 30.0), (2, 40.0), (3, 10.0)]
