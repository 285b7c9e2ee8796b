import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclecast import llr
from cyclecast.llr import (
    Fallback,
    KernelFamily,
    KernelSpec,
    llr_apply,
    llr_plan,
)

import oracles
from oracles import effective_bandwidth, kernel_weight

EPAN = KernelSpec(family=KernelFamily.EPANECHNIKOV, h=1.0)
ALL_FAMILIES = [KernelFamily.EPANECHNIKOV, KernelFamily.BIWEIGHT, KernelFamily.GAUSSIAN]


def _fit(points, x_u, spec):
    """The planned fit's value over (x, y) ``points`` and its fallback step."""
    plan = llr_plan([x for x, _ in points], x_u, spec)
    return llr_apply(plan, [y for _, y in points]), plan.fallback[0]


class TestKernelWeight:
    def test_epanechnikov_origin(self):
        assert kernel_weight(EPAN, 0.0, 0.0, 1.0) == 0.75

    def test_epanechnikov_support_edge(self):
        assert kernel_weight(EPAN, 0.0, 1.0, 1.0) == 0.0

    def test_biweight_origin(self):
        spec = KernelSpec(family=KernelFamily.BIWEIGHT, h=1.0)
        assert kernel_weight(spec, 0.0, 0.0, 1.0) == 15.0 / 16.0

    def test_gaussian_origin(self):
        spec = KernelSpec(family=KernelFamily.GAUSSIAN, h=1.0)
        assert kernel_weight(spec, 0.0, 0.0, 1.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_nonincreasing_in_distance(self):
        rng = np.random.default_rng(11)
        for family in ALL_FAMILIES:
            spec = KernelSpec(family=family, h=1.0)
            for _ in range(200):
                h = float(rng.uniform(0.1, 5))
                d1, d2 = sorted(rng.uniform(0, 8, size=2))
                assert kernel_weight(spec, 0.0, d1, h) >= kernel_weight(spec, 0.0, d2, h)

    def test_nonpositive_bandwidth_raises(self):
        with pytest.raises(ValueError):
            kernel_weight(EPAN, 0.0, 1.0, 0.0)


class TestKernelSpec:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            KernelSpec()
        with pytest.raises(ValueError):
            KernelSpec(h=1.0, k=3)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            KernelSpec(h=0.0)
        with pytest.raises(ValueError):
            KernelSpec(k=0)

    @pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
    def test_rejects_a_radius_that_is_not_finite(self, h):
        with pytest.raises(ValueError, match=f"fixed radius must be positive and finite, got {h}"):
            KernelSpec(h=h)


class TestEffectiveBandwidth:
    def test_fixed_radius_passthrough(self):
        spec = KernelSpec(h=2.5)
        assert effective_bandwidth(spec, 0.0, [1.0, 9.0]) == 2.5

    def test_knearest_distance(self):
        spec = KernelSpec(k=2)
        assert effective_bandwidth(spec, 0.0, [-1.0, 0.5, 3.0]) == 1.0

    def test_degenerate_single_point(self):
        spec = KernelSpec(k=1)
        assert effective_bandwidth(spec, 5.0, [5.0]) == 0.0

    def test_zero_distance_promoted_to_smallest_gap(self):
        spec = KernelSpec(k=2)
        assert effective_bandwidth(spec, 0.0, [0.0, 0.0, 3.0]) == 3.0

    def test_k_beyond_points_raises(self):
        with pytest.raises(ValueError):
            effective_bandwidth(KernelSpec(k=4), 0.0, [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            effective_bandwidth(KernelSpec(k=1), 0.0, [])


def _specs_for(family: KernelFamily) -> list[KernelSpec]:
    return [KernelSpec(family=family, h=4.0), KernelSpec(family=family, k=5)]


class TestFitPredict:
    def test_constant_reproduction(self):
        points = [(float(x), 5.0) for x in range(8)]
        for family in ALL_FAMILIES:
            for spec in _specs_for(family):
                assert _fit(points, 3.5, spec)[0] == pytest.approx(5.0, abs=1e-9)

    def test_affine_extrapolation(self):
        points = [(float(x), 2.0 * x + 1.0) for x in range(10)]
        spec = KernelSpec(family=KernelFamily.GAUSSIAN, h=3.0)
        assert _fit(points, 10.0, spec)[0] == pytest.approx(21.0, abs=1e-9)

    def test_affine_reproduction_all_kernels_and_modes(self):
        points = [(float(x), -1.5 * x + 4.0) for x in range(12)]
        for family in ALL_FAMILIES:
            for spec in _specs_for(family):
                for x_u in (0.0, 5.5, 11.0, 12.0):
                    expected = -1.5 * x_u + 4.0
                    assert _fit(points, x_u, spec)[0] == pytest.approx(expected, abs=1e-9)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(5, 50))
            xs = np.sort(rng.uniform(0, 20, size=n))
            ys = rng.uniform(-5, 15, size=n)
            points = list(zip(xs.tolist(), ys.tolist()))
            family = ALL_FAMILIES[int(rng.integers(0, 3))]
            if rng.integers(0, 2):
                spec = KernelSpec(family=family, h=float(rng.uniform(3, 12)))
                h = spec.h
            else:
                k = int(rng.integers(3, n + 1))
                spec = KernelSpec(family=family, k=k)
                h = None
            x_u = float(rng.uniform(0, 20))
            if h is None:
                h = oracles.knearest_bandwidth(x_u, xs.tolist(), spec.k)
                if h == 0:
                    continue
            value, fallback = _fit(points, x_u, spec)
            if fallback is not Fallback.NONE:
                continue
            expected = oracles.llr_normal_equations(points, x_u, family.value, h)
            assert value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "points, x_u, h",
        [([(0.0, 0.0), (-11.0, -11.0)], -16.0, 0.0547), ([(0.0, 0.0), (1.0, 1.0)], -13.5, 0.0625)],
    )
    def test_far_tail_gaussian_weights_keep_the_line(self, points, x_u, h):
        # Only the third widening (8h) weighs both points, with Gaussian
        # weights near 1e-29 and 1e-290, or 1e-158 and 1e-183: their products
        # underflow unless the weights are rescaled first.
        value, fallback = _fit(points, x_u, KernelSpec(family=KernelFamily.GAUSSIAN, h=h))
        assert fallback is Fallback.WIDENED_H
        expected = oracles.llr_normal_equations(points, x_u, "gaussian", 8 * h, dps=400)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_conditioning_at_large_coordinates(self):
        # Period indices can be large; the centered solve must not lose the
        # affine signal to cancellation.
        base = 1_000_000.0
        points = [(base + x, 0.5 * (base + x) - 7.0) for x in range(12)]
        x_u = base + 12.0
        expected = 0.5 * x_u - 7.0
        for spec in (KernelSpec(k=6), KernelSpec(family=KernelFamily.GAUSSIAN, h=4.0)):
            assert _fit(points, x_u, spec)[0] == pytest.approx(expected, abs=1e-6)

    def test_locality_zero_weight_points_removable(self):
        points = [(0.0, 3.0), (1.0, 4.0), (2.0, 2.0), (50.0, 99.0)]
        spec = KernelSpec(family=KernelFamily.EPANECHNIKOV, h=3.0)
        with_far = _fit(points, 1.0, spec)[0]
        without_far = _fit(points[:3], 1.0, spec)[0]
        assert with_far == without_far

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _fit([], 0.0, EPAN)

    @given(
        lo=st.integers(-5, 40),
        reps=st.lists(st.integers(1, 4), min_size=2, max_size=50),
        a=st.floats(-1e3, 1e3),
        b=st.floats(-50.0, 50.0),
        family=st.sampled_from(ALL_FAMILIES),
        h=st.floats(0.5, 100.0),
        k=st.integers(1, 200),
        fixed=st.booleans(),
        data=st.data(),
    )
    def test_exact_line_reproduced(self, lo, reps, a, b, family, h, k, fixed, data):
        # Window geometry: consecutive integer offsets, each with its own
        # number of cycle replicates; the query lies within 2 of the offsets.
        hi = lo + len(reps) - 1
        points = [(float(x), a + b * x) for x, r in zip(range(lo, hi + 1), reps) for _ in range(r)]
        x_u = data.draw(st.integers(4 * lo - 8, 4 * hi + 8)) / 4
        spec = KernelSpec(family=family, h=h) if fixed else KernelSpec(family=family, k=min(k, len(points)))
        value, fallback = _fit(points, x_u, spec)
        exact = abs(value - (a + b * x_u)) <= 1e-9 * (1 + abs(a + b * x_u))
        if fallback is not Fallback.WEIGHTED_MEAN:
            assert exact, (value, fallback)
        if family is KernelFamily.GAUSSIAN:
            # Gaussian weights are positive everywhere: no fit may give up the line.
            assert exact, (value, fallback)


class TestPlanApply:
    @given(
        xs=st.lists(st.one_of(st.integers(-6, 12).map(float), st.floats(-20.0, 20.0)), min_size=1, max_size=40),
        # Three ys sets; each fit reads the first len(xs) values of one.
        ys_sets=st.lists(
            st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e6, 1e6)), min_size=40, max_size=40),
            min_size=3,
            max_size=3,
        ),
        family=st.sampled_from(ALL_FAMILIES),
        h=st.floats(0.01, 30.0),
        k=st.integers(1, 40),
        fixed=st.booleans(),
        x_u=st.floats(-25.0, 25.0),
    )
    # A line through a subnormal: the plan's weights are scaled to [1, 2) and
    # give 0.0, the exact value (test_subnormal_line_is_exact).
    @example(
        xs=[0.0, 7.0], ys_sets=[[0.0, 5e-324]] * 3, family=KernelFamily.EPANECHNIKOV, h=1.0, k=1, fixed=False, x_u=0.0
    )
    def test_one_plan_serves_every_ys_bit_for_bit(self, xs, ys_sets, family, h, k, fixed, x_u):
        spec = KernelSpec(family=family, h=h) if fixed else KernelSpec(family=family, k=min(k, len(xs)))
        plan = llr_plan(xs, x_u, spec)
        rows, values = [], []
        for ys in ys_sets:
            ys = ys[: len(xs)]
            points = list(zip(xs, ys))
            value, fallback = oracles.llr_one_pass(points, x_u, spec)
            assert llr_apply(plan, ys).hex() == value.hex()
            assert plan.fallback[0] is fallback
            rows.append(ys)
            values.append(value.hex())
        # One call over all the ys sets, one per row, gives the same floats.
        assert [v.hex() for v in llr_apply(plan, np.array(rows)).tolist()] == values

    @given(
        xs=st.lists(st.one_of(st.integers(-6, 12).map(float), st.floats(-20.0, 20.0)), min_size=1, max_size=40),
        data=st.data(),
        family=st.sampled_from(ALL_FAMILIES),
        k=st.integers(1, 40),
        x_u=st.floats(-25.0, 25.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_and_large_batches_give_the_1d_floats(self, xs, data, family, k, x_u, seed):
        plan = llr_plan(xs, x_u, KernelSpec(family=family, k=min(k, len(xs))))
        # Batches of 1-3 rows, and of 1,024 terms or more: one row sum serves every size.
        count = data.draw(st.sampled_from([1, 2, 3, 1024, 1061]))
        ys_strategy = st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e6, 1e6)),
            min_size=len(xs),
            max_size=len(xs),
        )
        drawn = [data.draw(ys_strategy) for _ in range(min(count, 3))]
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-12, 1, size=(count - len(drawn), 1))
        batch = np.concatenate([np.array(drawn), rng.uniform(-1e6, 1e6, size=(count - len(drawn), len(xs))) * scale])
        got = [v.hex() for v in llr_apply(plan, batch).tolist()]
        assert got == [llr_apply(plan, row).hex() for row in batch]

    @pytest.mark.parametrize(
        "xs, x_u, spec",
        [
            # det is about 9e-269, so the line's division overflows.
            ([0.0, 6.3e-135], 0.0, KernelSpec(h=10.0)),
            ([0.0, 6.3e-135], 1.0, KernelSpec(h=10.0)),
            ([0.0, 6.3e-135], 1e-134, KernelSpec(h=10.0)),
            # One distinct x: a weighted mean, whose weights are about 7e-4.
            ([2.0, 2.0], 0.0, KernelSpec(family=KernelFamily.GAUSSIAN, h=0.07)),
        ],
    )
    @pytest.mark.parametrize("rows", [10, 512])
    def test_overflowing_rows_give_the_1d_floats_without_a_warning(self, xs, x_u, spec, rows):
        # The tier-1 filter turns a RuntimeWarning into a failure.
        plan = llr_plan(xs, x_u, spec)
        hard = [[1e306, -1e306], [-1e306, 1e306], [1e306, 0.0], [0.0, -1e306], [8e307, -8e307],
                [1e306, 1e306], [5e307, 5e307], [math.inf, 1.0], [1.0, -math.inf], [1.0, 2.0]]
        # Every hard row once, and a batch of 1,024 terms or more.
        batch = np.array([hard[i % len(hard)] for i in range(rows)])
        got = [v.hex() for v in llr_apply(plan, batch).tolist()]
        assert got == [llr_apply(plan, row).hex() for row in batch]

    def test_empty_xs_raise(self):
        with pytest.raises(ValueError):
            llr_plan([], 0.0, EPAN)

    def test_subnormal_line_is_exact(self):
        # Both points lie on the line y = x * 5e-324 / 7, which is 0 at x = 0:
        # the plan gives the exact value. A one-pass solve with unscaled
        # weights rounds its underflowing products otherwise and gives 5e-324.
        points = [(0.0, 0.0), (7.0, 5e-324)]
        plan = llr_plan([0.0, 7.0], 0.0, KernelSpec(k=1))
        assert plan.fallback[0] is Fallback.WIDENED_H  # k = 1 gives h = 7, widened once to 14
        assert oracles.llr_normal_equations(points, 0.0, "epanechnikov", 14.0, dps=400) == 0.0
        assert llr_apply(plan, [0.0, 5e-324]) == 0.0
        assert oracles.llr_one_pass(points, 0.0, KernelSpec(k=1)) == (0.0, Fallback.WIDENED_H)

    def test_a_subnormal_largest_weight_plans(self):
        # At 38 and 38.5 from the query the Gaussian weights are near 1e-314
        # and 1e-322, both subnormal; they are scaled to [1, 2) exactly.
        plan = llr_plan([0.0, 0.5], 38.5, KernelSpec(family=KernelFamily.GAUSSIAN, h=1.0))
        assert plan.fallback[0] is Fallback.NONE
        assert llr_apply(plan, [3.0, 4.0]) == pytest.approx(3.0 + 2.0 * 38.5, rel=1e-12)


def _plan_fields(fallback, support, w, wdx, *scalars):
    """A one-shape plan's fields, floats as their bit patterns."""
    floats = lambda a: None if a is None else [v.hex() for v in a.tolist()]
    return fallback, support.tolist(), floats(w), floats(wdx), *(float(v).hex() for v in scalars)


def _shape_fields(plan, i):
    """Shape i's fields of ``plan``, its row mapped to its support; a mean has no ``wdx``."""
    support = np.flatnonzero(plan.support[i])
    wdx = plan.wdx[i, support] if plan.line[i] else None
    scalars = (a[i] for a in (plan.s0, plan.s1, plan.s2, plan.det, plan.du))
    return _plan_fields(plan.fallback[i], support, plan.w[i, support], wdx, *scalars)


def _shape_outcomes(xs, x_u, spec, populated):
    """Each shape's plan from the shape planner, and from the verbatim scalar
    planner on the shape's populated xs with its support mapped to the cells,
    for every shape that the scalar planner plans."""
    plan = llr._plan_shapes(np.array(xs), x_u, spec, populated)
    got, expected = [], []
    for i, row in enumerate(populated):
        cells = np.flatnonzero(row)
        shape_spec = spec if spec.k is None else KernelSpec(family=spec.family, k=min(spec.k, len(cells)))
        try:
            reference = oracles.llr_plan([xs[c] for c in cells], x_u, shape_spec)
        except OverflowError:
            continue  # its 2.0 ** (1 - e) overflows on a subnormal largest weight
        got.append(_shape_fields(plan, i))
        expected.append(_plan_fields(
            reference.fallback, cells[reference.support], reference.w, reference.wdx,
            reference.s0, reference.s1, reference.s2, reference.det, reference.du,
        ))
    return got, expected


class TestShapePlanner:
    """``_plan_shapes`` against the verbatim scalar planner, field by field."""

    @settings(max_examples=300, deadline=None)
    @given(
        xs=st.lists(st.one_of(st.integers(-6, 12).map(float), st.floats(-20.0, 20.0)), min_size=1, max_size=30),
        data=st.data(),
        family=st.sampled_from(ALL_FAMILIES),
        h=st.one_of(st.sampled_from([0.05, 0.1, 0.5, 1.0]), st.floats(0.01, 30.0)),
        k=st.integers(1, 40),
        fixed=st.booleans(),
        x_u=st.one_of(st.integers(-8, 14).map(float), st.floats(-25.0, 25.0)),
    )
    def test_every_field_equals_the_scalar_planner(self, xs, data, family, h, k, fixed, x_u):
        # Shapes of 1 to len(xs) populated cells, replicated xs among them.
        shapes = data.draw(st.integers(1, 6))
        populated = np.array(
            [data.draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs))) for _ in range(shapes)]
        )
        populated[np.arange(shapes), data.draw(st.lists(st.integers(0, len(xs) - 1), min_size=shapes, max_size=shapes))] = True
        spec = KernelSpec(family=family, h=h) if fixed else KernelSpec(family=family, k=k)
        got, expected = _shape_outcomes(xs, x_u, spec, populated)
        assert got == expected

    @pytest.mark.parametrize(
        "xs, x_u, spec, fallback",
        [
            ([1.0, 2.0, 4.0], 3.0, KernelSpec(k=3), Fallback.NONE),
            ([1.0, 1.0, 2.0, 2.0], 2.0, KernelSpec(k=2), Fallback.WIDENED_H),
            ([2.0, 2.0, 2.0], 2.0, KernelSpec(k=2), Fallback.WEIGHTED_MEAN),  # h = 0: every x coincides
            ([0.0, 1.0, 9.0], 9.0, KernelSpec(h=0.5), Fallback.WEIGHTED_MEAN),
            ([0.0, 10.0, 20.0], 5.0, KernelSpec(h=0.1), Fallback.GLOBAL_LINE),
            ([4.0, 4.0], 0.0, KernelSpec(h=0.1), Fallback.GLOBAL_LINE),  # the global line is singular too
            # The largest weight is subnormal: the scalar planner's 2.0 ** (1 - e)
            # overflows, and the shape planner scales the weights exactly.
            ([0.0, 0.5], 38.5, KernelSpec(family=KernelFamily.GAUSSIAN, h=1.0), Fallback.NONE),
        ],
    )
    @pytest.mark.parametrize("families", ["same", "all"])
    def test_each_link_of_the_chain(self, xs, x_u, spec, fallback, families):
        if families == "same":
            assert llr_plan(xs, x_u, spec).fallback[0] is fallback
        specs = [spec] if families == "same" else [KernelSpec(family=f, h=spec.h, k=spec.k) for f in ALL_FAMILIES]
        for spec in specs:
            # The whole set of cells, and each cell set that drops one cell, at once.
            populated = np.array([[True] * len(xs)] + [[j != i for j in range(len(xs))] for i in range(len(xs))])
            got, expected = _shape_outcomes(xs, x_u, spec, populated)
            assert got == expected


def _plan_outcome(plan):
    """``plan()``'s one-shape fields, or the ValueError it raised (``math.fsum``'s ``-inf + inf``)."""
    try:
        return plan()
    except ValueError as exc:
        return str(exc)


class TestInfinitePlans:
    @pytest.mark.parametrize(
        "xs", [[math.inf, 1.0], [1.0, 2.0], [1.0, -math.inf, 3.0], [math.inf, math.inf, 2.0], [-math.inf, math.inf]]
    )
    @pytest.mark.parametrize("x_u", [math.inf, -math.inf, 1.5])
    def test_infinite_x_or_query_plans_silently_as_the_scalar_planner(self, xs, x_u):
        # Python's float arithmetic makes inf - inf and inf / inf NaN without a word; so must the planner.
        for family in ALL_FAMILIES:
            for spec in (KernelSpec(family=family, k=1), KernelSpec(family=family, k=2),
                         KernelSpec(family=family, h=0.5), KernelSpec(family=family, h=1e300)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = _plan_outcome(lambda: _shape_fields(llr_plan(xs, x_u, spec), 0))

                def scalar():
                    r = oracles.llr_plan(xs, x_u, spec)
                    support = np.arange(len(xs))[r.support]
                    return _plan_fields(r.fallback, support, r.w, r.wdx, r.s0, r.s1, r.s2, r.det, r.du)

                assert got == _plan_outcome(scalar), spec


class TestBandwidths:
    @settings(max_examples=300)
    @given(
        xs=st.lists(st.floats() | st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf]),
                    min_size=1, max_size=12),
        data=st.data(),
        h=st.floats(1e-300, 1e300),
        k=st.integers(1, 15),
        fixed=st.booleans(),
        x_u=st.floats() | st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]),
    )
    def test_no_bandwidth_is_nan_or_negative(self, xs, data, h, k, fixed, x_u):
        # _plan_shapes plans a shape by h > 0 or h == 0, so any other h would go unplanned.
        shapes = data.draw(st.integers(1, 4))
        populated = np.array(
            [data.draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs))) for _ in range(shapes)]
        )
        populated[:, data.draw(st.integers(0, len(xs) - 1))] = True
        spec = KernelSpec(h=h) if fixed else KernelSpec(k=k)
        xs = np.array(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.abs(xs - x_u)
        h = llr._bandwidths(spec, xs, d, populated)
        assert ((h > 0) | (h == 0)).all(), h


class TestApplyShapes:
    """A batch over several shapes against the one-window ``llr_apply`` of each column."""

    @settings(max_examples=150, deadline=None)
    @given(
        xs=st.lists(st.integers(-6, 12).map(float), min_size=1, max_size=12),
        data=st.data(),
        family=st.sampled_from(ALL_FAMILIES),
        h=st.sampled_from([0.1, 0.5, 1.0, 3.0]),
        k=st.integers(1, 12),
        fixed=st.booleans(),
        columns=st.integers(1, 120),
    )
    def test_columns_equal_llr_apply(self, xs, data, family, h, k, fixed, columns):
        shapes = data.draw(st.integers(1, 4))
        populated = np.array(
            [data.draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs))) for _ in range(shapes)]
        )
        populated[:, 0] = True
        spec = KernelSpec(family=family, h=h) if fixed else KernelSpec(family=family, k=k)
        plan = llr._plan_shapes(np.array(xs), float(len(xs)), spec, populated)
        which = np.array(data.draw(st.lists(st.integers(0, shapes - 1), min_size=columns, max_size=columns)))
        # Empty cells hold NaN, as the forecaster's windows do; the rest -0.0 and up.
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1e6))
        ys = np.array(data.draw(st.lists(values, min_size=columns * len(xs), max_size=columns * len(xs))))
        # One column per window, as the forecaster lays its chunk out.
        ys = np.where(populated[which], ys.reshape(columns, len(xs)), np.nan).T.copy()
        expected = [llr_apply(plan, ys[:, j], i).hex() for j, i in enumerate(which.tolist())]
        assert [v.hex() for v in llr_apply(plan, ys.T, which).tolist()] == expected


_NONFINITE = [math.inf, -math.inf, math.nan]
_FINITE_TERMS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6),
    st.floats(-1e-300, 1e-300),  # subnormals among them
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308, 8.9e307]),
)


@st.composite
def _fsum_row(draw, n):
    """A row of ``n`` summands, drawn to sit near the hard cases of a sum.

    "tie": a base, half an ulp of it and a few terms far below that ulp, so
    the exact sum is a tie or just off one; "cancel": large terms with their
    negatives plus a few small ones; "huge": terms near 1e308, whose sums can
    overflow; "plain": any floats, now and then inf, -inf or NaN. Cancelling
    pairs and zeros pad every kind, and the row is shuffled.
    """
    kind = draw(st.sampled_from(["tie", "cancel", "huge", "plain"]))
    if kind == "tie":
        base = draw(st.floats(-1e300, 1e300).filter(lambda b: b != 0))
        half = math.ulp(base) / 2
        terms = [base, draw(st.sampled_from([half, -half]))]
        tiny = half * 2.0 ** -draw(st.integers(30, 60))
        terms += [k * tiny for k in draw(st.lists(st.integers(-3, 3), max_size=4))]
    elif kind == "cancel":
        big = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=3))
        terms = [*big, *(-b for b in big), *draw(st.lists(st.floats(-1.0, 1.0), max_size=3))]
    elif kind == "huge":
        huge = st.floats(1e307, 1.7976931348623157e308)
        terms = draw(st.lists(huge | huge.map(lambda v: -v), min_size=1, max_size=4))
    else:
        terms = draw(st.lists(st.one_of(_FINITE_TERMS, _FINITE_TERMS, _FINITE_TERMS, st.sampled_from(_NONFINITE)),
                              min_size=1, max_size=n))
    terms = terms[:n]
    while len(terms) < n:
        pad = draw(st.one_of(st.just(0.0), st.just(-0.0), _FINITE_TERMS))
        terms += [pad, -pad] if len(terms) + 2 <= n else [0.0]
    return draw(st.permutations(terms))


def _sum_outcome(fsum, terms):
    """Each row's sum as ``float.hex`` (NaN as 'nan'), or the exception type."""
    try:
        return [v.hex() for v in fsum(terms).tolist()]
    except (ValueError, OverflowError) as exc:
        return type(exc)


class TestBatchSum:
    @settings(max_examples=400)
    @given(data=st.data(), n=st.integers(1, 40), distinct=st.integers(1, 6), fill=st.booleans())
    def test_rows_sum_as_math_fsum(self, data, n, distinct, fill):
        rows = [data.draw(_fsum_row(n)) for _ in range(distinct)]
        if fill:  # a batch of 1,024 terms or more
            rows *= -(-1024 // (n * distinct))
        terms = np.array(rows)
        assert _sum_outcome(llr._fsum, terms) == _sum_outcome(oracles.fsum_rows, terms)

    @pytest.mark.parametrize(
        "row",
        [
            [1.0, 2.0**-53],  # a tie, rounded to even
            [1.0 + 2.0**-52, 2.0**-53],
            [1.0, 2.0**-53, 2.0**-106],  # just above a tie
            [1e16, 1.0, -1e16],
            [0.5, -0.5, -0.0],
            [-0.0, -0.0],
            [5e-324, 5e-324, -1e-323],
            [1.7e308, 1.7e308, -1.7e308],  # intermediate overflow
            [math.inf, 1.0],
            [math.inf, -math.inf],
            [math.nan, 1.0],
        ],
    )
    def test_hard_rows_in_a_large_batch(self, row):
        easy = np.linspace(1.0, 2.0, len(row))
        terms = np.array([easy] * 600 + [row] + [easy] * 600)
        assert _sum_outcome(llr._fsum, terms) == _sum_outcome(oracles.fsum_rows, terms)

    @pytest.mark.parametrize("shape", [(1, 0), (3, 0), (0, 4), (0, 0)])
    def test_a_batch_of_empty_rows_sums_as_math_fsum(self, shape):
        # Rows that hold no terms sum to 0.0 each, as math.fsum([]) does; no rows give no sums.
        terms = np.zeros(shape)
        assert _sum_outcome(llr._fsum, terms) == _sum_outcome(oracles.fsum_rows, terms) == ["0x0.0p+0"] * shape[0]


class TestFallbackChain:
    def test_all_points_at_one_x_uses_mean(self):
        points = [(2.0, 1.0), (2.0, 3.0), (2.0, 8.0)]
        value, fallback = _fit(points, 2.0, KernelSpec(k=2))
        assert fallback is Fallback.WEIGHTED_MEAN
        assert value == pytest.approx(4.0)

    def test_out_of_support_falls_back_to_global_line(self):
        points = [(0.0, 1.0), (10.0, 21.0), (20.0, 41.0)]
        value, fallback = _fit(points, 5.0, KernelSpec(h=0.1))
        assert fallback is Fallback.GLOBAL_LINE
        assert value == pytest.approx(11.0, abs=1e-9)

    def test_replicated_x_widens_bandwidth(self):
        points = [(1.0, 2.0), (1.0, 4.0), (2.0, 6.0), (2.0, 8.0)]
        value, fallback = _fit(points, 2.0, KernelSpec(k=2))
        assert fallback is Fallback.WIDENED_H
        # Widened fit sees both x positions; the line passes through the
        # per-x weighted centroids, hitting y=7 at x=2.
        assert value == pytest.approx(7.0, abs=1e-9)

    def test_single_point_uses_mean(self):
        value, fallback = _fit([(3.0, 9.0)], 3.0, KernelSpec(k=1))
        assert fallback is Fallback.WEIGHTED_MEAN
        assert value == 9.0


class TestCurve:
    def test_constant_curve(self):
        points = [(float(x), 2.0) for x in range(6)]
        spec = KernelSpec(k=4)
        assert [_fit(points, q, spec)[0] for q in [0.0, 2.5, 5.0]] == pytest.approx([2.0] * 3)

    def test_affine_curve(self):
        points = [(float(x), 3.0 * x - 2.0) for x in range(10)]
        queries = [1.0, 4.5, 8.0]
        spec = KernelSpec(family=KernelFamily.GAUSSIAN, h=2.0)
        got = [_fit(points, q, spec)[0] for q in queries]
        assert got == pytest.approx([3.0 * q - 2.0 for q in queries], abs=1e-9)
