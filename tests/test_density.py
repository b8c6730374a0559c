import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import (
    DensityField,
    DomainError,
    Rect,
    Similarity,
    UNIT_SQUARE,
    constant_field,
    field_from_json,
    field_to_json,
    make_checkerboard,
    reciprocal_transplant,
    transplant,
)


def mc_integral(N, c, rect, samples=1_000_000, seed=7):
    """Monte Carlo oracle straight from the alternating-strip formula,
    independent of the cell-intersection integration path."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(rect.x0, rect.x1, samples)
    vals = np.where(np.floor(N * xs).astype(int) % 2 == 0, 1.0, 1.0 + c)
    return vals.mean() * rect.area


class TestCheckerboard:
    def test_values_match_parity_formula(self):
        f = make_checkerboard(10, 0.5)
        assert f.value_at(0.05, 0.05) == 1.0
        assert f.value_at(0.15, 0.05) == 1.5

    def test_n1_is_constant_one(self):
        f = make_checkerboard(1, 3.0)
        for x in (0.0, 0.3, 0.99):
            assert f.value_at(x, 0.5) == 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_checkerboard(0, 1.0)
        with pytest.raises(ValueError):
            make_checkerboard(4, -1.0)
        with pytest.raises(ValueError):
            make_checkerboard(4, 0.0)

    def test_boundary_is_half_open(self):
        f = make_checkerboard(2, 1.0)
        # x = 0.5 belongs to the second strip
        assert f.value_at(0.5, 0.25) == 2.0

    def test_even_n_full_integral_closed_form(self):
        for N in (2, 4, 8):
            for c in (0.5, 1.0):
                f = make_checkerboard(N, c)
                assert f.integrate(f.domain) == pytest.approx(
                    (2 + c) / (2 * N), abs=1e-15)


class TestEval:
    def test_constant(self):
        f = constant_field(1.0)
        assert f.value_at(0.3, 0.7) == 1.0

    def test_checkerboard_point(self):
        f = make_checkerboard(2, 1.0)
        assert f.value_at(0.75, 0.25) == 2.0

    def test_outside_domain_raises(self):
        f = constant_field(1.0)
        with pytest.raises(DomainError):
            f.value_at(2.0, 2.0)


class TestIntegrate:
    def test_two_cell_exact(self):
        f = make_checkerboard(2, 1.0)
        assert f.integrate(f.domain) == 0.75

    def test_constant_unit(self):
        assert constant_field(1.0).integrate(UNIT_SQUARE) == 1.0

    def test_against_monte_carlo(self):
        f = make_checkerboard(4, 1.0)
        r = Rect(0.0, 0.0, 0.5, 0.25)
        assert f.integrate(r) == pytest.approx(mc_integral(4, 1.0, r), abs=1e-3)

    def test_not_contained_raises(self):
        f = make_checkerboard(4, 1.0)
        with pytest.raises(DomainError):
            f.integrate(Rect(0.0, 0.0, 1.0, 1.0))

    @given(st.integers(0, 62), st.integers(0, 62), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_additive_on_interior_disjoint_split(self, a, b, w):
        f = make_checkerboard(8, 1.0)
        x0, x1 = a / 64, min(a / 64 + w / 64, 1.0)
        y0, y1 = b / 1024, min(b / 1024 + w / 1024, 1 / 8)
        if x1 <= x0 or y1 <= y0:
            return
        r = Rect(x0, y0, x1, y1)
        xm = (x0 + x1) / 2
        left = Rect(x0, y0, xm, y1)
        right = Rect(xm, y0, x1, y1)
        assert f.integrate(r) == f.integrate(left) + f.integrate(right)
        assert r.area <= f.integrate(r) <= 2 * r.area + 1e-12


class TestTransplant:
    def test_composition(self):
        f = make_checkerboard(10, 0.5)
        s = Similarity(2.0)
        g = transplant(f, s)
        assert g.value_at(1.9, 0.1) == f.value_at(0.95, 0.05)

    def test_identity(self):
        f = make_checkerboard(4, 1.0)
        assert transplant(f, Similarity(1.0)) == f

    @pytest.mark.parametrize("args,field", [
        ((1.0, math.nan), "tx"),
        ((1.0, 0.0, -math.inf), "ty"),
        ((math.inf,), "scale"),
        ((math.nan,), "scale"),
    ])
    def test_non_finite_similarity_rejected_with_the_field_named(self, args, field):
        with pytest.raises(ValueError, match=f"similarity {field} must be finite"):
            Similarity(*args)

    def test_reciprocal_on_constant(self):
        c = 0.5
        f = constant_field(1.0 + c)
        g = reciprocal_transplant(f, Similarity(1.0))
        assert g.value_at(0.5, 0.5) == 1.0 / (1.0 + c)

    @given(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_integral_scales_as_square(self, scale, tx, ty):
        f = make_checkerboard(4, 1.0)
        s = Similarity(scale, float(tx), float(ty))
        g = transplant(f, s)
        r = Rect(0.25, 0.0, 0.75, 0.125)
        assert g.integrate(s.apply_rect(r)) == pytest.approx(
            scale ** 2 * f.integrate(r), rel=1e-12)


class TestSerialization:
    def test_round_trip(self):
        f = make_checkerboard(10, 0.5)   # non-dyadic coordinates included
        assert field_from_json(field_to_json(f)) == f

    def test_round_trip_constant(self):
        f = DensityField(UNIT_SQUARE, 1.0, ((Rect(1 / 3, 0.1, 0.9, 0.7), 1.25),))
        assert field_from_json(field_to_json(f)) == f


class TestRangeInvariant:
    def test_dense_grid_in_declared_range(self):
        for N, c in ((2, 1.0), (5, 0.25), (8, 0.5)):
            f = make_checkerboard(N, c)
            xs = np.linspace(0, 0.999, 101)
            ys = np.linspace(0, 1 / N * 0.999, 11)
            for x in xs:
                for y in ys:
                    assert 1.0 <= f.value_at(float(x), float(y)) <= 1.0 + c
