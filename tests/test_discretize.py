"""Digit plans: formulas, round trips, grids, base economics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendplan.discretize import (DigitCode, binary_count, binary_count_ratio, decode,
                                  digit_count, encode, grid_value, plan)

BASE_RATIO_TABLE = {
    3: 1.26186, 4: 1.5, 5: 1.72271, 6: 1.93426,
    7: 2.13724, 8: 2.33333, 9: 2.52372, 10: 2.70927,
}


def test_positional_plan_two_digits():
    p = plan(0.0, 1.0, 0.25)
    assert (p.n, p.eps, p.lambda0) == (2, 0.25, 0.0)


def test_plan_full_width_precision_has_no_digits():
    p = plan(0.0, 1.0, 1.0)
    assert p.n == 0 and p.eps == 1.0


def test_plan_rejects_bad_inputs():
    with pytest.raises(ValueError, match="lo <= hi"):
        plan(1.0, 0.5, 0.1)
    for eps_hat in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="eps_hat must be positive"):
            plan(0.0, 1.0, eps_hat)


@pytest.mark.parametrize("lo,hi,eps_hat", [(1.0, 1.0, 0.1), (0.0, 1.0, 1.5)])
def test_plan_no_wider_than_precision_has_no_digits(lo, hi, eps_hat):
    p = plan(lo, hi, eps_hat)
    assert p.n == 0 and p.eps == hi - lo and p.eps_hat == eps_hat


def test_encode_examples():
    p = plan(0.0, 1.0, 0.25)
    code = encode(0.6, p)
    assert grid_value(code, p) == 0.5
    assert code.delta == pytest.approx(0.1, abs=1e-12)
    # lower bound: all digits zero
    code = encode(0.0, p)
    assert list(code.digits) == [0, 0] and code.delta == 0.0
    # upper bound sits one cell above the top grid point
    code = encode(1.0, p)
    assert grid_value(code, p) == 0.75 and code.delta == pytest.approx(0.25)


@pytest.mark.parametrize("bounds,f,digits,delta", [
    ((0.0, 1.0, 0.25), 0.6, (0, 1), 0.09999999999999998),
    ((0.0, 1.0, 0.25), 1.0, (1, 1), 0.25),
    ((10.0, 18.0, 1.0), 13.0, (1, 1, 0), 0.0),
    ((3.0, 11.0, 0.9), 7.3, (0, 0, 0, 1), 0.2999999999999998),
    ((-2.5, 4.0, 0.1), 1.234, (1, 0, 0, 1, 0, 0, 1), 0.026968749999999986),
])
def test_encode_pinned(bounds, f, digits, delta):
    # recorded from the one-hot digit form this tuple of bits replaced
    code = encode(f, plan(*bounds))
    assert code.digits == digits and code.delta == delta


def test_encode_exact_grid_point_takes_zero_residual():
    p = plan(10.0, 18.0, 1.0)
    for k in range(p.grid_count):
        f = p.lambda0 + k * p.eps
        code = encode(f, p)
        assert code.delta == 0.0
        assert decode(code, p) == f


def test_encode_rejects_out_of_bounds():
    p = plan(0.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        encode(1.5, p)


def test_grid_cardinality_and_endpoints():
    p = plan(3.0, 11.0, 0.9)
    pts = p.grid_points()
    assert len(pts) == 2 ** p.n
    assert pts[0] == 3.0
    assert pts[-1] == pytest.approx(11.0 - p.eps)
    assert np.allclose(np.diff(pts), p.eps)


def test_degenerate_plan_round_trip():
    p = plan(42.0, 42.0, 1.0)
    code = encode(42.0, p)
    assert decode(code, p) == 42.0
    assert p.grid_count == 1 and p.n == 0 and p.degenerate


def test_digit_counts():
    assert digit_count(0.0, 4.0, 1.0) == 2
    assert digit_count(0.0, 0.5, 1.0) == 0
    assert digit_count(0.0, 5.0, 0.25) == 5


def test_digit_count_corrects_a_log_one_digit_short():
    # log(2147483649, 2) rounds to 31.0 exactly; 2**31 is one short of it
    assert digit_count(0.0, 2147483649.0, 1.0) == 32


def test_encode_moves_a_value_the_floor_puts_one_cell_low():
    # 3 * eps / eps floors to 2 in floating point; the value is grid point 3
    p = plan(0.0, 0.7, 0.1)
    assert encode(3 * p.eps, p) == DigitCode((1, 1, 0), 0.0)


def test_bases_below_two_are_refused():
    with pytest.raises(ValueError, match="base must be >= 2"):
        digit_count(0.0, 1.0, 0.1, base=1)
    with pytest.raises(ValueError, match="bases must be >= 2"):
        binary_count_ratio(1, 2)


def test_digit_count_is_the_plan_digit_count():
    for width in (0.0, 0.1, 0.5, 1.0, 1.5, 3.0, 7.9, 8.0, 8.1, 100.0):
        for eps_hat in (0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 8.0, 1e3):
            assert digit_count(-3.0, -3.0 + width, eps_hat) == plan(-3.0, -3.0 + width, eps_hat).n


def test_round_trip_bulk_random():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        lo = rng.uniform(-50.0, 50.0)
        width = rng.uniform(1e-3, 100.0)
        eps_hat = width * rng.uniform(1e-4, 1.0)
        p = plan(lo, lo + width, eps_hat)
        f = rng.uniform(lo, lo + width)
        code = encode(f, p)
        back = decode(code, p)
        assert abs(back - f) <= 1e-12 * max(1.0, abs(f))
        assert -1e-15 <= code.delta <= p.eps * (1 + 1e-9)
        g = grid_value(code, p)
        assert f - p.eps * (1 + 1e-9) < g <= f + 1e-12


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-100, 100), width=st.floats(0.01, 200),
       frac=st.floats(0.0001, 1.0), x=st.floats(0.0, 1.0))
def test_round_trip_property(lo, width, frac, x):
    p = plan(lo, lo + width, width * frac)
    f = lo + x * width
    code = encode(f, p)
    assert abs(decode(code, p) - f) <= 1e-12 * max(1.0, abs(f))
    assert p.eps <= width * frac * (1 + 1e-9)


def test_base_ratio_table_values():
    for b, want in BASE_RATIO_TABLE.items():
        assert binary_count_ratio(b, 2) == pytest.approx(want, abs=1e-5)
    assert binary_count_ratio(2, 2) == 1.0


def test_base_two_never_worse_than_base_ten():
    for frac in (0.5, 0.1, 0.03, 1e-3, 1e-6):
        assert binary_count(0.0, 1.0, frac, base=2) <= binary_count(0.0, 1.0, frac, base=10)


def test_empirical_ratio_approaches_asymptote():
    z2 = binary_count(0.0, 1.0, 1e-6, base=2)
    z10 = binary_count(0.0, 1.0, 1e-6, base=10)
    assert z10 / z2 == pytest.approx(BASE_RATIO_TABLE[10], rel=0.05)
