"""Digit plans for tank-spec discretization.

A bounded concentration ``f`` in ``[lo, hi]`` is written as a grid part plus
a residual, ``f = f_grid + delta`` with ``delta`` in ``[0, eps]``.  The grid
part is encoded by one-hot digit rows so that products of ``f`` with volume
variables can be linearized digit by digit.  Plans use the ``nmdt`` scheme:
positional base-``b`` digits on the shifted range, with the digit count
chosen per variable from its own bounds so that the grid resolution meets
the requested precision ``eps_hat``.

The models use base 2, one binary per digit row; other bases exist for
counting digits and binaries (``digit_count``, ``binary_count``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class DiscretizationPlan:
    base: int          # digit base
    lambda0: float     # grid origin
    eps: float         # realized grid resolution, eps <= eps_hat
    n: int             # number of digit rows
    lo: float
    hi: float
    eps_hat: float     # requested precision

    @property
    def scheme(self) -> str:
        """Always ``"nmdt"``; the export sidecars record it."""
        return "nmdt"

    @property
    def m(self) -> int:
        """Max digit value per row (a row is one-hot over 0..m)."""
        return self.base - 1

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def degenerate(self) -> bool:
        """True for a fixed value (lo == hi): no digits, no residual."""
        return self.eps == 0.0

    def level_weight(self, i: int) -> float:
        """Scale factor of digit row ``i`` (1-based)."""
        return float(self.base ** (i - 1))

    @property
    def grid_count(self) -> int:
        """Number of representable grid points."""
        if self.degenerate:
            return 1
        return self.base ** self.n

    def grid_points(self) -> np.ndarray:
        return self.lambda0 + self.eps * np.arange(self.grid_count)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme, "base": self.base, "lambda0": self.lambda0,
            "eps": self.eps, "n": self.n, "m": self.m,
            "lo": self.lo, "hi": self.hi, "eps_hat": self.eps_hat,
        }


@dataclass(frozen=True)
class DigitCode:
    alpha: np.ndarray   # (n, m+1) one-hot digit matrix
    delta: float        # residual in [0, eps]

    @property
    def digits(self) -> np.ndarray:
        """Digit value selected in each row."""
        return self.alpha.argmax(axis=1) if self.alpha.size else np.zeros(0, dtype=int)


def _ceil_log(x: float, base: int) -> int:
    """Smallest integer n with base**n >= x, robust to float dust."""
    if x <= 1.0:
        return 0
    n = max(0, math.ceil(math.log(x, base) - 1e-9))
    while base ** n < x * (1.0 - 1e-12):
        n += 1
    while n > 0 and base ** (n - 1) >= x * (1.0 - 1e-12):
        n -= 1
    return n


def plan(lo: float, hi: float, eps_hat: float, base: int = 2) -> DiscretizationPlan:
    """Compute the digit plan for a value bounded in [lo, hi].

    ``eps_hat`` must lie in (0, hi - lo]; the realized resolution ``eps``
    never exceeds it.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}] (use degenerate_plan for a fixed value)")
    width = hi - lo
    if not (0.0 < eps_hat <= width * (1 + 1e-12)):
        raise ValueError(f"eps_hat must be in (0, {width}], got {eps_hat}")
    eps_hat = min(eps_hat, width)
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    n = _ceil_log(width / eps_hat, base)
    eps = width * base ** (-n)
    return DiscretizationPlan(base, lo, eps, n, lo, hi, eps_hat)


def degenerate_plan(value: float, eps_hat: float = 0.0) -> DiscretizationPlan:
    """Plan for a spec whose reachable range has zero width: f is constant."""
    return DiscretizationPlan(2, value, 0.0, 0, value, value, eps_hat)


def encode(f: float, p: DiscretizationPlan) -> DigitCode:
    """Split ``f`` into digits and residual; exact round trip with decode.

    The grid index is the largest grid point <= f, except that a value
    sitting exactly on a grid point always takes residual 0 (canonical
    form).  Values beyond the top grid point carry the excess in delta.
    """
    if f < p.lo - 1e-9 or f > p.hi + 1e-9:
        raise ValueError(f"value {f} outside plan bounds [{p.lo}, {p.hi}]")
    f = min(max(f, p.lo), p.hi)
    if p.degenerate:
        return DigitCode(np.zeros((0, p.m + 1), dtype=np.int8), 0.0)
    k = int(math.floor((f - p.lambda0) / p.eps))
    if p.lambda0 + (k + 1) * p.eps == f:  # exact grid hit one cell up
        k += 1
    k = min(max(k, 0), p.grid_count - 1)
    delta = f - (p.lambda0 + k * p.eps)
    alpha = np.zeros((p.n, p.m + 1), dtype=np.int8)
    for i in range(p.n):
        alpha[i, k % p.base] = 1
        k //= p.base
    return DigitCode(alpha, delta)


def decode(code: DigitCode, p: DiscretizationPlan) -> float:
    """Inverse of encode: lambda0 + eps * sum_i weight_i * digit_i + delta."""
    if p.degenerate:
        return p.lambda0
    total = 0.0
    for i, d in enumerate(code.digits, start=1):
        total += p.level_weight(i) * int(d)
    return p.lambda0 + p.eps * total + code.delta


def grid_value(code: DigitCode, p: DiscretizationPlan) -> float:
    """Decoded value with the residual dropped (the grid part alone)."""
    return decode(DigitCode(code.alpha, 0.0), p)


def digit_count(lo: float, hi: float, eps_hat: float, base: int = 2) -> int:
    """Digits needed for a base-``base`` nmdt plan on [lo, hi]; 0 if the
    range is not wider than the requested precision."""
    if hi - lo <= eps_hat:
        return 0
    return plan(lo, hi, eps_hat, base=base).n


def binary_count(lo: float, hi: float, eps_hat: float, base: int = 2) -> int:
    """Binary variables used to represent the grid part: (base-1) * n."""
    if hi - lo <= eps_hat:
        return 0
    return (base - 1) * plan(lo, hi, eps_hat, base=base).n


def binary_count_ratio(b1: int, b2: int) -> float:
    """Asymptotic ratio of binary variable counts for base b1 versus b2
    as the requested precision tends to zero."""
    if b1 < 2 or b2 < 2:
        raise ValueError("bases must be >= 2")
    return (b1 - 1) * math.log(b2) / ((b2 - 1) * math.log(b1))
