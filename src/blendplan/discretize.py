"""Digit plans for tank-spec discretization.

A bounded concentration ``f`` in ``[lo, hi]`` is written as a grid part plus
a residual, ``f = f_grid + delta`` with ``delta`` in ``[0, eps]``.  The grid
part is encoded by binary digits so that products of ``f`` with volume
variables can be linearized digit by digit.  Plans use the ``nmdt`` scheme:
positional base-2 digits on the shifted range, with the digit count chosen
per variable from its own bounds so that the grid resolution meets the
requested precision ``eps_hat``.

``plan`` builds every plan, zero-width ranges included, from one formula:
``n = digit_count(lo, hi, eps_hat)`` digits and ``eps = (hi - lo) * 2**-n``.

Every plan is base 2, one binary per digit row, which is what the models
build.  Other bases exist for counting only: ``digit_count`` and
``binary_count`` compare what a base-``b`` grid would need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DiscretizationPlan:
    eps: float         # realized grid resolution, eps <= eps_hat
    n: int             # number of digit rows
    lo: float
    hi: float
    eps_hat: float     # requested precision

    @property
    def lambda0(self) -> float:
        """Grid origin: the lower bound."""
        return self.lo

    @property
    def degenerate(self) -> bool:
        """True for a fixed value (lo == hi): no digits, no residual."""
        return self.eps == 0.0

    def level_weight(self, i: int) -> float:
        """Scale factor of digit row ``i`` (1-based)."""
        return float(2 ** (i - 1))

    @property
    def grid_count(self) -> int:
        """Number of representable grid points."""
        return 2 ** self.n

    def grid_points(self) -> np.ndarray:
        # numpy is imported here, not at module level: loading it is most of
        # the start-up time of `import blendplan`, and nothing else here needs it
        import numpy as np
        return self.lambda0 + self.eps * np.arange(self.grid_count)

    def to_dict(self) -> dict:
        # scheme, base and max digit per row are constants of every plan;
        # the export sidecars record them
        return {
            "scheme": "nmdt", "base": 2, "lambda0": self.lambda0,
            "eps": self.eps, "n": self.n, "m": 1,
            "lo": self.lo, "hi": self.hi, "eps_hat": self.eps_hat,
        }


@dataclass(frozen=True)
class DigitCode:
    digits: tuple[int, ...]   # bit of each digit row, least significant first
    delta: float              # residual in [0, eps]


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


def plan(lo: float, hi: float, eps_hat: float) -> DiscretizationPlan:
    """Compute the digit plan for a value bounded in [lo, hi].

    Any range with ``lo <= hi`` and any ``eps_hat > 0`` is accepted; the
    realized resolution ``eps`` never exceeds ``eps_hat``.  A range no
    wider than ``eps_hat`` has no digits and ``eps == hi - lo``.
    """
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    n = digit_count(lo, hi, eps_hat)
    return DiscretizationPlan((hi - lo) * 2 ** (-n), n, lo, hi, eps_hat)


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
        return DigitCode((), 0.0)
    k = int(math.floor((f - p.lambda0) / p.eps))
    if p.lambda0 + (k + 1) * p.eps == f:  # exact grid hit one cell up
        k += 1
    k = min(max(k, 0), p.grid_count - 1)
    delta = f - (p.lambda0 + k * p.eps)
    return DigitCode(tuple((k >> i) & 1 for i in range(p.n)), delta)


def decode(code: DigitCode, p: DiscretizationPlan) -> float:
    """Inverse of encode: lambda0 + eps * sum_i weight_i * digit_i + delta."""
    total = 0.0
    for i, d in enumerate(code.digits, start=1):
        total += p.level_weight(i) * d
    return p.lambda0 + p.eps * total + code.delta


def grid_value(code: DigitCode, p: DiscretizationPlan) -> float:
    """Decoded value with the residual dropped (the grid part alone)."""
    return decode(DigitCode(code.digits, 0.0), p)


def digit_count(lo: float, hi: float, eps_hat: float, base: int = 2) -> int:
    """Digits a base-``base`` nmdt grid on [lo, hi] needs to meet
    ``eps_hat``; 0 if the range is not wider than the requested precision.
    ``eps_hat`` must be positive (NaN fails)."""
    if not eps_hat > 0.0:
        raise ValueError(f"eps_hat must be positive, got {eps_hat}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    return _ceil_log((hi - lo) / eps_hat, base)


def binary_count(lo: float, hi: float, eps_hat: float, base: int = 2) -> int:
    """Binary variables a base-``base`` grid uses for the grid part:
    (base-1) * n."""
    return (base - 1) * digit_count(lo, hi, eps_hat, base)


def binary_count_ratio(b1: int, b2: int) -> float:
    """Asymptotic ratio of binary variable counts for base b1 versus b2
    as the requested precision tends to zero."""
    if b1 < 2 or b2 < 2:
        raise ValueError("bases must be >= 2")
    return (b1 - 1) * math.log(b2) / ((b2 - 1) * math.log(b1))
