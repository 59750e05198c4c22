"""Small statistics helpers used by the measurement protocol and reports."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["median", "mean", "geomean", "relative_loss", "summarize", "ndtri"]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (lower middle for even length avoided:
    the conventional average of the two central elements is returned)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of empty sequence")
    n = len(xs)
    mid = n // 2
    if n % 2:
        return float(xs[mid])
    return 0.5 * (xs[mid - 1] + xs[mid])


def mean(values: Iterable[float]) -> float:
    xs = list(values)
    if not xs:
        raise ValueError("mean of empty sequence")
    return sum(xs) / len(xs)


def geomean(values: Iterable[float]) -> float:
    xs = list(values)
    if not xs:
        raise ValueError("geomean of empty sequence")
    if any(x <= 0 for x in xs):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def relative_loss(value: float, best: float) -> float:
    """Relative performance loss of *value* over *best* in percent.

    Matches the paper's Table II convention: running a configuration tuned
    for a different thread count that takes ``value`` seconds instead of the
    per-count optimum ``best`` incurs ``100 * (value / best - 1)`` % loss.
    """
    if best <= 0:
        raise ValueError("best must be positive")
    return 100.0 * (value / best - 1.0)


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Return min/median/mean/max of a sample as a dict (for reports)."""
    xs = sorted(values)
    return {
        "min": float(xs[0]),
        "median": median(xs),
        "mean": mean(xs),
        "max": float(xs[-1]),
        "n": float(len(xs)),
    }


# -- inverse normal CDF ------------------------------------------------------
#
# NumPy port of Cephes' ``ndtri`` (S. L. Moshier), the algorithm behind
# SciPy's ``special.ndtri``, with the same coefficients and the same order of
# operations so that results agree bit for bit.  The tails take their
# logarithms through libm (``math.log``): NumPy's SIMD ``log`` may differ
# from it by one ulp.

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# z = sqrt(-2 log y) in [8, 64]
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coeffs: tuple[float, ...], monic: bool = False) -> np.ndarray:
    """Horner evaluation; *monic* adds an implicit leading coefficient 1."""
    ans = x + coeffs[0] if monic else coeffs[0]
    for c in coeffs[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.array([math.log(v) for v in x.tolist()], dtype=float)


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise.

    ``ndtri(0) = -inf``, ``ndtri(1) = inf``; NaN outside ``[0, 1]``.
    """
    y0 = np.asarray(p, dtype=float)
    out = np.full(y0.shape, np.nan)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)

    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    xc = yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, monic=True))
    out[central] = xc * _S2PI

    tail = (y > 0.0) & (y <= _EXP_M2)
    yt = y[tail]
    x = np.sqrt(-2.0 * _libm_log(yt))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.where(
        x < 8.0,
        z * _polevl(z, _P1) / _polevl(z, _Q1, monic=True),
        z * _polevl(z, _P2) / _polevl(z, _Q2, monic=True),
    )
    xt = x0 - x1
    out[tail] = np.where(upper[tail], xt, -xt)

    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    return out
