"""Exact floating-point rules shared by every accounting and sampling path.

**Stable summation.**  The object path historically summed usage hours
in arrival order with ``+=`` while the columnar engine reduces whole
column arrays at once.  Naive float addition is not associative, so the
two paths could disagree on the last few ulps of a total — enough to
break byte-level artifact equality — purely through reassociation.  Both
paths therefore funnel every hours/Gb-hours total through
:func:`stable_sum`.

``stable_sum`` is :func:`math.fsum` — Shewchuk's exactly-rounded
summation.  It tracks the running sum as a sequence of non-overlapping
partials, so the result is the *mathematically exact* sum rounded once
to the nearest float.  That is strictly stronger than pairwise or Kahan
compensation: the result is a function of the input *multiset only*,
invariant to permutation, chunking, and any reassociation, which is the
property the differential harness (``tests/columnar``) needs —
object-path arrival order and columnar chunk order land on the identical
bit pattern, even for adversarial magnitude spreads (see
``tests/common/test_numerics.py``).

**The standard normal.**  :func:`ndtri` and :func:`ndtr` are Moshier's
Cephes routines, the ones ``scipy.special`` evaluates, ported so that the
cohort draws load no scipy.  Every cohort digest rests on them, so they
equal scipy bit for bit over the whole domain, which fixes how they are
written: the published coefficient tables; Cephes' ``polevl``/``p1evl``
Horner order, one multiply then one add per step, never fused or
reassociated; and every ``log``/``exp`` through the C library
(:func:`math.log`, :func:`math.exp`), one element at a time.  numpy's
``np.log``/``np.exp`` may dispatch to SIMD kernels that differ from libm
in the last ulp on some CPUs, and ``statistics.NormalDist`` or
``math.erfc`` are different approximations.  Only the arithmetic that is
IEEE-exact (``+ - * /``, ``sqrt``) runs vectorized.  scipy remains the
reference in ``tests/common/test_numerics.py``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, TypeVar

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt

_Real = TypeVar("_Real", float, np.ndarray)


def stable_sum(values: Iterable[float]) -> float:
    """Exactly-rounded float sum, invariant to ordering and chunking.

    Accepts any iterable of floats (including numpy float64 scalars and
    chained per-chunk streams).  Empty input sums to ``0.0``.
    """
    return math.fsum(values)


def stable_dot(quantities: Iterable[float], hours: Iterable[float]) -> float:
    """Exactly-rounded sum of elementwise products.

    The billing integral ``sum(quantity * hours)``: each product is a
    single correctly-rounded float multiply (identical on both paths),
    then the products are summed exactly — so conservation checks between
    per-record and columnar totals are bit-for-bit equalities, not
    tolerances.
    """
    return math.fsum(q * h for q, h in zip(quantities, hours))


# Cephes ndtri.c: |y - 0.5| <= 3/8, then z = sqrt(-2 log y) in [2, 8) and [8, 64).
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
# Cephes ndtr.c: erfc for 1 <= x < 8 (P/Q) and x >= 8 (R/S), erf for |x| <= 1 (T/U).
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT1_2 = 0.70710678118654752440  # 1 / sqrt(2)
_MAXLOG = 7.09782712893383996732E2  # log(DBL_MAX)


def _polevl(x: _Real, coef: tuple[float, ...]) -> _Real:
    """Cephes ``polevl``: Horner from the leading coefficient."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans = ans * x + c
    return ans


def _p1evl(x: _Real, coef: tuple[float, ...]) -> _Real:
    """Cephes ``p1evl``: ``polevl`` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(x: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """Elementwise libm ``log`` (raises ``ValueError`` at or below 0)."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def ndtri(y0: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Inverse standard normal CDF, elementwise, bit-identical to scipy's.

    ``ndtri(0)`` is ``-inf`` and ``ndtri(1)`` is ``inf``; a value outside
    [0, 1] raises ``ValueError`` (scipy returns NaN).
    """
    y = np.array(y0, dtype=np.float64)
    out = np.empty_like(y)
    out[y == 0.0], out[y == 1.0] = -np.inf, np.inf
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    tail = ~central & (y != 0.0)  # y == 0 now only where y0 was 0 or 1, set above
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    near = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - np.where(x < 8.0, near, far)
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = (z * _polevl(x, _P)) / _p1evl(x, _Q)
    else:
        y = (z * _polevl(x, _R)) / _p1evl(x, _S)
    # Cephes' second underflow exit (y == 0.0) returns the same +0.0
    return 2.0 - y if a < 0 else y


def ndtr(a: float) -> float:
    """Standard normal CDF of one float, bit-identical to scipy's."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y
