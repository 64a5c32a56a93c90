"""Bracketed root of a scalar function.

One routine serves three roots: the renormalization flow's inversion
m_b -> eta, the relax run's predicted equilibrium and the spin inversion's
fallback when Newton misses its residual test.  Each solves f(x) = 0 for a
continuous, monotone f whose values at the bracket's ends differ in sign.
"""

from __future__ import annotations

import math

ITER_MAX = 100


def bracketed_root(f, lo: float, hi: float, xtol: float, rtol: float) -> float:
    """x with f(x) = 0 in [lo, hi], to within xtol + rtol |x|.

    Brent's method (Brent 1973, ch. 4): keep the best iterate `cur`, the
    previous one `pre` and a bracket end `blk` of opposite sign; step by
    secant or inverse quadratic interpolation when that step is short
    enough, else bisect towards `blk`.  Raises ValueError when f(lo) and
    f(hi) have the same sign, RuntimeError after ITER_MAX steps.
    """
    pre, cur = lo, hi
    fpre, fcur = f(pre), f(cur)
    if fpre == 0.0:
        return pre
    if fcur == 0.0:
        return cur
    if (fpre > 0.0) == (fcur > 0.0):
        raise ValueError(f"f has the same sign at both ends of [{lo:g}, {hi:g}]")
    blk = fblk = spre = scur = 0.0
    for _ in range(ITER_MAX):
        if fpre != 0.0 and fcur != 0.0 and (fpre > 0.0) != (fcur > 0.0):
            blk, fblk = pre, fpre
            spre = scur = cur - pre
        if abs(fblk) < abs(fcur):
            pre, cur, blk = cur, blk, cur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(cur))
        sbis = 0.5 * (blk - cur)
        if fcur == 0.0 or abs(sbis) < delta:
            return cur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short:
            if pre == blk:                      # secant
                stry = -fcur * (cur - pre) / (fcur - fpre)
            else:                               # inverse quadratic
                dpre = (fpre - fcur) / (pre - cur)
                dblk = (fblk - fcur) / (blk - cur)
                den = dblk * dpre * (fblk - fpre)
                # a denominator that underflows to 0 gives no step: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        pre, fpre = cur, fcur
        cur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(cur)
    raise RuntimeError(f"no root to {rtol:g} relative after {ITER_MAX} steps")
