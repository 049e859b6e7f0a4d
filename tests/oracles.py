"""Independent re-checks that tests compare certctrl's certificates
against; no task uses them, so they live with the tests."""

import mpmath as mp
import numpy as np


def residual_check(sol, rhs) -> float:
    """Re-integrate the stored trajectory of an ExtendedSolution
    (trapezoid, independent of the midpoint path) and return the worst
    defect against the integral identity; must stay within twice the
    error bound."""
    worst = 0.0
    x = sol.values[0].copy()
    for b in rhs.blocks:
        mask = (sol.grid >= float(b.t_lo) - 1e-15) & (sol.grid <= float(b.t_hi) + 1e-15)
        g = sol.grid[mask]
        v = sol.values[mask]
        f = b.f(v, g)
        dt = np.diff(g)
        inc = 0.5 * (f[1:] + f[:-1]) * dt[:, None]
        traj = np.vstack([x, x + np.cumsum(inc, axis=0)])
        worst = max(worst, float(np.linalg.norm(traj - v, axis=1).max()))
        x = traj[-1]
    return worst


def residual_recheck_mp(A, pair, dps: int = 34) -> float:
    """Doubled-precision re-evaluation of ||A v - lambda v|| (mpmath)."""
    with mp.workdps(dps):
        a = np.asarray(A, dtype=complex)
        n = a.shape[0]
        v = [mp.mpc(complex(x)) for x in pair.v_hat]
        lam = mp.mpc(complex(pair.lambda_hat))
        total = mp.mpf(0)
        for i in range(n):
            s = mp.mpc(0)
            for j in range(n):
                s += mp.mpc(complex(a[i, j])) * v[j]
            s -= lam * v[i]
            total += (s.real ** 2 + s.imag ** 2)
        return float(mp.sqrt(total))
