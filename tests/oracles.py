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


def net_values_on_grid(net, grid, chunk: int = 128) -> np.ndarray:
    """(members, G, m) grid values of every member of a PolicyNet: the
    full scan that the pruned prefix walk of evt.epsilon_minimize must
    agree with.  One subtract and one np.maximum per node, node 0 first,
    then the clip, for every member in blocks of `chunk`."""
    grid = np.asarray(grid, dtype=float).reshape(-1, net.nodes.dim)
    dist = np.linalg.norm(grid[:, None, :] - net.nodes.points[None, :, :], axis=2)
    drop = net.coordinate_lipschitz * dist
    out = np.empty((len(net), grid.shape[0], net.values.shape[2]))
    for s in range(0, len(net), chunk):
        v = net.values[s : s + chunk]
        block = v[:, None, 0, :] - drop[None, :, 0, None]
        for i in range(1, v.shape[1]):
            np.maximum(block, v[:, None, i, :] - drop[None, :, i, None], out=block)
        np.clip(block, -net.bound, net.bound, out=block)
        out[s : s + len(v)] = block
    return out


def full_scan_minimum(J, net):
    """(member index, value, evaluator radius) of the first member of
    minimal value, with every member scored as the envelope (row, row)."""
    V = net_values_on_grid(net, J.grid)
    values, radius = J.evaluate((V, V))
    k = int(np.argmin(values))
    return k, values[k], radius
