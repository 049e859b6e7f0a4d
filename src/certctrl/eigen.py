"""Residual-certified approximate eigenpairs and the eigenvalue stability
criterion.

Exact eigenvectors are not computable in general; what is computable is a
set of k <= n independent vectors whose eigen-residuals are certified
below a requested tolerance.  Roots of the characteristic polynomial come
with inclusion radii (honest for clusters: a root of multiplicity m only
admits an eps^(1/m)-scale radius), and the Hurwitz verdict is decided from
the certified root disks, returning `undecided` whenever a disk touches
the imaginary axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import ArgumentError, CertifiedReal

__all__ = [
    "ComplexMatrix",
    "RootCluster",
    "ApproxEigenPair",
    "StabilityVerdict",
    "char_poly",
    "approx_roots",
    "approx_eigenpairs",
    "hurwitz_verdict",
    "residual_recheck_mp",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ComplexMatrix:
    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ArgumentError("square matrix required")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise ArgumentError("matrix entries must be finite")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _coerce(A) -> ComplexMatrix:
    return A if isinstance(A, ComplexMatrix) else ComplexMatrix(np.asarray(A))


def char_poly(A) -> tuple[np.ndarray, np.ndarray]:
    """Monic characteristic polynomial by the Faddeev-LeVerrier recursion.

    Returns (coeffs, radii): coeffs[0] = 1, coeffs[k] multiplies
    lambda^(n-k); radii soundly bound the accumulated floating-point error
    of each coefficient (first-order interval propagation plus ulp terms).
    """
    A = _coerce(A)
    a = A.entries
    n = A.n
    absA = np.abs(a)
    coeffs = np.empty(n + 1, dtype=complex)
    radii = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.eye(n, dtype=complex)
    RM = np.zeros((n, n))
    gamma = (n + 2) * _EPS
    for k in range(1, n + 1):
        AM = a @ M
        # |fl(A M) - A M| <= gamma |A||M| plus propagated radius of M
        R_AM = absA @ RM + gamma * (absA @ np.abs(M)) + _EPS * np.abs(AM)
        tr = np.trace(AM)
        r_tr = float(np.trace(R_AM)) + n * _EPS * abs(tr)
        c = -tr / k
        coeffs[k] = c
        radii[k] = (r_tr / k) * (1.0 + 1e-12) + math.ulp(abs(c))
        M = AM + c * np.eye(n)
        RM = R_AM + (radii[k] + _EPS * abs(c)) * np.eye(n)
    return coeffs, radii


@dataclass(frozen=True)
class RootCluster:
    """A certified root disk: center, inclusion radius, multiplicity."""

    center: complex
    radius: float
    multiplicity: int
    converged: bool = True
    members: tuple = ()


def _poly_eval(coeffs: np.ndarray, z: complex) -> complex:
    r = coeffs[0]
    for c in coeffs[1:]:
        r = r * z + c
    return r


def _poly_eval_certified(coeffs: np.ndarray, z: complex, coeff_radii=None) -> tuple[complex, float]:
    """Horner value plus a sound bound on its floating-point error
    (condition-number style: (2n+2) eps sum |c_k| |z|^k, plus any
    coefficient radii)."""
    n = coeffs.size - 1
    az = abs(z)
    r = coeffs[0]
    mag = abs(coeffs[0])
    for c in coeffs[1:]:
        r = r * z + c
        mag = mag * az + abs(c)
    err = (2 * n + 2) * _EPS * mag
    if coeff_radii is not None:
        p = 1.0
        for rad in np.asarray(coeff_radii)[::-1]:
            err += float(rad) * p
            p *= az
    return r, err


def approx_roots(
    coeffs,
    eps: float,
    max_iter: int = 400,
    coeff_radii=None,
) -> list[RootCluster]:
    """Aberth simultaneous iteration with certified inclusion radii.

    Radii come from the n |p(z)/p'(z)| bound; overlapping disks merge into
    clusters whose shared radius uses the multiplicity-aware bound
    (n |p(z)| / prod of distances to outside roots)^(1/m) plus the member
    spread, which keeps multiple-root radii honest (machine-eps^(1/m)
    scale).  Returns converged=False clusters when the iteration cap is
    reached before every radius drops below eps.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size < 2:
        raise ArgumentError("need a polynomial of degree >= 1")
    if abs(coeffs[0] - 1.0) > 1e-12:
        if coeffs[0] == 0:
            raise ArgumentError("leading coefficient must be nonzero")
        coeffs = coeffs / coeffs[0]
    n = coeffs.size - 1
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    deriv = coeffs[:-1] * np.arange(n, 0, -1)

    # Cauchy bound seeds on a perturbed circle (deterministic)
    R = 1.0 + max(abs(c) for c in coeffs[1:])
    z = np.array(
        [
            R * cmath.exp(2j * math.pi * (k + 0.25) / n + 0.35j / n)
            for k in range(n)
        ],
        dtype=complex,
    )
    converged = False
    for _ in range(max_iter):
        moved = 0.0
        for i in range(n):
            p = _poly_eval(coeffs, z[i])
            dp = _poly_eval(deriv, z[i])
            s = complex(0.0)
            for j in range(n):
                if j != i:
                    dzij = z[i] - z[j]
                    if dzij == 0:
                        dzij = 1e-300
                    s += 1.0 / dzij
            denom = dp - p * s
            if denom == 0:
                continue
            step = p / denom
            z[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e3 * _EPS * max(1.0, R):
            converged = True
            break

    # per-root inclusion radii with evaluation-error floors (a residual
    # that cancels to zero at a multiple root is noise, not certainty)
    radii = np.empty(n)
    for i in range(n):
        p, perr = _poly_eval_certified(coeffs, z[i], coeff_radii)
        dp, derr = _poly_eval_certified(deriv, z[i])
        pc = abs(p) + perr
        dp_lo = abs(dp) - derr
        if dp_lo > 0:
            radii[i] = n * pc / dp_lo
        else:
            radii[i] = pc ** (1.0 / n)

    # merge overlapping disks into clusters (union-find over the overlap graph)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(z[i] - z[j]) <= radii[i] + radii[j] + 4 * _EPS * R:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    clusters = []
    for idxs in groups.values():
        m = len(idxs)
        members = z[idxs]
        center = complex(members.mean())
        spread = max((abs(w - center) for w in members), default=0.0)
        outside = [z[j] for j in range(n) if j not in idxs]
        p, perr = _poly_eval_certified(coeffs, center, coeff_radii)
        pc = abs(p) + perr
        denom = 1.0
        for w in outside:
            denom *= max(abs(center - w) - spread, 1e-300)
        r_cluster = (n * pc / denom) ** (1.0 / m) + spread
        ok = converged and r_cluster <= max(eps, spread)
        clusters.append(
            RootCluster(center, max(r_cluster, spread), m, converged=ok, members=tuple(members))
        )
    clusters.sort(key=lambda c: (c.center.real, c.center.imag))
    return clusters


@dataclass(frozen=True)
class ApproxEigenPair:
    lambda_hat: complex
    v_hat: np.ndarray
    residual: CertifiedReal
    cluster: RootCluster = None


def _residual_certified(a: np.ndarray, v: np.ndarray, lam: complex) -> CertifiedReal:
    n = a.shape[0]
    r = a @ v - lam * v
    val = float(np.linalg.norm(r))
    # componentwise fl error of A v - lam v
    err = (np.abs(a) @ np.abs(v) + abs(lam) * np.abs(v)) * ((n + 4) * _EPS)
    rad = float(np.linalg.norm(err)) + (n + 4) * _EPS * val + math.ulp(max(val, 1e-300))
    return CertifiedReal(val, rad)


def approx_eigenpairs(
    A,
    eps: float,
    tau: float = 1e-6,
    max_refine: int = 60,
    seed: int = 0,
) -> tuple[list[ApproxEigenPair], bool]:
    """Inverse/Rayleigh iteration per root cluster, kept while the running
    Gram matrix stays tau-independent; returns (pairs, achieved) where
    achieved is False when some kept pair misses the residual target."""
    A = _coerce(A)
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    a = A.entries
    n = A.n
    coeffs, radii = char_poly(A)
    clusters = approx_roots(coeffs, max(eps, 1e-13), coeff_radii=radii)
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.abs(a).max()))

    pairs: list[ApproxEigenPair] = []
    kept: list[np.ndarray] = []
    achieved = True
    for cl in clusters:
        for _attempt in range(cl.multiplicity):
            lam = cl.center
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            best_v, best_lam, best_res = v, lam, math.inf
            shift = lam
            for it in range(max_refine):
                M = a - shift * np.eye(n)
                try:
                    w = np.linalg.solve(M, v)
                except np.linalg.LinAlgError:
                    shift = shift + (1e-12 + 1e-12j) * scale * (it + 1)
                    continue
                nw = np.linalg.norm(w)
                if not np.isfinite(nw) or nw == 0:
                    shift = shift + (1e-12 + 1e-12j) * scale * (it + 1)
                    continue
                v = w / nw
                lam_r = complex(np.vdot(v, a @ v))
                res = float(np.linalg.norm(a @ v - lam_r * v))
                if res < best_res:
                    best_v, best_lam, best_res = v.copy(), lam_r, res
                if res <= eps * 0.25:
                    break
                # Rayleigh acceleration once the residual is small
                if res < 1e-2 * scale:
                    shift = lam_r
            cert = _residual_certified(a, best_v, best_lam)
            # independence: smallest eigenvalue of the Gram matrix of the
            # candidate set must stay above tau
            cand = kept + [best_v]
            G = np.array([[np.vdot(u, w) for w in cand] for u in cand])
            gmin = float(np.linalg.eigvalsh(G).min())
            if gmin < tau:
                continue
            if cert.value + cert.radius > eps:
                achieved = False
            kept.append(best_v)
            pairs.append(ApproxEigenPair(best_lam, best_v, cert, cl))
    return pairs, achieved


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "stable" | "unstable" | "undecided"
    margin: CertifiedReal  # certified max real part
    epsilon_used: float
    clusters: tuple = ()


def hurwitz_verdict(A, eps: float) -> StabilityVerdict:
    """Eigenvalue stability criterion on certified root disks.

    stable: every disk strictly in the open left half-plane;
    unstable: some disk strictly in the right half-plane; otherwise
    undecided (a disk touches the axis at this resolution).
    """
    A = _coerce(A)
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    coeffs, radii = char_poly(A)
    clusters = approx_roots(coeffs, eps, coeff_radii=radii)
    all_left = all(c.center.real + c.radius < 0 for c in clusters)
    any_right = any(c.center.real - c.radius > 0 for c in clusters)
    undecided_radius = any(not c.converged for c in clusters)
    if all_left and not undecided_radius:
        verdict = "stable"
    elif any_right and not undecided_radius:
        verdict = "unstable"
    else:
        verdict = "undecided"
    # the margin's center and radius must come from one cluster so the
    # verdict inequalities hold against it: the rightmost certified disk
    # for unstable, the disk bounding the maximum real part otherwise
    if verdict == "unstable":
        worst = max(clusters, key=lambda c: c.center.real - c.radius)
    else:
        worst = max(clusters, key=lambda c: c.center.real + c.radius)
    margin = CertifiedReal(worst.center.real, worst.radius)
    return StabilityVerdict(verdict, margin, eps, tuple(clusters))


def residual_recheck_mp(A, pair: ApproxEigenPair, dps: int = 34) -> float:
    """Doubled-precision re-evaluation of ||A v - lambda v|| (mpmath)."""
    import mpmath as mp

    with mp.workdps(dps):
        a = _coerce(A).entries
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
