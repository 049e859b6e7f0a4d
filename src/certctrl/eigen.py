"""Residual-certified approximate eigenpairs and the eigenvalue stability
criterion.

Exact eigenvectors are not computable in general; what is computable is a
set of k <= n independent vectors whose eigen-residuals are certified
below a requested tolerance.  Eigenpairs come from LAPACK; Gershgorin disks
of X^-1 A X, bounded rigorously, cluster the eigenvalues with exact
multiplicities, and the Hurwitz verdict is `undecided` whenever a cluster
touches the imaginary axis.  Polynomial root clusters come with honest
radii (a root of multiplicity m only admits an eps^(1/m)-scale radius).
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
_U = 2.0 ** -53  # unit roundoff of round to nearest
_ETA = 2.0 ** -1074  # smallest subnormal: the most one underflowing product loses


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


def _overlap_components(centers: np.ndarray, radii: np.ndarray, pad: float) -> list[list[int]]:
    """Union-find groups of overlapping closed disks, by smallest index:
    i and j join when |c_i - c_j| <= r_i + r_j + pad (pad absorbs rounding)."""
    close = np.abs(centers[:, None] - centers[None, :]) <= radii[:, None] + radii[None, :] + pad
    parent = list(range(len(centers)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in np.argwhere(np.triu(close, 1)).tolist():
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(centers)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


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
        if coeff_radii is not None:
            coeff_radii = np.asarray(coeff_radii) / abs(coeffs[0])
        coeffs = coeffs / coeffs[0]
    n = coeffs.size - 1
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    deriv = coeffs[:-1] * np.arange(n, 0, -1)
    # |p'| must be bounded below over every polynomial within the radii
    deriv_radii = None
    if coeff_radii is not None:
        deriv_radii = np.asarray(coeff_radii)[:-1] * np.arange(n, 0, -1)

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
            p = _poly_eval_certified(coeffs, z[i])[0]
            dp = _poly_eval_certified(deriv, z[i])[0]
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
        dp, derr = _poly_eval_certified(deriv, z[i], deriv_radii)
        pc = abs(p) + perr
        dp_lo = abs(dp) - derr
        if dp_lo > 0:
            radii[i] = n * pc / dp_lo
        else:
            radii[i] = pc ** (1.0 / n)

    clusters = []
    for idxs in _overlap_components(z, radii, 4 * _EPS * R):
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


def _eig_clusters(a: np.ndarray, eps: float):
    """LAPACK eigenpairs lam, X and certified clusters of the spectrum of A.

    Returns (lam, X, clusters, groups): disjoint disks sorted by center, each
    holding exactly len(groups[k]) eigenvalues, those the pairs groups[k]
    approximate; clusters wider than eps have converged=False.  With u =
    2^-53, gamma_k = k u/(1 - k u), eta = 2^-1074, R = inv(X), ~ = computed:

    1. The real and imaginary parts of an entry of a complex product P Q of
       inner dimension n are sums of 2n real products, so in any order,
       fused or not, |fl(P Q) - P Q| <= sqrt2 gamma_2n |P||Q| + 3n eta
       (Higham 2002, §3.1, §3.6; eta per product for underflow; true of
       numpy's zgemm, not of a 3M complex product).
    2. B = R A X, B~ = fl(R fl(A X)): |B~ - B| <= sqrt2 gamma_2n (2 + sqrt2
       gamma_2n)|R||A||X| + 3n eta (1 + ||R||inf) <= E := g |R||A||X| + mu,
       g = 3 gamma_2n, mu = 8n eta (1 + ||R||inf) (which also covers
       underflow while |R||A||X| is evaluated).
    3. delta bounds the row sums of |I - fl(R X)| + g |R||X| + mu >= |I - R X|.
       If delta < 1, R X and X are invertible and ||(R X)^-1 - I||inf <=
       delta/(1 - delta) (Neumann series).
    4. X^-1 A X = (R X)^-1 B = B~ + (B - B~) + ((R X)^-1 - I) B; the last
       term has row sums <= delta beta/(1 - delta), beta = ||B~||inf +
       max_i sum_j E_ij >= ||B||inf.
    5. Disk i, center B~_ii, radius rho_i = sum_{j!=i} |B~_ij| + sum_j E_ij
       + delta beta/(1 - delta), contains Gershgorin disk i of X^-1 A X, so
       k disks whose union misses the rest hold exactly k eigenvalues (the
       counting theorem), also after merging until enclosing disks are apart.
    6. delta, beta and all radii are sums and products of nonnegative terms
       in at most k = 4n + 16 roundings (a complex modulus counts two), so
       fl >= (1 - gamma_k) exact; up = 1 + 4 gamma_k, applied to delta before
       1 - delta and to every radius, restores each bound with its rounding.
    Otherwise (delta >= 1, X singular, overflow) the disk |z| <= ||A||inf
    holds the spectrum.
    """
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    n = a.shape[0]
    lam, X = np.linalg.eig(a)
    g = 6 * n * _U / (1.0 - 2 * n * _U)
    up = 1.0 + 4.0 * (4 * n + 16) * _U / (1.0 - (4 * n + 16) * _U)
    try:
        R = np.linalg.inv(X)
    except np.linalg.LinAlgError:
        R = np.full_like(X, np.nan)
    absR, absX, eye = np.abs(R), np.abs(X), np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        B = R @ (a @ X)
        mu = 8 * n * (1.0 + absR.sum(axis=1).max()) * _ETA
        E = (g * (absR @ (np.abs(a) @ absX)) + mu).sum(axis=1)
        delta = up * (np.abs(eye - R @ X) + g * (absR @ absX) + mu).sum(axis=1).max()
        absB = np.abs(B)
        beta = absB.sum(axis=1).max() + E.max()
        rho = up * (np.where(eye > 0, 0.0, absB).sum(axis=1) + E + delta * beta / (1.0 - delta))
    if not (delta < 1.0 and np.all(np.isfinite(rho))):
        radius = float(up * np.abs(a).sum(axis=1).max())
        return lam, X, [RootCluster(0j, radius, n, radius <= eps, tuple(lam))], [list(range(n))]
    centers = np.diag(B)
    groups = [[i] for i in range(n)]
    while True:
        mid = np.array([centers[idx].mean() for idx in groups])
        rad = up * np.array([(np.abs(centers[idx] - m) + rho[idx]).max()
                             for idx, m in zip(groups, mid)])
        merged = _overlap_components(mid, rad, 4 * _EPS * (np.abs(mid).max() + rad.max()))
        if len(merged) == len(groups):
            break
        groups = [sorted(i for c in comp for i in groups[c]) for comp in merged]
    order = np.lexsort((mid.imag, mid.real))
    clusters = [RootCluster(complex(mid[k]), float(rad[k]), len(groups[k]), bool(rad[k] <= eps),
                            tuple(lam[groups[k]])) for k in order]
    return lam, X, clusters, [groups[k] for k in order]


def approx_eigenpairs(A, eps: float, tau: float = 1e-6) -> tuple[list[ApproxEigenPair], bool]:
    """Eigenpairs from the columns of LAPACK's eigenvector matrix, cluster by
    cluster, kept while the running Gram matrix stays tau-independent;
    returns (pairs, achieved) where achieved is False when some kept pair
    misses the residual target or fewer than n pairs are kept."""
    a = _coerce(A).entries
    lam, X, clusters, groups = _eig_clusters(a, eps)
    pairs: list[ApproxEigenPair] = []
    achieved = True
    for cl, idxs in zip(clusters, groups):
        for i in idxs:
            # independence: smallest eigenvalue of the Gram matrix of the
            # candidate set must stay above tau
            V = np.array([p.v_hat for p in pairs] + [X[:, i]])
            if float(np.linalg.eigvalsh(V.conj() @ V.T).min()) < tau:
                continue
            cert = _residual_certified(a, X[:, i], lam[i])
            if cert.value + cert.radius > eps:
                achieved = False
            pairs.append(ApproxEigenPair(complex(lam[i]), X[:, i], cert, cl))
    return pairs, achieved and len(pairs) == a.shape[0]


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "stable" | "unstable" | "undecided"
    margin: CertifiedReal  # certified max real part
    epsilon_used: float
    clusters: tuple = ()


def hurwitz_verdict(A, eps: float) -> StabilityVerdict:
    """Eigenvalue stability criterion on the certified eigenvalue clusters.

    stable: every cluster strictly in the open left half-plane; unstable:
    some cluster strictly in the right half-plane; otherwise undecided (a
    cluster touches the imaginary axis).  eps only sets `converged`.
    """
    clusters = _eig_clusters(_coerce(A).entries, eps)[2]
    # the margin's center and radius come from one cluster so the verdict
    # inequalities hold against it: the rightmost certified disk for
    # unstable, the disk bounding the maximum real part otherwise
    worst = max(clusters, key=lambda c: c.center.real - c.radius)
    if worst.center.real - worst.radius > 0:
        verdict = "unstable"
    else:
        worst = max(clusters, key=lambda c: c.center.real + c.radius)
        verdict = "stable" if worst.center.real + worst.radius < 0 else "undecided"
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
