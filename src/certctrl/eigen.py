"""Residual-certified approximate eigenpairs and the eigenvalue stability
criterion.

Exact eigenvectors are not computable in general; what is computable is a
set of k <= n independent vectors whose eigen-residuals are certified
below a requested tolerance.  Eigenpairs come from LAPACK; Gershgorin disks
of X^-1 A X, bounded rigorously, cluster the eigenvalues with exact
multiplicities, and the Hurwitz verdict is `undecided` whenever a cluster
touches the imaginary axis.  The pairs are every column of LAPACK's
eigenvector matrix when the same bound proves it invertible, else one
column.  A `ComplexMatrix` is analysed once: its spectrum is computed on
first use and shared by every call it is passed to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ArgumentError, CertifiedReal

__all__ = [
    "ComplexMatrix",
    "RootCluster",
    "ApproxEigenPair",
    "StabilityVerdict",
    "approx_eigenpairs",
    "hurwitz_verdict",
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

    @cached_property
    def spectrum(self):
        """(lam, X, clusters, groups, proven) of `_eig_clusters`, once."""
        return _eig_clusters(self.entries)


def _coerce(A) -> ComplexMatrix:
    return A if isinstance(A, ComplexMatrix) else ComplexMatrix(np.asarray(A))


@dataclass(frozen=True)
class RootCluster:
    """A certified root disk: center, inclusion radius, multiplicity."""

    center: complex
    radius: float
    multiplicity: int


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


@dataclass(frozen=True)
class ApproxEigenPair:
    lambda_hat: complex
    v_hat: np.ndarray
    residual: CertifiedReal


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a contiguous x scaled by 2^-e, e the exponent of its
    largest real or imaginary part, scaled back: no square overflows, and a
    power of two commutes with every rounding, so the float is numpy's
    wherever no square, scaled or not, overflows or underflows."""
    e = math.frexp(float(np.abs(x.view(float)).max()))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(x.view(float), -e).view(x.dtype)), e))


def _residual_certified(a: np.ndarray, v: np.ndarray, lam: complex) -> CertifiedReal:
    n = a.shape[0]
    val = _norm(a @ v - lam * v)
    # componentwise fl error of A v - lam v, (|A| |v| + |lam| |v|) (n + 4)
    # eps, formed on |A| and |lam| scaled by 2^-k: k = 0 unless a sum
    # overflows, else the exponent of the largest of them (|v| <= 1).  A
    # power of two commutes with every rounding; a scaled product that
    # underflows loses at most 2 eta, charged per component as
    # _eig_clusters' mu charges it
    abs_a, abs_v, abs_lam = np.abs(a), np.abs(v), abs(lam)
    with np.errstate(over="ignore"):
        s = abs_a @ abs_v + abs_lam * abs_v
    k = 0 if np.all(np.isfinite(s)) else math.frexp(max(float(abs_a.max()), abs_lam))[1]
    if k:
        s = np.ldexp(abs_a, -k) @ abs_v + math.ldexp(abs_lam, -k) * abs_v + 2 * (n + 1) * _ETA
    err = np.ldexp(s * ((n + 4) * _EPS), k)
    rad = _norm(err) + (n + 4) * _EPS * val + math.ulp(max(val, 1e-300))
    return CertifiedReal(val, rad)


def _eig_clusters(a: np.ndarray):
    """LAPACK eigenpairs lam, X and certified clusters of the spectrum of A.

    Returns (lam, X, clusters, groups, proven): disjoint disks sorted by
    center, each holding exactly len(groups[k]) eigenvalues, those the pairs
    groups[k] approximate, and whether delta < 1 proved X invertible (step
    3).  With u = 2^-53, gamma_k = k u/(1 - k u), eta = 2^-1074, R = inv(X),
    ~ = computed:

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
    proven = bool(delta < 1.0)
    if not (proven and np.all(np.isfinite(rho))):
        radius = float(up * np.abs(a).sum(axis=1).max())
        return lam, X, [RootCluster(0j, radius, n)], [list(range(n))], proven
    mid, rad, groups = _merge_disks(np.diag(B), rho, up)
    order = np.lexsort((mid.imag, mid.real))
    clusters = [RootCluster(complex(mid[k]), float(rad[k]), len(groups[k])) for k in order]
    return lam, X, clusters, [groups[k] for k in order], proven


def _merge_disks(centers: np.ndarray, rho: np.ndarray, up: float):
    """(mid, rad, groups): disks i of center centers[i] and radius rho[i]
    merged until no two enclosing disks overlap; group k is enclosed by the
    disk of center mid[k], the mean of its centers, and radius rad[k], up
    times the largest |center - mid[k]| + rho of its members.  The first
    pass, one disk per group, is one vector operation: there a mean is the
    center plus +0.0 (np.mean sums from 0 and divides by 1) and |c - c| + rho
    = rho (finite centers, rho > 0); merged groups take the per-group path.
    """
    groups = [[i] for i in range(len(centers))]
    mid, rad = centers + 0.0, up * rho
    while True:
        merged = _overlap_components(mid, rad, 4 * _EPS * (np.abs(mid).max() + rad.max()))
        if len(merged) == len(groups):
            return mid, rad, groups
        groups = [sorted(i for c in comp for i in groups[c]) for comp in merged]
        mid = np.array([centers[idx].mean() for idx in groups])
        rad = up * np.array([(np.abs(centers[idx] - m) + rho[idx]).max()
                             for idx, m in zip(groups, mid)])


def approx_eigenpairs(A, eps: float) -> tuple[list[ApproxEigenPair], bool]:
    """Eigenpairs from LAPACK's eigenvector matrix X with certified residuals
    ||A v - lambda v||: all n columns, cluster by cluster, when the enclosure
    proves X invertible (`_eig_clusters`), so they are independent; else
    column 0 alone, one nonzero vector (the verdict is then undecided).
    Returns (pairs, achieved), achieved when X is proven invertible and every
    certified residual is <= eps."""
    if not eps > 0:
        raise ArgumentError("eps must be positive")
    m = _coerce(A)
    lam, X, _, groups, proven = m.spectrum
    columns = [i for idxs in groups for i in idxs][: None if proven else 1]
    pairs = [ApproxEigenPair(complex(lam[i]), X[:, i], _residual_certified(m.entries, X[:, i], lam[i]))
             for i in columns]
    return pairs, proven and all(p.residual.value + p.residual.radius <= eps for p in pairs)


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str  # "stable" | "unstable" | "undecided"
    margin: CertifiedReal  # certified max real part
    clusters: tuple = ()


def hurwitz_verdict(A) -> StabilityVerdict:
    """Eigenvalue stability criterion on the certified eigenvalue clusters.

    stable: every cluster strictly in the open left half-plane; unstable:
    some cluster strictly in the right half-plane; otherwise undecided (a
    cluster touches the imaginary axis).
    """
    clusters = _coerce(A).spectrum[2]
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
    return StabilityVerdict(verdict, margin, tuple(clusters))
