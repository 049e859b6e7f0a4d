import json
from pathlib import Path

import numpy as np
import pytest

import certctrl.eigen as eigen
from certctrl import cli
from certctrl.eigen import (
    ApproxEigenPair,
    ComplexMatrix,
    approx_eigenpairs,
    hurwitz_verdict,
)
from oracles import residual_recheck_mp

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------

def test_eigenpairs_diagonal_exact():
    pairs, achieved = approx_eigenpairs(np.diag([-1.0, -2.0]), 1e-13)
    assert achieved and len(pairs) == 2
    lams = sorted(p.lambda_hat.real for p in pairs)
    assert abs(lams[0] + 2.0) <= 1e-12
    assert abs(lams[1] + 1.0) <= 1e-12
    for p in pairs:
        assert p.residual.value <= 1e-13


def test_eigenpairs_rotation_closed_form():
    pairs, achieved = approx_eigenpairs(ROT, 1e-8)
    assert achieved and len(pairs) == 2
    for p in pairs:
        assert abs(abs(p.lambda_hat.imag) - 1.0) <= 1e-8
        assert abs(p.lambda_hat.real) <= 1e-8
        # DERIVED: closed-form check of A v - lambda v
        r = ROT @ p.v_hat - p.lambda_hat * p.v_hat
        assert np.linalg.norm(r) <= 1e-8
        # eigenvector matches (1, -i)/sqrt(2) or (1, i)/sqrt(2) up to phase
        ref = np.array([1.0, -1j * np.sign(p.lambda_hat.imag)]) / np.sqrt(2)
        overlap = abs(np.vdot(ref, p.v_hat))
        assert overlap >= 1.0 - 1e-8


def _assert_pairs_follow_the_proof(A, pairs, achieved, eps):
    # n pairs when the enclosure proves the eigenvector basis, else column 0
    # alone; every residual bound holds against a doubled-precision recheck
    proven = ComplexMatrix(A).spectrum[-1]
    assert len(pairs) == (len(A) if proven else 1)
    assert achieved == (proven and all(p.residual.value + p.residual.radius <= eps for p in pairs))
    for p in pairs:
        assert residual_recheck_mp(A, p) <= p.residual.value + p.residual.radius
    return proven


def test_eigenpairs_jordan_block_reports_single_direction():
    # defective: e1 is the one eigendirection, and LAPACK returns it in both
    # columns, nearly parallel; the enclosure still proves the columns
    # independent, so both are pairs along e1 with certified residuals
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    pairs, achieved = approx_eigenpairs(A, 1e-3)
    assert _assert_pairs_follow_the_proof(A, pairs, achieved, 1e-3)
    assert achieved and len(pairs) == 2
    for p in pairs:
        assert abs(p.v_hat[0]) >= 0.99  # direction e1


def test_approx_eigenpairs_match_the_tau_greedy_reference():
    # wherever the tau-Gram heuristic kept every column of a proven basis,
    # the pairs, residuals and achieved flag are its own, bit for bit
    from oracles import tau_greedy_eigenpairs

    def bits(pairs):
        return [(p.lambda_hat, p.v_hat.tobytes(), p.residual.value.hex(), p.residual.radius.hex())
                for p in pairs]

    rng = np.random.default_rng(83)
    cases = _cluster_cases(rng) + [rng.standard_normal((n, n)) for n in (2, 4, 7, 12, 20, 32)]
    compared = 0
    for A in cases:
        pairs, achieved = approx_eigenpairs(A, 1e-8)
        want, want_achieved, proven = tau_greedy_eigenpairs(A, 1e-8)
        _assert_pairs_follow_the_proof(A, pairs, achieved, 1e-8)
        if not (proven and len(want) == len(A)):
            continue
        assert (achieved, bits(pairs)) == (want_achieved, bits(want))
        compared += 1
    assert compared >= len(cases) - 2, compared


@pytest.mark.parametrize("scale", [1e200, 1e300, 1e308])
def test_residuals_of_entries_whose_squares_overflow(scale):
    # eigenvalues scale (-1 +- i sqrt3) / 2: the squares of the residual
    # entries overflow, so the norms are taken on a power-of-two scaling;
    # at 1e308 so do the sums |A| |v| + |lam| |v| of the error bound
    A = np.array([[0.0, scale], [-scale, -scale]])
    assert hurwitz_verdict(A).verdict == "stable"
    pairs, achieved = approx_eigenpairs(A, 1e-8)
    _assert_pairs_follow_the_proof(A, pairs, achieved, 1e-8)
    assert len(pairs) == 2


def test_norm_is_numpys_in_the_normal_range():
    rng = np.random.default_rng(89)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n)
        if rng.random() < 0.5:
            x = x + 1j * rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n)
        assert eigen._norm(x).hex() == float(np.linalg.norm(x)).hex()


def test_eigenpairs_gram_independence():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pairs, _ = approx_eigenpairs(A, 1e-8)
        assert 1 <= len(pairs) <= n
        V = np.array([p.v_hat for p in pairs])
        G = V.conj() @ V.T
        assert float(np.linalg.eigvalsh(G).min()) >= 1e-6 - 1e-12


def test_eigenpairs_residual_sound_vs_mp():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pairs, achieved = approx_eigenpairs(A, 1e-8)
        assert achieved
        for p in pairs:
            hi = residual_recheck_mp(A, p)
            assert hi <= p.residual.value + p.residual.radius


# ---------------------------------------------------------------------------
# Hurwitz verdict
# ---------------------------------------------------------------------------

def test_hurwitz_stable_diagonal():
    v = hurwitz_verdict(np.diag([-1.0, -2.0]))
    assert v.verdict == "stable"
    assert v.margin.value + v.margin.radius < 0


def test_hurwitz_rotation_undecided():
    v = hurwitz_verdict(ROT)
    assert v.verdict == "undecided"


def test_hurwitz_companion_unstable():
    # companion of lambda^2 - 0.1 lambda + 1: roots 0.05 +- ~0.9987i
    A = np.array([[0.0, -1.0], [1.0, 0.1]])
    v = hurwitz_verdict(A)
    assert v.verdict == "unstable"
    assert v.margin.value == pytest.approx(0.05, abs=1e-6)


def test_hurwitz_agrees_with_2x2_closed_form():
    # Routh-Hurwitz oracle for real 2x2: stable iff tr < 0 and det > 0
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(200):
        A = rng.uniform(-2, 2, (2, 2))
        v = hurwitz_verdict(A)
        if v.verdict == "undecided":
            continue
        tr, det = np.trace(A), np.linalg.det(A)
        oracle = "stable" if (tr < 0 and det > 0) else "unstable"
        assert v.verdict == oracle
        checked += 1
    assert checked >= 150


def test_hurwitz_similarity_invariance():
    rng = np.random.default_rng(41)
    agreements = 0
    for _ in range(20):
        n = 3
        A = rng.standard_normal((n, n))
        S = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        B = S @ A @ np.linalg.inv(S)
        va, vb = hurwitz_verdict(A), hurwitz_verdict(B)
        if "undecided" in (va.verdict, vb.verdict):
            continue
        assert va.verdict == vb.verdict
        agreements += 1
    assert agreements >= 10


def test_eigenpairs_failure_flag_below_attainable_precision():
    # eps far below attainable double precision: best pairs returned with
    # the achieved flag cleared
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pairs, achieved = approx_eigenpairs(A, 1e-30)
    assert not achieved
    assert pairs  # best-effort pairs still reported


def test_hurwitz_margin_invariants_random():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        v = hurwitz_verdict(A)
        if v.verdict == "stable":
            assert v.margin.value + v.margin.radius < 0
        elif v.verdict == "unstable":
            assert v.margin.value - v.margin.radius > 0


# ---------------------------------------------------------------------------
# the LAPACK eigenbasis enclosure
# ---------------------------------------------------------------------------

def _symmetric_with_spectrum(rng, spectrum):
    q, _ = np.linalg.qr(rng.standard_normal((len(spectrum), len(spectrum))))
    return q @ np.diag(spectrum) @ q.T


@pytest.mark.parametrize("n", [8, 12, 32])
def test_symmetric_stable_spectrum_is_decided_with_every_pair(n):
    rng = np.random.default_rng(n)
    A = _symmetric_with_spectrum(rng, rng.uniform(-2.0, -1.0, n))
    v = hurwitz_verdict(A)
    assert v.verdict == "stable"
    assert sum(c.multiplicity for c in v.clusters) == n
    pairs, achieved = approx_eigenpairs(A, 1e-8)
    assert achieved and len(pairs) == n


def test_graded_diagonal_is_decided_with_every_pair():
    A = np.diag(-1.0 - 0.1 * np.arange(10))
    v = hurwitz_verdict(A)
    assert v.verdict == "stable"
    assert v.margin.value + v.margin.radius < 0
    pairs, achieved = approx_eigenpairs(A, 1e-8)
    assert achieved and len(pairs) == 10


def _near_defective(rng):
    """Jordan blocks (exact and perturbed by 1e-10), a nearly coalescent
    triple, a double root and a dense similarity of a Jordan block."""
    j3 = np.diag([-1.0, -1.0, -1.0]) + np.diag([1.0, 1.0], 1)
    j2 = np.array([[0.5, 1.0], [0.0, 0.5]])
    cases = [
        j3,
        j3 + 1e-10 * rng.standard_normal((3, 3)),
        np.block([[j2, np.zeros((2, 2))], [np.zeros((2, 2)), np.diag([-2.0, 3.0])]]),
        np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1e-9], [1e-9, 0.0, 2.0]]),
        np.array([[0.0, -1.0], [1.0, -2.0]]),  # companion of (lambda + 1)^2
    ]
    S = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    cases.append(S @ cases[2] @ np.linalg.inv(S))
    return cases


def _frank(n):
    """Frank matrix: real positive eigenvalues, the smallest ill-conditioned."""
    i, j = np.indices((n, n))
    return np.where(j >= i - 1, n - np.maximum(i, j), 0).astype(float)


def _assert_clusters_hold_mp_eigenvalues(A, clusters):
    # DERIVED oracle: eigenvalues at 50 digits (mpmath), independent of
    # LAPACK; every one lies in exactly one cluster and each cluster holds
    # exactly its multiplicity of them
    import mpmath as mp

    with mp.workdps(50):
        lams = mp.eig(mp.matrix(np.asarray(A, dtype=complex).tolist()), left=False, right=False)
        held = [0] * len(clusters)
        for lam in lams:
            inside = [k for k, c in enumerate(clusters)
                      if mp.fabs(lam - mp.mpc(c.center)) <= mp.mpf(c.radius)]
            assert len(inside) == 1, (A, lam)
            held[inside[0]] += 1
    assert held == [c.multiplicity for c in clusters]


def test_clusters_hold_exactly_the_mp_eigenvalues():
    rng = np.random.default_rng(61)
    mats = []
    for _ in range(12):
        n = int(rng.integers(2, 11))
        mats.append(rng.standard_normal((n, n)))
        mats.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mats.extend(_near_defective(rng))
    mats.append(_frank(12))
    for A in mats:
        _assert_clusters_hold_mp_eigenvalues(A, hurwitz_verdict(A).clusters)


def test_enclosure_holds_for_a_perturbed_basis(monkeypatch):
    # the bound must hold for any basis X, not only for LAPACK's accurate
    # one: a basis off by about 1e-3 puts entries of that size off the
    # diagonal of R A X, and only the Gershgorin radii account for them
    rng = np.random.default_rng(71)
    lapack_eig = np.linalg.eig

    def perturbed_eig(a):
        lam, X = lapack_eig(a)
        return lam, X @ (np.eye(len(lam)) + 1e-3 * rng.standard_normal(X.shape))

    monkeypatch.setattr(np.linalg, "eig", perturbed_eig)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        clusters = hurwitz_verdict(A).clusters
        assert max(c.radius for c in clusters) > 1e-6
        _assert_clusters_hold_mp_eigenvalues(A, clusters)


def _cluster_cases(rng):
    """Random complex matrices, rotation blocks, repeated eigenvalues
    that merge and the order-2 Jordan block, n from 2 to 32."""
    cases = [np.array([[-1.0, 1.0], [0.0, -1.0]])]
    for n in (2, 3, 5, 8, 13, 21, 32):
        cases.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # each eigenvalue repeated up to three times, in a dense basis
        cases.append(Q @ np.diag(-1.0 - np.arange(n) // 3) @ Q.T)
    for m in (1, 4, 16):
        rot = np.zeros((2 * m, 2 * m))
        for i, (a, b) in enumerate(rng.uniform(-2, 2, (m, 2))):
            rot[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = a * np.eye(2) + b * ROT
        cases.append(rot)
    cases.append(np.diag([-1.0, -1.0, -2.0, -2.0, -2.0, 0.0]))
    return cases


def test_eig_clusters_match_the_per_group_reference(monkeypatch):
    from oracles import merge_disks_per_group

    def bits(lam, clusters, groups):
        return (lam.tobytes(), [(c.center.real.hex(), c.center.imag.hex(), c.radius.hex(), c.multiplicity)
                                for c in clusters], groups)

    cases = _cluster_cases(np.random.default_rng(5))
    got = [bits(*(r[i] for i in (0, 2, 3))) for r in map(eigen._eig_clusters, cases)]
    monkeypatch.setattr(eigen, "_merge_disks", merge_disks_per_group)
    want = [bits(*(r[i] for i in (0, 2, 3))) for r in map(eigen._eig_clusters, cases)]
    assert got == want
    sizes = [max(len(g) for g in groups) for _, _, groups in got]
    # some spectra merge, some stay apart
    assert min(sizes) == 1 and max(sizes) > 1, sizes


def test_boundary_spectrum_is_undecided():
    # a rotation block puts eigenvalues +-i w on the axis; the computed
    # centers land a rounding error left or right of it
    rng = np.random.default_rng(73)
    for n in range(2, 12):
        d = np.diag(rng.uniform(-2.0, -1.0, n))
        w = rng.uniform(0.5, 2.0)
        d[0, 0] = d[1, 1] = 0.0
        d[0, 1], d[1, 0] = -w, w
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert hurwitz_verdict(q @ d @ q.T).verdict == "undecided"


def test_near_defective_verdicts_are_never_wrong():
    rng = np.random.default_rng(67)
    truths = ["stable", "stable", "unstable", "unstable", "stable", "unstable"]
    for A, truth in zip(_near_defective(rng), truths):
        assert hurwitz_verdict(A).verdict in (truth, "undecided")


@pytest.mark.parametrize(
    "lam,n,decided", [(0.0, 2, "undecided"), (-1.0, 2, "stable"), (0.0, 4, "undecided")]
)
def test_jordan_block_verdict_and_single_direction(lam, n, decided):
    # the 4x4 block at 0 has no provably invertible eigenvector basis, so
    # its one cluster is the norm disk |z| <= ||A||_inf
    A = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
    v = hurwitz_verdict(A)
    assert v.verdict in (decided, "undecided")
    assert sum(c.multiplicity for c in v.clusters) == n
    assert any(abs(lam - c.center) <= c.radius for c in v.clusters)
    # LAPACK returns the one eigendirection e1 in every column; the order-2
    # blocks' columns are proven independent, so both are pairs
    pairs, achieved = approx_eigenpairs(A, 1e-8)
    assert _assert_pairs_follow_the_proof(A, pairs, achieved, 1e-8) == (n == 2)
    assert all(abs(p.v_hat[0]) >= 0.99 for p in pairs)
    assert all(p.residual.value <= 1e-8 for p in pairs)


def test_frank_matrix_without_a_provable_basis_keeps_the_norm_disk():
    # at n = 16 the enclosure still proves instability; at n = 20 the row
    # sums of |I - R X| exceed 1, so only |z| <= ||A||_inf is certified
    assert hurwitz_verdict(_frank(16)).verdict == "unstable"
    A = _frank(20)
    v = hurwitz_verdict(A)
    assert v.verdict == "undecided"
    (cluster,) = v.clusters
    assert cluster.center == 0 and cluster.multiplicity == 20
    assert cluster.radius >= np.abs(A).sum(axis=1).max()
    # no proven basis: column 0 alone, so the target is missed
    pairs, achieved = approx_eigenpairs(A, 1e-8)
    assert not achieved and len(pairs) == 1


def test_eigenpairs_not_achieved_with_missing_pairs():
    # the Frank matrix of order 12 has nearly parallel eigenvectors, but the
    # enclosure proves its basis, so all 12 pairs come back; at order 20 it
    # cannot, so column 0 alone comes back and the target is missed
    for n, proven in ((12, True), (20, False)):
        A = _frank(n)
        pairs, achieved = approx_eigenpairs(A, 1e-8)
        assert _assert_pairs_follow_the_proof(A, pairs, achieved, 1e-8) == proven
        assert achieved == proven


def _count_clusters(monkeypatch):
    calls = []
    real = eigen._eig_clusters
    monkeypatch.setattr(eigen, "_eig_clusters", lambda a: calls.append(a.shape) or real(a))
    return calls


def test_a_complex_matrix_is_analysed_once(monkeypatch):
    calls = _count_clusters(monkeypatch)
    a = np.array([[0.0, 1.0, 0.0], [-2.0, -3.0, 1.0], [0.0, 0.0, -0.5]])
    m = ComplexMatrix(a)
    verdict = hurwitz_verdict(m)
    pairs, achieved = approx_eigenpairs(m, 1e-8)
    assert calls == [(3, 3)]
    # an ndarray is analysed per call, to the same results
    assert hurwitz_verdict(a) == verdict
    plain, plain_achieved = approx_eigenpairs(a, 1e-8)
    assert len(calls) == 3
    assert plain_achieved == achieved and [p.lambda_hat for p in plain] == [p.lambda_hat for p in pairs]
    assert [p.residual for p in plain] == [p.residual for p in pairs]


def test_the_eig_task_runs_one_cluster_pass(monkeypatch, tmp_path):
    calls = _count_clusters(monkeypatch)
    example = Path(__file__).parents[1] / "examples" / "eig.json"
    assert cli.main(["eig", "--config", str(example), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert calls == [(3, 3)]
    assert json.loads((tmp_path / "out" / "certificate.json").read_text())["numeric"]["n_pairs"] == 3
