"""Shared oracles for the test suite.

Everything here is built from first principles (Stinespring dilations,
Lindblad exponentials, direct quadrature of correlation functions) so the
library is checked against independent constructions, not against itself.
"""

import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from ttmkit import spectroscopy
from ttmkit.liouville import commutator_superop, left_multiply, right_multiply


def random_density(d, rng):
    """Full-rank random density matrix from a Ginibre square."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_cptp(d, rng, env=None):
    """Random CPTP superoperator from a Haar-like isometry.

    A Ginibre (d*env, d) block is orthonormalized by QR; its d x d slices
    are a complete Kraus set, so trace preservation is exact by
    construction.
    """
    env = env or d
    g = rng.normal(size=(d * env, d)) + 1j * rng.normal(size=(d * env, d))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))  # fix the gauge so the map is rng-stable
    sop = np.zeros((d * d, d * d), dtype=complex)
    for k in range(env):
        a = q[k * d:(k + 1) * d, :]
        sop += np.kron(a, a.conj())
    return sop


def random_lindblad_step(d, rng, dt=0.3, n_jumps=2):
    """One-step map E = exp(L dt) of a random Lindblad generator.

    Semigroups built this way are contractive and carry a positive Bloch
    determinant at every time, which is what a memoryless reference case
    needs.
    """
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (h + h.conj().T)
    gen = -1j * commutator_superop(h)
    for _ in range(n_jumps):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rate = rng.uniform(0.2, 1.0)
        aa = a.conj().T @ a
        gen += rate * (np.kron(a, a.conj())
                       - 0.5 * (left_multiply(aa) + right_multiply(aa)))
    return expm(gen * dt)


def ou_correlation(lam, kappa, omega_c, tau):
    """Stationary correlation lam * exp(-kappa|tau|) cos(omega_c tau)."""
    tau = np.abs(np.asarray(tau, dtype=float))
    return lam * np.exp(-kappa * tau) * np.cos(omega_c * tau)


def double_integral_correlation(lam, kappa, omega_c, t):
    """Closed form of int_0^t ds int_0^t ds' C(s - s').

    Uses C(s) = Re[lam exp(-mu s)] with mu = kappa - i omega_c, reducing
    the double integral to 2 Re[lam (t/mu - (1 - e^{-mu t})/mu^2)].
    """
    mu = kappa - 1j * omega_c
    val = lam * (t / mu - (1.0 - np.exp(-mu * t)) / mu**2)
    return 2.0 * val.real


def dephasing_coherence(lam, kappa, omega_c, t):
    """|rho_01(t)| / |rho_01(0)| for one qubit under z-coupled noise.

    The relative phase between the computational states accumulates at
    2 B(s), a Gaussian with variance 4x the double-integrated correlation;
    the ensemble coherence is exp(-variance/2).
    """
    return np.exp(-2.0 * double_integral_correlation(lam, kappa, omega_c, t))


def toggled_variance(signs, seg, lam, kappa):
    """Phase variance under piecewise sign toggling of a z coupling.

    signs is the +-1 pattern on consecutive segments of duration seg;
    the accumulated phase is 2 sum_j s_j int B over segment j and the
    exact Gaussian variance follows from pair integrals of
    C(tau) = lam exp(-kappa |tau|).
    """
    signs = np.asarray(signs, dtype=float)
    n = signs.size
    same = 2.0 * lam * (kappa * seg - 1.0 + np.exp(-kappa * seg)) / kappa**2
    var = same * np.sum(signs * signs)
    grow = np.exp(kappa * seg) - 1.0
    shrink = 1.0 - np.exp(-kappa * seg)
    for j in range(n):
        for k in range(j + 1, n):
            gap = (k - j - 1) * seg
            cross = lam * np.exp(-kappa * gap) * grow * shrink / kappa**2
            var += 2.0 * signs[j] * signs[k] * cross * np.exp(-kappa * seg)
    return 4.0 * var


def ou_map_series(model, dt, n_steps, levels):
    """Exact ensemble maps at dt, 2 dt, ..., n_steps dt under Ornstein-Uhlenbeck noise.

    For channels with C_ab(tau) = cross[a, b] exp(-kappa_ab |tau|) (every
    omega zero), write the noise as independent OU modes xi_i of variance
    s_i^2 and rate k_i, coupled through V_i. Kubo's stochastic Liouville
    equation, expanded in the Hermite functions of every xi_i, is the
    hierarchy

        d rho_m/dt = L_s rho_m - (k . m) rho_m
                     - i sum_i s_i (sqrt(m_i) [V_i, rho_{m - e_i}]
                                    + sqrt(m_i + 1) [V_i, rho_{m + e_i}]),

    with rho_m(0) = delta_{m0} rho(0) and the averaged state rho_0 (Kubo,
    J. Math. Phys. 4, 174 (1963); Tanimura, J. Phys. Soc. Jpn. 75, 082001
    (2006)). It keeps the multi-indices of total order |m| <= ``levels``,
    and map k is the (0, 0) block of the k-th power of the exponential of
    its generator over dt. The generator is sparse and applied by
    ``expm_multiply``: a dense ``expm`` of two modes at 32 levels (side
    8976 for a pair) would need gigabytes. A diagonal ``cross`` gives one
    mode per channel; equal kappas rotate ``cross`` to its eigenmodes,
    V_i = sum_a v_ai c_a, dropping null ones. Any other noise is rejected.
    """
    noise = model.noise
    kappas = np.array(noise.kappas)
    if any(noise.omegas):
        raise ValueError("OU hierarchy needs omega = 0 on every channel")
    if np.array_equal(noise.cross, np.diag(np.diag(noise.cross))):
        var, vecs = np.diag(noise.cross), np.eye(kappas.size)
    elif np.all(kappas == kappas[0]):
        var, vecs = np.linalg.eigh(noise.cross)
    else:
        raise ValueError("OU hierarchy needs a diagonal cross matrix or equal kappas")
    if var.min() < -1e-12 * var.max():
        raise ValueError("cross matrix is not positive semidefinite")
    modes = [i for i in range(var.size) if var[i] > 1e-12 * var.max()]
    comms = [np.sqrt(var[i]) * commutator_superop(
        sum(vecs[a, i] * c for a, c in enumerate(model.couplings))) for i in modes]
    rates = kappas[modes]
    index = {m: j for j, m in enumerate(
        m for m in itertools.product(range(levels + 1), repeat=len(modes)) if sum(m) <= levels)}
    d2 = model.dim ** 2
    ls = -1.0j * commutator_superop(model.h_system)
    blocks = [[None] * len(index) for _ in index]
    for m, j in index.items():
        blocks[j][j] = ls - (rates @ m) * np.eye(d2)
        for i, comm in enumerate(comms):
            for shift, weight in ((-1, np.sqrt(m[i])), (1, np.sqrt(m[i] + 1))):
                k = index.get(m[:i] + (m[i] + shift,) + m[i + 1:])
                if k is not None:
                    blocks[j][k] = -1.0j * weight * comm
    gen = sparse.bmat(blocks, format="csr") * dt
    x = np.zeros((gen.shape[0], d2), dtype=complex)
    x[:d2] = np.eye(d2)
    maps = []
    for _ in range(n_steps):
        x = expm_multiply(gen, x)
        maps.append(x[:d2])
    return maps


def is_density_matrix(rho, tol=1e-9):
    """Trace one, Hermitian and positive semidefinite, each within tol."""
    rho = np.asarray(rho, dtype=complex)
    return bool(abs(np.trace(rho) - 1.0) <= tol
                and np.linalg.norm(rho - rho.conj().T) <= tol
                and np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] > -tol)


def map_distance(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def fit_objective(a_mat, b_vec, lam, c_prev, c):
    """The correlation fit's point objective |A c - b|_2 + lam sum_i |c_i - c_prev_i|."""
    return float(np.linalg.norm(a_mat @ c - b_vec) + lam * np.sum(np.abs(c - c_prev)))


def one_channel_minimum(a_mat, b_vec, lam, c_prev, steps=200):
    """Brute-force minimum of the one-column fit objective by golden-section search.

    The objective is convex in c, so the search needs no derivative and
    kinks are no obstacle. The minimiser lies within |c_prev| + |b|/|a| of
    c_prev, since it sits between c_prev and the least-squares value; the
    bracket is twice that, and 200 steps shrink it far below one ulp.
    """
    def f(c):
        return fit_objective(a_mat, b_vec, lam, c_prev, np.array([c]))

    p = float(c_prev[0])
    half = 2.0 * (abs(p) + np.linalg.norm(b_vec) / np.linalg.norm(a_mat)) + 1.0
    lo, hi = p - half, p + half
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = min(f(p), f1, f2)
    for _ in range(steps):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
        best = min(best, f1, f2)
    return best


def fit_kkt_violation(a_mat, b_vec, lam, c_prev, c):
    """Largest violation of the fit's optimality conditions, in units of lam.

    With g = A^T (A c - b) / |A c - b|, the gradient of the data term, a
    channel moved off its warm start needs g_i = -lam sign(c_i - c_prev_i)
    and a channel left there needs |g_i| <= lam.
    """
    x = a_mat @ c - b_vec
    g = a_mat.T @ x / np.linalg.norm(x)
    moved = c != c_prev
    gap = np.where(moved, np.abs(g + lam * np.sign(c - c_prev)), np.abs(g) - lam)
    return float(max(np.max(gap), 0.0)) / lam


@pytest.fixture
def fit_solves(monkeypatch):
    """Every point solve of fit_correlations, as (a_mat, b_vec, lam, c_prev, c)."""
    solve = spectroscopy._solve_one
    calls = []

    def recording(a_mat, b_vec, lam, c_prev):
        out = solve(a_mat, b_vec, lam, c_prev)
        calls.append((a_mat, b_vec, lam, c_prev, out[0]))
        return out

    monkeypatch.setattr(spectroscopy, "_solve_one", recording)
    return calls
