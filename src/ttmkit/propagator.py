"""Ensemble propagation under classical colored noise.

Each trajectory evolves under H(t) = h_system + sum_a B_a(t) coupling_a
with B drawn from a :class:`~ttmkit.noisegen.NoiseModel`. Noise values are
frozen at substep midpoints, so every per-path propagator is an ordered
product of piecewise-constant steps. The ensemble-averaged dynamical maps

    E_k = < U(k dt) (x) conj(U(k dt)) >

are trace preserving for every sample size because each summand is a
unitary conjugation; no per-map renormalization is ever needed.

Purely longitudinal models (diagonal Hamiltonian and couplings) take an
exact fast path through accumulated phase integrals, which for commuting
generators reproduces the substep product to machine precision. Qubit
models with transverse terms carry each path's propagator as a unit
quaternion (SU(2) up to the global phase, which cancels in the maps).
"""

from dataclasses import dataclass

import numpy as np

from .liouville import commutator_superop, unitary_superop
from .noisegen import GaussianPathSampler, NoiseModel


@dataclass(frozen=True)
class SystemModel:
    """Static system Hamiltonian plus noise channels with coupling operators.

    Parameters
    ----------
    h_system : ndarray
        Hermitian d x d system Hamiltonian.
    couplings : tuple of ndarray
        One Hermitian d x d operator per noise channel; channel a
        contributes B_a(t) * couplings[a] to the Hamiltonian.
    noise : NoiseModel
    """

    h_system: np.ndarray
    couplings: tuple
    noise: NoiseModel

    def __post_init__(self):
        h = np.asarray(self.h_system, dtype=complex)
        object.__setattr__(self, "h_system", h)
        object.__setattr__(self, "couplings",
                           tuple(np.asarray(c, dtype=complex) for c in self.couplings))
        if len(self.couplings) != self.noise.n_channels:
            raise ValueError("one coupling operator per noise channel is required")
        for op in (h,) + self.couplings:
            if op.shape != h.shape or op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise ValueError("operators must share one square shape")
            if np.linalg.norm(op - op.conj().T) > 1e-12 * max(1.0, np.linalg.norm(op)):
                raise ValueError("operators must be Hermitian")

    @property
    def dim(self):
        return self.h_system.shape[0]

    @property
    def is_diagonal(self):
        ops = (self.h_system,) + self.couplings
        return all(np.allclose(op, np.diag(np.diagonal(op)), atol=1e-14) for op in ops)


def free_evolution_superop(h, t):
    """Superoperator of the noiseless evolution exp(-i h t) rho exp(+i h t)."""
    h = np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1.0j * w * t)) @ v.conj().T
    return unitary_superop(u)


def evolve_trajectory(model, path, rho0):
    """Propagate one state along one noise realization.

    Each step applies U_k = exp(-i H_k dt) with H_k the Hamiltonian frozen
    at the step midpoint value stored in ``path``; the per-path evolution is
    exactly unitary, so purity and trace survive to machine precision. The
    steps are taken by the ensemble kernel on a single path.

    Returns the states at t_1 .. t_n as an (n_steps, d, d) array.
    """
    values = np.asarray(path.values, dtype=float)
    if values.shape[0] != model.noise.n_channels:
        raise ValueError("path channel count does not match the model")
    if not np.all(np.isfinite(values)):
        raise ValueError("noise path contains non-finite values")
    rho = np.asarray(rho0, dtype=complex)
    d = model.dim
    if rho.shape != (d, d):
        raise ValueError("rho0 dimension does not match the model")
    n_steps = values.shape[1]
    maps = _chunk_map_sums(model, values[None], path.dt, np.arange(n_steps))
    return (maps @ rho.reshape(-1)).reshape(n_steps, d, d)


def _diag_parts(model):
    h = np.real(np.diagonal(model.h_system))
    z = np.stack([np.real(np.diagonal(c)) for c in model.couplings])
    return h, z


def _pauli_vector(op):
    # Hermitian 2x2 -> v with op = a0 I + v . sigma; a0 only adds a global
    # phase, which cancels in U (x) conj(U)
    return 0.5 * np.array([np.real(op[0, 1] + op[1, 0]),
                           np.imag(op[1, 0] - op[0, 1]),
                           np.real(op[0, 0] - op[1, 1])])


# A unit quaternion q = (w, x, y, z) stands for U = w I - i (x, y, z) . sigma,
# so each entry U[a, b] = sum_i _SU2_ENTRIES[a, b, i] q_i is linear in q and
# each entry of U (x) conj(U) is bilinear. Summed over paths, the
# superoperator is therefore a fixed linear image of the real 4x4 Gram
# matrix sum_p q_p q_p^T: vec(S) = _GRAM_TO_SUPEROP @ vec(G).
_SU2_ENTRIES = np.array([[[1, 0, 0, -1j], [0, -1j, -1, 0]],
                         [[0, -1j, 1, 0], [1, 0, 0, 1j]]])
_GRAM_TO_SUPEROP = np.einsum("abi,cdj->acbdij", _SU2_ENTRIES,
                             _SU2_ENTRIES.conj()).reshape(16, 16)


def _quat_mul(a, b):
    """Hamilton product a b of quaternion arrays stacked on axis 0."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by + ay * bw + az * bx - ax * bz,
                     aw * bz + az * bw + ax * by - ay * bx])


def _su2_segment(v, dt_sub):
    """Time-ordered product of exp(-i v_j . sigma dt_sub) over axis 1 of v (3, m, P).

    Each step is the quaternion (cos t, sin(t) v / |v|) with t = |v| dt_sub;
    the m steps are multiplied pairwise, later steps on the left.
    """
    norm = np.sqrt(np.einsum("kjp,kjp->jp", v, v))
    theta = norm * dt_sub
    q = np.empty((4,) + norm.shape)
    np.cos(theta, out=q[0])
    s = np.sin(theta)
    np.divide(s, norm, out=s, where=norm > 0)  # where norm = 0, v = 0 as well
    np.multiply(v, s, out=q[1:])
    while q.shape[1] > 1:
        m = q.shape[1]
        pairs = _quat_mul(q[:, 1::2], q[:, 0:m - 1:2])
        q = np.concatenate([pairs, q[:, m - 1:]], axis=1) if m % 2 else pairs
    return q[:, 0]


def _superop_sum(u):
    """sum_p U_p (x) conj(U_p) for a batch of unitaries (P, d, d)."""
    d = u.shape[-1]
    return np.einsum("pab,pcd->acbd", u, u.conj()).reshape(d * d, d * d)


def _chunk_map_sums(model, b, dt_sub, boundary):
    """Per-chunk sums (not means) of the maps at the given substep boundaries."""
    d = model.dim
    n_steps = boundary.size
    out = np.empty((n_steps, d * d, d * d), dtype=complex)

    if model.is_diagonal:
        hdiag, zdiag = _diag_parts(model)
        w = np.cumsum(b, axis=-1) * dt_sub
        wk = w[:, :, boundary]
        tk = dt_sub * (boundary + 1.0)
        phases = hdiag[None, :, None] * tk[None, None, :] \
            + np.einsum("pak,ar->prk", wk, zdiag)
        for k in range(n_steps):
            dvals = np.exp(-1.0j * phases[:, :, k])
            g = dvals.T @ dvals.conj()
            out[k] = np.diag(g.reshape(-1))
        return out

    n_paths, _, n_sub = b.shape
    if d == 2:
        v_sys = _pauli_vector(model.h_system)
        v_coup = np.stack([_pauli_vector(c) for c in model.couplings])
        q_cum = np.zeros((4, n_paths))
        q_cum[0] = 1.0
        grams = np.empty((n_steps, 4, 4))
        start = 0
        for pos, end in enumerate(boundary):
            v = np.einsum("ak,paj->kjp", v_coup, b[:, :, start:end + 1])
            v += v_sys[:, None, None]
            q_cum = _quat_mul(_su2_segment(v, dt_sub), q_cum)
            grams[pos] = q_cum @ q_cum.T
            start = end + 1
        return (grams.reshape(n_steps, 16) @ _GRAM_TO_SUPEROP.T).reshape(n_steps, 4, 4)

    u_cum = np.broadcast_to(np.eye(d, dtype=complex), (n_paths, d, d)).copy()
    pos = 0
    ops = np.stack(model.couplings)
    for j in range(n_sub):
        h = model.h_system[None, :, :] + np.einsum("pa,aij->pij", b[:, :, j], ops)
        w, v = np.linalg.eigh(h)
        step = np.einsum("pij,pj,pkj->pik", v, np.exp(-1.0j * w * dt_sub), v.conj())
        u_cum = step @ u_cum
        if pos < n_steps and j == boundary[pos]:
            out[pos] = _superop_sum(u_cum)
            pos += 1
    return out


def _cv_generators(model, dt_sub, midpoints):
    """Interaction-picture noise generators, one per (channel, substep).

    g[a, j] = dt_sub * S_free(-s_j) (-i [sigma_a, .]) S_free(s_j) with s_j
    the substep midpoint. These are the linear-response coefficients of the
    exact per-path map with respect to the frozen noise values.
    """
    d = model.dim
    lv = [-1.0j * commutator_superop(c) for c in model.couplings]
    w, v = np.linalg.eigh(model.h_system)
    g = np.empty((len(lv), midpoints.size, d * d, d * d), dtype=complex)
    for j, s in enumerate(midpoints):
        u = (v * np.exp(-1.0j * w * s)) @ v.conj().T
        sf = unitary_superop(u)
        sb = unitary_superop(u.conj().T)
        for a in range(len(lv)):
            g[a, j] = dt_sub * (sb @ lv[a] @ sf)
    return g


def _cv_corrections(model, g, bbar, delta_m, boundary, dt):
    """Second-order map functional evaluated on the sampled-moment excess.

    Accumulates, substep by substep in time order,

        sum_J bbar_J g_J
      + sum_{j > j'} sum_{a a'} dM[(a,j),(a',j')] g_{a j} g_{a' j'}
      + (1/2) sum_j sum_{a a'} dM[(a,j),(a',j)] g_{a j} g_{a' j}

    and left-multiplies by the free map at each boundary. Subtracting this
    from the raw ensemble mean removes the sampling fluctuation of the first
    and second noise moments while leaving the expectation untouched.
    """
    n_ch, n_sub = g.shape[:2]
    d2 = g.shape[-1]
    acc = np.zeros((d2, d2), dtype=complex)
    out = np.empty((len(boundary), d2, d2), dtype=complex)
    pos = 0
    for j in range(n_sub):
        gj = g[:, j]
        if j > 0:
            inner = np.einsum("abk,bkuv->auv", delta_m[:, j, :, :j], g[:, :j])
            for a in range(n_ch):
                acc += gj[a] @ inner[a]
        inner_same = np.einsum("ab,buv->auv", delta_m[:, j, :, j], gj)
        for a in range(n_ch):
            acc += 0.5 * (gj[a] @ inner_same[a])
        acc += np.einsum("a,auv->uv", bbar[:, j], gj)
        if pos < len(boundary) and j == boundary[pos]:
            out[pos] = free_evolution_superop(model.h_system, dt * (pos + 1)) @ acc
            pos += 1
    return out


def _chunks(sampler, n_traj, seed, chunk_size, antithetic=False):
    """Noise draws of an ensemble, chunk by chunk.

    Chunk c draws up to ``chunk_size`` paths from its own generator,
    ``SeedSequence((seed, c))``, so a fixed (seed, chunk_size) gives
    bit-stable draws. With ``antithetic`` every draw is followed by its
    sign-flipped mirror and n_traj counts both, so it must be even. Yields
    (draws, paths): the drawn paths and the paths to propagate.
    """
    if antithetic and n_traj % 2:
        raise ValueError("antithetic sampling needs an even n_traj")
    n_draw = n_traj // 2 if antithetic else n_traj
    for chunk_idx, done in enumerate(range(0, n_draw, chunk_size)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk_idx))))
        draws = sampler.sample(rng, min(chunk_size, n_draw - done))
        yield draws, np.concatenate([draws, -draws], axis=0) if antithetic else draws


def simulate_process(model, dt, n_steps, n_traj, substeps=8, seed=0,
                     antithetic=False, chunk_size=1024, collect_chunk_means=False,
                     control_variate=False):
    """Monte Carlo estimate of the dynamical maps on a uniform step grid.

    Parameters
    ----------
    model : SystemModel
    dt : float
        Spacing of the map grid; maps are returned at dt, 2 dt, ..., n_steps dt.
    n_steps : int
    n_traj : int
        Total number of trajectories averaged (mirror paths included when
        ``antithetic`` is set, so the count must then be even).
    substeps : int
        Noise-freezing subdivisions per map step.
    seed : int
        Master seed. Each chunk derives its generator from
        ``SeedSequence((seed, chunk_index))``, so results are independent
        of ``chunk_size`` only chunk by chunk; fixing both gives bit-stable
        output across runs.
    antithetic : bool
        Pair every path with its sign-flipped noise. Exact variance kill
        for observables odd in B, typically large gains for weak coupling.
    collect_chunk_means : bool
        Also return the per-chunk map means, shaped
        (n_chunks, n_steps, d^2, d^2), for Monte Carlo error estimates.
        Chunks are equal-weight in that array; choose n_traj divisible by
        chunk_size when using it. Chunk means are raw, without the
        control-variate correction.
    control_variate : bool
        Subtract the second-order moment-matching control variate: the
        known response of the maps to the first and second sample moments
        of the noise, evaluated on (sample moments - exact moments). The
        estimator stays exactly unbiased for any sample size because the
        subtracted functional is linear in those moments; its fluctuation
        from moments up to second order is removed entirely, which is the
        dominant Monte Carlo error at weak coupling once ``antithetic``
        has killed the odd orders.

    Returns
    -------
    maps : list of ndarray
        n_steps superoperators of shape (d^2, d^2).
    chunk_means : ndarray, only when ``collect_chunk_means``
    """
    d = model.dim
    n_sub = n_steps * substeps
    dt_sub = dt / substeps
    midpoints = (np.arange(n_sub) + 0.5) * dt_sub
    sampler = GaussianPathSampler(model.noise, midpoints)
    boundary = substeps * np.arange(1, n_steps + 1) - 1

    n_ch = model.noise.n_channels
    n_flat = n_ch * n_sub
    sum_b = np.zeros(n_flat)
    sum_gram = np.zeros((n_flat, n_flat))

    acc = np.zeros((n_steps, d * d, d * d), dtype=complex)
    chunk_means = []
    for draws, b in _chunks(sampler, n_traj, seed, chunk_size, antithetic):
        contrib = _chunk_map_sums(model, b, dt_sub, boundary)
        acc += contrib
        if control_variate:
            # a mirrored pair [x; -x] has twice the Gram matrix of x and sums to 0
            flat = draws.reshape(draws.shape[0], n_flat)
            sum_gram += (2.0 if antithetic else 1.0) * (flat.T @ flat)
            if not antithetic:
                sum_b += flat.sum(axis=0)
        if collect_chunk_means:
            chunk_means.append(contrib / b.shape[0])

    maps = [acc[k] / n_traj for k in range(n_steps)]
    if control_variate:
        bbar = (sum_b / n_traj).reshape(n_ch, n_sub)
        delta_m = (sum_gram / n_traj - sampler.covariance()).reshape(
            n_ch, n_sub, n_ch, n_sub)
        g = _cv_generators(model, dt_sub, midpoints)
        corrections = _cv_corrections(model, g, bbar, delta_m, boundary, dt)
        maps = [m - c for m, c in zip(maps, corrections)]
    if collect_chunk_means:
        return maps, np.array(chunk_means)
    return maps


def simulate_pulsed_process(model, segments, n_cycles, n_traj, substeps=2,
                            seed=0, chunk_size=1024):
    """Ensemble maps at cycle boundaries of a pulsed sequence.

    ``segments`` is a sequence of ``(duration, pulse)`` pairs run in order
    within each cycle: free evolution under the noisy Hamiltonian for
    ``duration``, then the instantaneous unitary ``pulse`` (or None). Only
    purely longitudinal models are supported; segment propagators are then
    exact diagonal phases given the sampled noise integrals. Chunks are
    seeded as in :func:`simulate_process`.

    Returns a list of n_cycles superoperators, one per completed cycle.
    """
    if not model.is_diagonal:
        raise NotImplementedError("pulsed simulation expects a diagonal noise model")
    d = model.dim
    hdiag, zdiag = _diag_parts(model)
    durations = np.array([float(s[0]) for s in segments])
    pulses = [None if s[1] is None else np.asarray(s[1], dtype=complex) for s in segments]
    n_seg = len(segments)

    # Global midpoint grid: `substeps` per segment, all cycles concatenated.
    starts = np.concatenate([[0.0], np.cumsum(np.tile(durations, n_cycles))])[:-1]
    seg_durs = np.tile(durations, n_cycles)
    mids = []
    for t0, tau in zip(starts, seg_durs):
        mids.append(t0 + (np.arange(substeps) + 0.5) * (tau / substeps))
    midpoints = np.concatenate(mids)
    sampler = GaussianPathSampler(model.noise, midpoints)

    acc = np.zeros((n_cycles, d * d, d * d), dtype=complex)
    for _, b in _chunks(sampler, n_traj, seed, chunk_size):
        u_cum = np.broadcast_to(np.eye(d, dtype=complex), (b.shape[0], d, d)).copy()
        for s in range(n_seg * n_cycles):
            tau = seg_durs[s]
            sl = slice(s * substeps, (s + 1) * substeps)
            w_seg = b[:, :, sl].sum(axis=-1) * (tau / substeps)
            phi = hdiag[None, :] * tau + w_seg @ zdiag
            u_cum = np.exp(-1.0j * phi)[:, :, None] * u_cum
            pulse = pulses[s % n_seg]
            if pulse is not None:
                u_cum = np.einsum("ab,pbc->pac", pulse, u_cum)
            if (s + 1) % n_seg == 0:
                acc[(s + 1) // n_seg - 1] += _superop_sum(u_cum)
    return [acc[k] / n_traj for k in range(n_cycles)]


def dephasing_map(model, t):
    """Exact ensemble map at time t for a purely longitudinal model.

    Gaussian averaging gives, per matrix element (r, c),

        E[(r,c),(r,c)] = exp(-i (h_r - h_c) t) exp(-Var/2),
        Var = sum_ab (z_ar - z_ac)(z_br - z_bc) Phi_ab(t),

    with Phi_ab the double time integral of the noise correlation. This is
    the closed-form counterpart of :func:`simulate_process` in the limit of
    infinitely many trajectories and substeps.
    """
    if not model.is_diagonal:
        raise ValueError("closed-form maps exist only for diagonal models")
    d = model.dim
    hdiag, zdiag = _diag_parts(model)
    n_ch = zdiag.shape[0]
    phi = np.array([[model.noise.phase_variance(t, a, b) for b in range(n_ch)]
                    for a in range(n_ch)])
    diag = np.empty(d * d, dtype=complex)
    for r in range(d):
        for c in range(d):
            dz = zdiag[:, r] - zdiag[:, c]
            var = dz @ phi @ dz
            diag[d * r + c] = np.exp(-1.0j * (hdiag[r] - hdiag[c]) * t - 0.5 * var)
    return np.diag(diag)


def dephasing_map_series(model, dt, n_steps):
    """Closed-form maps at dt, 2 dt, ..., n_steps dt. See :func:`dephasing_map`."""
    return [dephasing_map(model, (k + 1) * dt) for k in range(n_steps)]
