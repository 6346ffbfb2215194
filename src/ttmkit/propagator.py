"""Ensemble propagation under classical colored noise.

Each trajectory evolves under H(t) = h_system + sum_a B_a(t) coupling_a
with B drawn from a :class:`~ttmkit.noisegen.NoiseModel`. Noise values are
frozen at substep midpoints, so every per-path propagator is an ordered
product of piecewise-constant steps. The ensemble-averaged dynamical maps

    E_k = < U(k dt) (x) conj(U(k dt)) >

are trace preserving for every sample size because each summand is a
unitary conjugation; no per-map renormalization is ever needed.

The model's structure alone picks one of three step kernels for that
product. A purely longitudinal model (diagonal Hamiltonian and couplings)
scales each path's propagator by one diagonal phase factor per segment
between map boundaries or pulses; its generators commute, so the factor,
built from the segment's phase integral, reproduces the substep product to
machine precision. Such a model's maps depend on the noise only through
each segment's integral, so its runs draw those integrals directly: the
sampler folds the midpoint-rule sum over the segment's substeps into its
factor. ``substeps`` still sets that midpoint rule, and with it a phase
variance bias of order dt_sub^2. Other qubits carry each path's propagator
as a unit quaternion (SU(2) up to the global phase, which cancels in the
maps). Any other model keeps all propagators of a chunk in one (d, d, P)
array, path axis last, and takes each substep's exp(-i H tau) for every
path at once as a scaled-and-squared degree-15 Taylor polynomial, with no
eigendecomposition; each step is unitary to rounding.

Both simulators hand one private driver, :func:`_ensemble`, a flat list of
(duration, pulse) segments: n_steps pulse-free segments of dt, or a pulse
sequence n_cycles times over. It owns the midpoint grid, the sampler, the
seeded chunk loop with its antithetic pairs, chunk means and control variate.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .liouville import _B, _free_superops, commutator_superop, vec
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


def _diag_parts(model):
    h = np.real(np.diagonal(model.h_system))
    z = np.stack([np.real(np.diagonal(c)) for c in model.couplings])
    return h, z


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


def _mm(a, b):
    """Per-path products a @ b of (d, d, P) stacks, the path axis last."""
    out = a[:, 0, None] * b[0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * b[j]
    return out


# For |A|_1 <= theta, theta^16 / 16! = 2^-53, the degree-15 Taylor polynomial
# of exp(A) is truncated below double-precision rounding. Row i of the block matrix holds
# the coefficients 1/(4i + k)!, k = 0..3, of A^k in the i-th power of A^4.
_TAYLOR_THETA = (2.0**-53 * math.factorial(16)) ** (1 / 16)
_TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(4 * i + k) for k in range(4)]
                           for i in range(4)])


def _expm_paths(a, powers):
    """exp(a) for a (d, d, P) stack, by scaling and squaring a Taylor polynomial.

    One scaling 2^-s serves the whole stack, set by its largest 1-norm nu
    so that 2^-s nu <= theta (for a = -i H tau with H Hermitian, nu bounds
    the spectral norm of H tau). The polynomial sum_i B_i (A^4)^i with
    B_i = sum_k A^k / (4i + k)! is evaluated by Paterson and Stockmeyer's
    scheme: A^2, A^3, A^4 and three Horner products in A^4, the four B_i
    from one real product with ``_TAYLOR_BLOCKS``; s squarings follow.
    ``powers`` is a (4, d, d, P) work buffer whose slot 0 holds the identity.
    """
    nu = np.abs(a).sum(axis=0).max()
    s = math.ceil(math.log2(nu / _TAYLOR_THETA)) if nu > _TAYLOR_THETA else 0
    np.multiply(a, 0.5**s, out=powers[1])
    powers[2] = _mm(powers[1], powers[1])
    powers[3] = _mm(powers[2], powers[1])
    a4 = _mm(powers[2], powers[2])
    blocks = (_TAYLOR_BLOCKS @ powers.reshape(4, -1).view(float)).view(complex)
    blocks = blocks.reshape(powers.shape)
    e = blocks[3]
    for i in (2, 1, 0):
        e = _mm(e, a4)
        e += blocks[i]
    for _ in range(s):
        e = _mm(e, e)
    return e


def _chunk_map_sums(model, b, dt_sub, boundary, pulses=None):
    """One chunk's sums (not means) of the maps at the substep boundaries, for :func:`_ensemble`.

    ``b`` holds the frozen noise values, shaped (P, n_ch, n_sub); for a
    diagonal model it holds each segment's noise integral instead, shaped
    (P, n_ch, n_seg) with one segment per boundary. The model's structure
    alone picks one of three step kernels: a diagonal model scales the rows
    of its (d, d, P) propagators by one phase factor per segment, any other
    qubit multiplies unit quaternions, and any other model carries
    its (d, d, P) propagators with the path axis last, multiplied by one
    :func:`_expm_paths` step per substep. Each step is unitary to rounding,
    so the summed maps stay trace preserving.

    ``pulses``, when given, holds one unitary or None per boundary, applied
    right after it and included in its sum. ``dt_sub`` holds one substep
    length per boundary segment, or one for all.
    """
    d = model.dim
    n_steps = boundary.size
    out = np.empty((n_steps, d * d, d * d), dtype=complex)
    diagonal = model.is_diagonal
    n_paths = b.shape[0]
    dt_seg = np.broadcast_to(dt_sub, boundary.shape)
    pulses = [None] * n_steps if pulses is None else pulses
    if d == 2 and not diagonal:
        # Hermitian op = a0 I + v . sigma with v = Re(B^H vec(op))[1:] / 2; a0
        # only adds a global phase, which cancels in U (x) conj(U)
        ops = np.stack([vec(model.h_system), *map(vec, model.couplings)])
        pv = 0.5 * np.real(ops @ _B.conj())[:, 1:]
        v_sys, v_coup = pv[0], pv[1:]
        # a pulse c0 I + c . sigma = e^{i phi} (w I - i (x, y, z) . sigma) has
        # (c0, i c) = e^{i phi} (w, x, y, z) and det = e^{2 i phi}; the sign the
        # square root leaves open flips q, which leaves q q^T unchanged
        quats = [None if p is None else np.real(np.array([0.5, 0.5j, 0.5j, 0.5j])
                                                * (vec(p) @ _B.conj()) / np.sqrt(np.linalg.det(p)))
                 for p in pulses]
        q_cum = np.zeros((4, n_paths))
        q_cum[0] = 1.0
        grams = np.empty((n_steps, 4, 4))
        start = 0
        for pos, end in enumerate(boundary):
            v = np.einsum("ak,paj->kjp", v_coup, b[:, :, start:end + 1])
            v += v_sys[:, None, None]
            q_cum = _quat_mul(_su2_segment(v, dt_seg[pos]), q_cum)
            if quats[pos] is not None:
                q_cum = _quat_mul(quats[pos], q_cum)
            grams[pos] = q_cum @ q_cum.T
            start = end + 1
        return (grams.reshape(n_steps, 16) @ _GRAM_TO_SUPEROP.T).reshape(n_steps, 4, 4)

    u = np.broadcast_to(np.eye(d, dtype=complex)[:, :, None], (d, d, n_paths)).copy()
    if diagonal:
        # segment k multiplies row r of every U by exp(-i dphi[k, r]), with
        # dphi the segment's phase integral: hdiag times its duration plus
        # the couplings applied to its noise integral b[:, :, k]. Row 0's
        # factor is a global phase of the path, which cancels in
        # U (x) conj(U), so it is divided out of every row and row 0 is
        # never scaled
        hdiag, zdiag = _diag_parts(model)
        starts = np.concatenate([[0], boundary[:-1] + 1])
        durations = dt_seg * (boundary + 1 - starts)
        dphi = np.einsum("pak,ar->krp", b, zdiag[:, 1:] - zdiag[:, :1]) \
            + np.multiply.outer(durations, hdiag[1:] - hdiag[0])[:, :, None]
        factors = np.exp(-1.0j * dphi)
    else:
        ops = np.stack(model.couplings).reshape(-1, d * d).T
        h = model.h_system.reshape(-1, 1)
        powers = np.empty((4, d, d, n_paths), dtype=complex)
        powers[0] = np.eye(d)[:, :, None]
    start = 0
    for pos, end in enumerate(boundary):
        if diagonal:
            u[1:] *= factors[pos][:, None, :]
        else:
            for j in range(start, end + 1):
                a = (-1.0j * dt_seg[pos]) * (h + ops @ b[:, :, j].T)
                u = _mm(_expm_paths(a.reshape(d, d, n_paths), powers), u)
        if pulses[pos] is not None:
            u = (pulses[pos] @ u.reshape(d, -1)).reshape(u.shape)
        # sum_p U (x) conj(U) is the Gram matrix of the vec(U_p), reordered
        flat = u.reshape(d * d, n_paths)
        gram = (flat @ flat.conj().T).reshape(d, d, d, d)
        out[pos] = gram.transpose(0, 2, 1, 3).reshape(d * d, d * d)
        start = end + 1
    return out


def _cv_generators(model, dt_sub, midpoints):
    """Interaction-picture noise generators, one per (channel, substep).

    g[a, j] = dt_sub * S_free(s_j)^H (-i [sigma_a, .]) S_free(s_j) with s_j
    the substep midpoint. These are the linear-response coefficients of the
    exact per-path map with respect to the frozen noise values.
    """
    lv = np.stack([-1.0j * commutator_superop(c) for c in model.couplings])
    s = _free_superops(model.h_system, midpoints)
    return dt_sub * (s.conj().swapaxes(-1, -2) @ lv[:, None] @ s)


def _cv_corrections(model, g, bbar, delta_m, boundary, dt):
    """Second-order map functional evaluated on the sampled-moment excess.

    Sums, over substeps up to each boundary,

        sum_J bbar_J g_J
      + sum_{j > j'} sum_{a a'} dM[(a,j),(a',j')] g_{a j} g_{a' j'}
      + (1/2) sum_j sum_{a a'} dM[(a,j),(a',j)] g_{a j} g_{a' j}

    and left-multiplies by the free map at dt, 2 dt, ... for the successive
    boundaries. Subtracting this from the raw ensemble mean removes the
    sampling fluctuation of the first and second noise moments while leaving
    the expectation untouched. ``delta_m``, shaped (n_ch, n_sub, n_ch, n_sub),
    is overwritten by its time-ordered weighting.
    """
    n_ch, n_sub = g.shape[:2]
    delta_m *= (np.tril(np.ones((n_sub, n_sub)), -1) + 0.5 * np.eye(n_sub))[:, None, :]
    # real weights act on the real and imaginary parts alike, so the
    # (n_ch n_sub)^2 weight matrix is never copied to complex
    g_flat = g.reshape(n_ch * n_sub, -1).view(float)
    inner = (delta_m.reshape(g_flat.shape[0], -1) @ g_flat).view(complex).reshape(g.shape)
    acc = np.cumsum((g @ inner + bbar[:, :, None, None] * g).sum(axis=0), axis=0)
    return _free_superops(model.h_system, dt * np.arange(1, len(boundary) + 1)) @ acc[boundary]


def _chunks(sampler, n_traj, seed, chunk_size, antithetic=False):
    """Noise draws of an ensemble, chunk by chunk.

    Chunk c draws up to ``chunk_size`` paths from its own generator,
    ``SeedSequence((seed, c))``, so a fixed (seed, chunk_size) gives
    bit-stable draws. With ``antithetic`` every draw is followed by its
    sign-flipped mirror and n_traj counts both, so it must be even. Yields
    (draws, paths): the drawn paths and the paths to propagate.
    """
    _check_counts(chunk_size=chunk_size)
    if antithetic and n_traj % 2:
        raise ValueError("antithetic sampling needs an even n_traj")
    n_draw = n_traj // 2 if antithetic else n_traj
    for chunk_idx, done in enumerate(range(0, n_draw, chunk_size)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk_idx))))
        draws = sampler.sample(rng, min(chunk_size, n_draw - done))
        yield draws, np.concatenate([draws, -draws], axis=0) if antithetic else draws


def _check_counts(**counts):
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _ensemble(model, segments, n_traj, substeps, seed, chunk_size,
              antithetic=False, collect_chunk_means=False, control_variate=False):
    """The (n_seg, d^2, d^2) maps after each segment, and the raw chunk means if asked.

    Segment k = (duration_k, pulse_k) evolves for duration_k in ``substeps``
    substeps, noise frozen at the midpoints start_k + (j + 0.5) dt_k with
    dt_k = duration_k / substeps, then applies pulse_k (a unitary or None).
    """
    d = model.dim
    n_seg = len(segments)
    durations = np.array([duration for duration, _ in segments])
    pulses = [pulse for _, pulse in segments]
    dt_seg = durations / substeps
    starts = np.concatenate([[0.0], np.cumsum(durations)])[:-1]
    midpoints = (starts[:, None] + (np.arange(substeps) + 0.5) * dt_seg[:, None]).ravel()
    windows = np.repeat(np.diag(dt_seg), substeps, axis=0) if model.is_diagonal else None
    sampler = GaussianPathSampler(model.noise, midpoints, windows)
    boundary = substeps * np.arange(1, n_seg + 1) - 1

    n_ch = model.noise.n_channels
    n_col = n_seg if model.is_diagonal else midpoints.size  # drawn values per channel
    n_flat = n_ch * n_col
    sum_b, sum_gram = np.zeros(n_flat), np.zeros((n_flat, n_flat))
    acc = np.zeros((n_seg, d * d, d * d), dtype=complex)
    chunk_means = []
    for draws, b in _chunks(sampler, n_traj, seed, chunk_size, antithetic):
        contrib = _chunk_map_sums(model, b, dt_seg, boundary, pulses)
        acc += contrib
        if control_variate:
            # a mirrored pair [x; -x] has twice the Gram matrix of x and sums to 0
            flat = draws.reshape(draws.shape[0], n_flat)
            sum_gram += (2.0 if antithetic else 1.0) * (flat.T @ flat)
            if not antithetic:
                sum_b += flat.sum(axis=0)
        if collect_chunk_means:
            chunk_means.append(contrib / b.shape[0])

    maps = acc / n_traj
    if control_variate:
        # the correction assumes a uniform, pulse-free grid: every segment
        # lasts durations[0] and applies no pulse. A diagonal model corrects
        # on its drawn integrals, one per segment; its generators commute
        # with h_system, so they are constant in time and act on whole integrals
        if model.is_diagonal:
            g, cv_boundary = _cv_generators(model, 1.0, np.zeros(n_seg)), np.arange(n_seg)
        else:
            g, cv_boundary = _cv_generators(model, dt_seg[0], midpoints), boundary
        bbar = (sum_b / n_traj).reshape(n_ch, n_col)
        delta_m = (sum_gram / n_traj - sampler.covariance()).reshape((n_ch, n_col) * 2)
        maps -= _cv_corrections(model, g, bbar, delta_m, cv_boundary, durations[0])
    return maps, chunk_means


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
        Noise-freezing subdivisions per map step. A diagonal model draws
        each step's noise integral directly, by the midpoint rule over
        these subdivisions, so they still set its dt_sub^2 bias.
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
        Chunks are equal-weight in that array; when using it, make the
        drawn paths (n_traj, or n_traj / 2 with ``antithetic`` pairs)
        divisible by chunk_size, or the last chunk holds fewer paths. Chunk
        means are raw, without the control-variate correction.
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
    _check_counts(n_steps=n_steps, n_traj=n_traj, substeps=substeps)
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    maps, chunk_means = _ensemble(model, [(float(dt), None)] * n_steps, n_traj, substeps,
                                  seed, chunk_size, antithetic, collect_chunk_means,
                                  control_variate)
    if collect_chunk_means:
        return list(maps), np.array(chunk_means)
    return list(maps)


def simulate_pulsed_process(model, segments, n_cycles, n_traj, substeps=2,
                            seed=0, chunk_size=1024):
    """Ensemble maps at cycle boundaries of a pulsed sequence.

    ``segments`` is a sequence of ``(duration, pulse)`` pairs run in order
    within each cycle: free evolution under the noisy Hamiltonian for
    ``duration`` in ``substeps`` frozen-noise substeps, then the
    instantaneous ``pulse`` (or None). Any noise model is accepted; each
    pulse must be a d x d unitary. The cycles run as one flat list of
    segments through the driver of :func:`simulate_process`, on its midpoint
    grid, step kernels and chunk seeding, so one pulse-free segment of dt
    per cycle gives its maps bit for bit. Antithetic pairs and the control
    variate are not offered here.

    Returns a list of n_cycles superoperators, one per completed cycle.
    """
    _check_counts(n_cycles=n_cycles, n_traj=n_traj, substeps=substeps)
    if not segments:
        raise ValueError("segments must hold at least one (duration, pulse) pair")
    for i, (duration, _) in enumerate(segments):
        if not 0 <= duration < math.inf:
            raise ValueError(f"segment {i}: duration must be finite and >= 0, got {duration}")
    d = model.dim
    pulses = [None if s[1] is None else np.asarray(s[1], dtype=complex) for s in segments]
    for i, pulse in enumerate(pulses):
        if pulse is not None and not (pulse.shape == (d, d) and np.linalg.norm(
                pulse @ pulse.conj().T - np.eye(d)) <= 1e-10):
            raise ValueError(f"segment {i}: pulse must be a {d}x{d} unitary")
    cycle = [(float(s[0]), pulse) for s, pulse in zip(segments, pulses)]
    maps, _ = _ensemble(model, cycle * n_cycles, n_traj, substeps, seed, chunk_size)
    return list(maps[len(segments) - 1::len(segments)])


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
