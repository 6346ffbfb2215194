"""Ensemble propagation under classical colored noise.

Each trajectory evolves under H(t) = h_system + sum_a B_a(t) coupling_a
with B drawn from a :class:`~ttmkit.noisegen.NoiseModel`. The ensemble-averaged
dynamical maps

    E_k = < U(k dt) (x) conj(U(k dt)) >

are trace preserving for every sample size because each summand is a
unitary conjugation; no per-map renormalization is ever needed.

When h_system and every coupling commute pairwise (a purely longitudinal
model, or x noise on an unbiased pair), a segment of length T between map
boundaries or pulses propagates by U = exp(-i (h_system T + sum_a I_a c_a)),
which depends on the noise only through its exact integrals I_a over the
segment. Such runs draw those integrals, one value per channel and segment
(:class:`~ttmkit.noisegen.GaussianPathSampler` with ``integrals``), and
scale each path's propagator by one diagonal phase factor per segment in
the operators' joint eigenbasis Q, with pulses rotated to Q^H P Q and the
summed maps rotated back once; ``substeps`` does not reach them. Any other
model freezes the noise at substep midpoints, so every per-path propagator
is an ordered product of piecewise-constant steps, and the model's
structure picks one of two step kernels for that product. Qubit-local
models carry each qubit's propagator as its Cayley-Klein pair (alpha, beta),
the first column of U = [[alpha, -conj(beta)], [beta, conj(alpha)]] in
SU(2) (up to the global phase, which cancels in the maps), so a product of
two costs four complex multiplies. A lone qubit always qualifies; qubits
qualify when h_system and every coupling have no Pauli component of weight
2 or more above 1e-14 (no zz coupling, say) and the run has no pulses. Each
path's U is then the tensor product of its qubits' factors, built from the
pairs at every map boundary. Any other model keeps all propagators of a
chunk in one (d, d, P) array, path axis last, and takes each substep's
exp(-i H tau) for every path at once as a scaled-and-squared degree-15
Taylor polynomial, with no eigendecomposition; each step is unitary to
rounding. All three kernels hand their (d, d, P) propagators to one path
sum: sum_p U_p (x) conj(U_p) is the Gram matrix of the vec(U_p), reordered.

Both simulators hand one private driver, :func:`_ensemble`, a flat list of
(duration, pulse) segments: n_steps pulse-free segments of dt, or a pulse
sequence n_cycles times over. It owns the route (segment integrals or the
midpoint grid), the sampler, the seeded chunk loop with its antithetic
pairs, chunk means and control variate.
An antithetic run whose model some Pauli string P maps onto its mirror
(P h_system P = h_system, P c P = -c for every coupling; see :func:`_mirror`)
propagates only the drawn half of each chunk: U(-B) = P U(B) P, so the
mirrored half's sum is Pi S Pi^H of the drawn half's sum S, with
Pi = P (x) conj(P). The transverse qubit, unbiased z noise and x noise on an
unbiased pair have such a P; other models, and pulsed runs, which are never
antithetic, propagate every path.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .liouville import (_free_superops, _pauli_columns, commutator_superop, pauli_string,
                        to_choi, unitary_superop, vec)
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


def _phase_frame(model):
    """(Q, Q^H model Q) when h_system and every coupling commute pairwise, else None.

    Q, a joint eigenbasis, is None (the identity) for a diagonal model and
    otherwise the eigenbasis of a fixed generic combination of the
    operators. An accidental degeneracy of that combination can mix joint
    eigenvectors; then some rotated operator is off-diagonal beyond 1e-10
    and the result is None.
    """
    if model.is_diagonal:
        return None, model
    ops = (model.h_system,) + model.couplings
    norms = [np.linalg.norm(op) for op in ops]
    if any(np.linalg.norm(a @ b - b @ a) > 1e-14 * na * nb
           for (a, na), (b, nb) in itertools.combinations(zip(ops, norms), 2)):
        return None
    _, q = np.linalg.eigh(sum(math.sqrt(k + 2.0) * op for k, op in enumerate(ops)))
    rotated = [q.conj().T @ op @ q for op in ops]
    diag = [np.diag(np.real(np.diagonal(r))) for r in rotated]
    if any(np.linalg.norm(r - dr) > 1e-10 * n for r, dr, n in zip(rotated, diag, norms)):
        return None
    return q, SystemModel(h_system=diag[0], couplings=tuple(diag[1:]), noise=model.noise)


def _su2_mul(a, b):
    """Product a b of SU(2) elements given as Cayley-Klein pairs (alpha, beta)."""
    return a[0] * b[0] - a[1].conj() * b[1], a[1] * b[0] + a[0].conj() * b[1]


def _su2_segment(v, dt_sub):
    """Time-ordered product of exp(-i v_j . sigma dt_sub) over axis 1 of v (3, m, P).

    Each step is the pair (cos t - i s v_z, s v_y - i s v_x) with
    t = |v| dt_sub and s = sin(t) / |v|; the m steps are multiplied
    pairwise, later steps on the left.
    """
    norm = np.sqrt(np.einsum("kjp,kjp->jp", v, v))
    theta = norm * dt_sub
    s = np.sin(theta)
    np.divide(s, norm, out=s, where=norm > 0)  # where norm = 0, v = 0 as well
    alpha, beta = np.cos(theta) - 1j * (s * v[2]), s * v[1] - 1j * (s * v[0])
    while alpha.shape[0] > 1:
        m = alpha.shape[0]
        pairs = _su2_mul((alpha[1::2], beta[1::2]), (alpha[0:m - 1:2], beta[0:m - 1:2]))
        if m % 2:
            pairs = [np.concatenate([x, y[m - 1:]]) for x, y in zip(pairs, (alpha, beta))]
        alpha, beta = pairs
    return alpha[0], beta[0]


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


def _local_bloch_vectors(model):
    """Each qubit's Bloch vectors of h_system and of the couplings, or None.

    A Hermitian op on n qubits is sum_P c_P P over Pauli strings, with
    c = Re(B^H vec(op)) / 2^n for the columns B of the vec(P)
    (:func:`~ttmkit.liouville._pauli_columns`). The model is qubit-local
    when every c_P of weight 2 or more is 0 (to 1e-14) for every op: then
    returns v_sys (n, 3) and v_coup (n, n_ch, 3), qubit q's (x, y, z)
    components, the qubit labelled q + 1 being the q-th tensor factor. The
    identity part only adds a global phase. None when d is not 2^n or a
    term of weight 2 or more is present.
    """
    n = model.dim.bit_length() - 1
    if model.dim != 1 << n:
        return None
    ops = np.stack([vec(model.h_system), *map(vec, model.couplings)])
    c = np.real(ops @ _pauli_columns(n).conj()) / 2**n
    # the column of Pauli k (x, y, z = 1, 2, 3) on qubit q, identity elsewhere
    local = [[k * 4 ** (n - 1 - q) for k in (1, 2, 3)] for q in range(n)]
    if np.abs(np.delete(c, [0, *np.ravel(local)], axis=1)).max(initial=0.0) > 1e-14:
        return None
    # C order: the kernel's einsum lays out its step vectors after these rows
    v = np.ascontiguousarray(c[:, local].transpose(1, 0, 2))  # (n, 1 + n_ch, 3)
    return v[:, 0], v[:, 1:]


def _chunk_map_sums(model, b, tau, pulses, stride=1):
    """One chunk's sums (not means) of the maps after every ``stride``-th segment.

    ``b`` holds the drawn noise values, shaped (P, n_ch, n_seg, m): m frozen
    values per segment, each held for the substep length ``tau[k]`` of its
    segment k. A diagonal model takes one value per segment (m = 1), the
    segment's exact noise integral, and ``tau[k]`` is then the whole segment
    (:func:`_ensemble` hands it a commuting model rotated to diagonal). The
    model's structure alone picks one of three step kernels. A diagonal model
    scales the rows of its (d, d, P) propagators by one phase factor per
    segment. A qubit-local model (:func:`_local_bloch_vectors`: a lone qubit,
    or qubits whose h_system and couplings are sums of single-qubit terms,
    run without pulses) multiplies one Cayley-Klein pair (alpha, beta) of
    SU(2) per qubit and path, every qubit's pairs stacked on the path axis,
    and builds each path's U = U_1 (x) ... (x) U_n from them at every
    segment end. Any other model carries its (d, d, P) propagators with the
    path axis last, multiplied by one :func:`_expm_paths` step per substep.
    Every kernel hands the segment's (d, d, P) propagators to one path sum,
    the Gram matrix of the vec(U_p). Each step is unitary to rounding, so the
    summed maps stay trace preserving. ``pulses`` holds one unitary or None
    per segment, applied at its end and included in its sum. Only the ends
    of segments stride - 1, 2 stride - 1, ... form a sum, for :func:`_ensemble`.
    """
    d = model.dim
    n_paths, _, n_seg, m = b.shape
    diagonal = model.is_diagonal
    local = None if diagonal else _local_bloch_vectors(model)
    su2 = local is not None and (d == 2 or all(p is None for p in pulses))
    out = np.empty((n_seg // stride, d * d, d * d), dtype=complex)
    u = np.broadcast_to(np.eye(d, dtype=complex)[:, :, None], (d, d, n_paths)).copy()
    if su2:
        v_sys, v_coup = local
        n = len(v_sys)
        # a pulse p = e^{i phi} U has det p = e^{2 i phi}, so its first column
        # over sqrt(det p) is U's pair; the sign the root leaves open flips
        # U, which cancels in U (x) conj(U) (only a lone qubit has pulses here)
        pulse_pairs = [None if p is None else p[:, 0] / np.sqrt(np.linalg.det(p)) for p in pulses]
        # qubit q's pairs fill entries q P .. (q + 1) P - 1 of the path axis
        alpha, beta = np.ones(n * n_paths, dtype=complex), np.zeros(n * n_paths, dtype=complex)
    elif diagonal:
        # segment k multiplies row r of every U by exp(-i dphi[k, r]), with
        # dphi the segment's phase integral: hdiag times its duration plus
        # the couplings applied to its noise integral b[:, :, k]. Row 0's
        # factor is a global phase of the path, which cancels in
        # U (x) conj(U), so it is divided out of every row and row 0 is
        # never scaled
        hdiag, zdiag = _diag_parts(model)
        dphi = np.einsum("pak,ar->krp", b[..., 0], zdiag[:, 1:] - zdiag[:, :1]) \
            + np.multiply.outer(tau, hdiag[1:] - hdiag[0])[:, :, None]
        factors = np.exp(-1.0j * dphi)
    else:
        ops = np.stack(model.couplings).reshape(-1, d * d).T
        h = model.h_system.reshape(-1, 1)
        powers = np.empty((4, d, d, n_paths), dtype=complex)
        powers[0] = np.eye(d)[:, :, None]
    for k in range(n_seg):
        if su2:
            # concatenate keeps the einsum's memory order, by which the step norms round
            v = np.concatenate([np.einsum("ak,paj->kjp", vq, b[:, :, k]) for vq in v_coup], axis=2)
            for q in range(n):
                v[:, :, q * n_paths:(q + 1) * n_paths] += v_sys[q][:, None, None]
            alpha, beta = _su2_mul(_su2_segment(v, tau[k]), (alpha, beta))
            if pulse_pairs[k] is not None:
                alpha, beta = _su2_mul(pulse_pairs[k], (alpha, beta))
        elif diagonal:
            u[1:] *= factors[k][:, None, :]
        else:
            for j in range(m):
                a = (-1.0j * tau[k]) * (h + ops @ b[:, :, k, j].T)
                u = _mm(_expm_paths(a.reshape(d, d, n_paths), powers), u)
        if pulses[k] is not None and not su2:
            u = (pulses[k] @ u.reshape(d, -1)).reshape(u.shape)
        if (k + 1) % stride:
            continue
        if su2:
            # U_q = [[alpha, -conj(beta)], [beta, conj(alpha)]], shaped (2, 2, n, P)
            uq = np.array([[alpha, -beta.conj()], [beta, alpha.conj()]]).reshape(2, 2, n, n_paths)
            u = uq[:, :, 0]
            for q in range(1, n):
                u = (u[:, None, :, None] * uq[None, :, None, :, q]).reshape(2 << q, 2 << q, n_paths)
        # the Gram matrix of the vec(U_p) is the Choi matrix of sum_p U (x) conj(U)
        flat = u.reshape(d * d, n_paths)
        out[k // stride] = flat @ flat.conj().T
    return to_choi(out)


def _cv_generators(model, dt_sub, midpoints):
    """Interaction-picture noise generators, one per (channel, substep).

    g[a, j] = dt_sub * S_free(s_j)^H (-i [sigma_a, .]) S_free(s_j) with s_j
    the substep midpoint. These are the linear-response coefficients of the
    exact per-path map with respect to the frozen noise values.
    """
    lv = np.stack([-1.0j * commutator_superop(c) for c in model.couplings])
    s = _free_superops(model.h_system, midpoints)
    return dt_sub * (s.conj().swapaxes(-1, -2) @ lv[:, None] @ s)


def _cv_corrections(model, g, bbar, delta_m, n_seg, dt):
    """Second-order map functional evaluated on the sampled-moment excess.

    Sums, over the substeps up to the end of each of ``n_seg`` equal segments,

        sum_J bbar_J g_J
      + sum_{j > j'} sum_{a a'} dM[(a,j),(a',j')] g_{a j} g_{a' j'}
      + (1/2) sum_j sum_{a a'} dM[(a,j),(a',j)] g_{a j} g_{a' j}

    and left-multiplies by the free map at dt, 2 dt, ... for the successive
    segment ends. Subtracting this from the raw ensemble mean removes the
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
    substeps = n_sub // n_seg
    return _free_superops(model.h_system, dt * np.arange(1, n_seg + 1)) @ acc[substeps - 1::substeps]


def _mirror(model):
    """Pi = P (x) conj(P) for a Pauli string P that fixes h_system and flips every coupling.

    Then H(-B) = P H(B) P, so the mirrored path's propagator is
    U(-B) = P U(B) P and its map term is Pi (U (x) conj(U)) Pi^H: the sum
    of an antithetic chunk's mirrors follows from its drawn half's. Only
    d = 2^n has Pauli strings; None when d is not or no string qualifies.
    Each qubit tries Z before X before Y, so a diagonal P comes first when
    one qualifies. P only permutes entries and changes their signs or
    phases, so the test is exact equality.
    """
    n = model.dim.bit_length() - 1
    if model.dim != 1 << n:
        return None
    for label in itertools.islice(itertools.product("IZXY", repeat=n), 1, None):
        p = pauli_string("".join(label))
        if np.array_equal(p @ model.h_system @ p, model.h_system) and all(
                np.array_equal(p @ c @ p, -c) for c in model.couplings):
            return unitary_superop(p)
    return None


def _chunks(sampler, n_traj, seed, chunk_size, antithetic=False):
    """Noise draws of an ensemble, chunk by chunk.

    Chunk c draws up to ``chunk_size`` paths from its own generator,
    ``SeedSequence((seed, c))``, so a fixed (seed, chunk_size) gives
    bit-stable draws. With ``antithetic`` each chunk's draws stand for
    themselves and their sign-flipped mirrors, and n_traj counts both, so
    it must be even and a chunk holds up to ``chunk_size`` draws.
    """
    _check_counts(chunk_size=chunk_size)
    if antithetic and n_traj % 2:
        raise ValueError("antithetic sampling needs an even n_traj")
    n_draw = n_traj // 2 if antithetic else n_traj
    for chunk_idx, done in enumerate(range(0, n_draw, chunk_size)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk_idx))))
        yield sampler.sample(rng, min(chunk_size, n_draw - done))


def _check_counts(**counts):
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _ensemble(model, segments, n_traj, substeps, seed, chunk_size, stride,
              antithetic=False, collect_chunk_means=False, control_variate=False):
    """The (n_seg // stride, d^2, d^2) maps after every ``stride``-th segment, and
    the raw chunk means if asked.

    Segment k = (duration_k, pulse_k) evolves for duration_k, then applies
    pulse_k (a unitary or None). A model whose operators commute
    (:func:`_phase_frame`) draws each segment's exact noise integral and
    takes the phase kernel in its joint eigenbasis; any other model
    evolves in ``substeps`` substeps, noise frozen at the midpoints
    start_k + (j + 0.5) dt_k with dt_k = duration_k / substeps. The control
    variate takes stride 1.
    """
    d = model.dim
    n_seg = len(segments)
    durations = np.array([duration for duration, _ in segments])
    pulses = [pulse for _, pulse in segments]
    frame = _phase_frame(model)
    rotate = None
    if frame is None:
        dt_seg = durations / substeps
        starts = np.concatenate([[0.0], np.cumsum(durations)])[:-1]
        midpoints = (starts[:, None] + (np.arange(substeps) + 0.5) * dt_seg[:, None]).ravel()
        sampler, kernel_model, tau = GaussianPathSampler(model.noise, midpoints), model, dt_seg
    else:
        # one draw per segment: its exact noise integral, for the phase
        # kernel in the joint eigenbasis q
        q, kernel_model = frame
        sampler = GaussianPathSampler(model.noise, np.cumsum(durations), integrals=True)
        tau = durations
        if q is not None:
            pulses = [None if p is None else q.conj().T @ p @ q for p in pulses]
            rotate = unitary_superop(q)

    n_ch, n_col = model.noise.n_channels, sampler.times.size  # n_col values per channel
    n_flat = n_ch * n_col
    sum_b, sum_gram = np.zeros(n_flat), np.zeros((n_flat, n_flat))
    acc = np.zeros((n_seg // stride, d * d, d * d), dtype=complex)
    chunk_means = []
    mirror = _mirror(model) if antithetic else None
    for draws in _chunks(sampler, n_traj, seed, chunk_size, antithetic):
        b = np.concatenate([draws, -draws]) if antithetic and mirror is None else draws
        contrib = _chunk_map_sums(kernel_model, b.reshape(b.shape[:2] + (n_seg, -1)), tau,
                                  pulses, stride)
        if rotate is not None:
            contrib = rotate @ contrib @ rotate.conj().T
        if mirror is not None:
            contrib += mirror @ contrib @ mirror.conj().T
        acc += contrib
        if control_variate:
            # a mirrored pair [x; -x] has twice the Gram matrix of x and sums to 0
            flat = draws.reshape(draws.shape[0], n_flat)
            sum_gram += (2.0 if antithetic else 1.0) * (flat.T @ flat)
            if not antithetic:
                sum_b += flat.sum(axis=0)
        if collect_chunk_means:
            chunk_means.append(contrib / (2 * len(draws) if antithetic else len(draws)))

    maps = acc / n_traj
    if control_variate:
        # the correction assumes a uniform, pulse-free grid: every segment
        # lasts durations[0] and applies no pulse. A commuting model corrects
        # on its drawn integrals, one per segment; its generators commute
        # with h_system, so they are constant in time and act on whole integrals
        g = (_cv_generators(model, dt_seg[0], midpoints) if frame is None
             else _cv_generators(model, 1.0, np.zeros(n_seg)))
        bbar = (sum_b / n_traj).reshape(n_ch, n_col)
        delta_m = (sum_gram / n_traj - sampler.covariance()).reshape((n_ch, n_col) * 2)
        maps -= _cv_corrections(model, g, bbar, delta_m, n_seg, durations[0])
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
        Noise-freezing subdivisions per map step. A model whose h_system
        and couplings commute pairwise draws each step's exact noise
        integral instead, so its maps do not depend on ``substeps``.
    seed : int
        Master seed. Each chunk derives its generator from
        ``SeedSequence((seed, chunk_index))``, so results are independent
        of ``chunk_size`` only chunk by chunk; fixing both gives bit-stable
        output across runs.
    antithetic : bool
        Pair every path with its sign-flipped noise. Exact variance kill
        for observables odd in B, typically large gains for weak coupling.
        When a Pauli string P fixes h_system and flips every coupling, the
        mirrored paths are not propagated: their maps are those of the
        drawn paths conjugated by P, equal to rounding.
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
        has killed the odd orders. Beyond it the variate can add error, and
        nothing warns: on an x-noise pair at variance 0.25 (README) the
        largest map error grew in 8 of 10 seeds; at 0.01 it fell 9-38x.

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
                                  seed, chunk_size, 1, antithetic, collect_chunk_means,
                                  control_variate)
    if collect_chunk_means:
        return list(maps), np.array(chunk_means)
    return list(maps)


def simulate_pulsed_process(model, segments, n_cycles, n_traj, substeps=2,
                            seed=0, chunk_size=1024):
    """Ensemble maps at cycle boundaries of a pulsed sequence.

    ``segments`` is a sequence of ``(duration, pulse)`` pairs run in order
    within each cycle: free evolution under the noisy Hamiltonian for
    ``duration`` (in ``substeps`` frozen-noise substeps, or on the exact
    noise integral when the model's operators commute), then the
    instantaneous ``pulse`` (or None). Any noise model is accepted; each
    pulse must be a d x d unitary. The cycles run as one flat list of
    segments through the driver of :func:`simulate_process`, on its draws,
    step kernels and chunk seeding, so one pulse-free segment of dt per
    cycle gives its maps bit for bit. Antithetic pairs and the control
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
    return list(_ensemble(model, cycle * n_cycles, n_traj, substeps, seed, chunk_size,
                          len(segments))[0])


def dephasing_map(model, t):
    """Exact ensemble map at time t for a purely longitudinal model.

    Gaussian averaging gives, per matrix element (r, c),

        E[(r,c),(r,c)] = exp(-i (h_r - h_c) t) exp(-Var/2),
        Var = sum_ab (z_ar - z_ac)(z_br - z_bc) Phi_ab(t),

    with Phi_ab the double time integral of the noise correlation. This is
    the closed-form counterpart of :func:`simulate_process` in the limit of
    infinitely many trajectories (its runs draw exact step integrals).
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
