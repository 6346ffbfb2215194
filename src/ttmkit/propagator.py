"""Ensemble propagation under classical colored noise.

Each trajectory evolves under H(t) = h_system + sum_a B_a(t) coupling_a
with B drawn from a :class:`~ttmkit.noisegen.NoiseModel`. The ensemble-averaged
dynamical maps

    E_k = < U(k dt) (x) conj(U(k dt)) >

are trace preserving for every sample size because each summand is a
unitary conjugation; no per-map renormalization is ever needed.

Every run draws the exact noise integrals I_a over each interval, and an
interval of length T steps by U = exp(-i (h_system T + sum_a I_a c_a)), its
first-order Magnus term. When h_system and every coupling commute pairwise
(a purely longitudinal model, or x noise on an unbiased pair) that step is
exact, so such runs draw one interval per segment and ``substeps`` never
reaches them. In the operators' joint eigenbasis U is then diagonal between
pulses, and a pulse that is monomial there (a permutation times phases, as
every Pauli string is) only permutes the rows that later phases land on:
the toggling frame, in which a pi pulse flips the sign of the noise. One
loop-free kernel, :func:`_phase_kernel`, sums the phases over segments and
takes one exp per path and row at each map boundary.

Other runs, on ``substeps`` intervals per segment (one for a commuting run
with another pulse, such as a Hadamard), take one of two step kernels
(:func:`_chunk_map_sums`): one SU(2) Cayley-Klein pair per qubit and path
for qubit-local models, or a scaled-and-squared Taylor exponential of every
path's step at once. Both hand their (d, d, P) propagators to one path sum:
sum_p U_p (x) conj(U_p) is the Gram matrix of the vec(U_p), reordered.

Both simulators hand one private driver, :func:`_ensemble`, a flat list of
(duration, pulse) segments: n_steps pulse-free segments of dt, or a pulse
sequence n_cycles times over. It owns the intervals, the sampler, the
seeded chunk loop with its antithetic pairs, chunk means and control
variate. On the step kernels an antithetic run whose model some Pauli
string P maps onto its mirror (P h_system P = h_system, P c P = -c for
every coupling; see :func:`_mirror`; the transverse qubit has P = Z)
propagates only the drawn half of each chunk: U(-I) = P U(I) P, so the
mirrored half's sum is Pi S Pi^H of the drawn half's sum S,
Pi = P (x) conj(P). Other step-kernel runs propagate both halves; the
phase kernel never propagates mirrors.
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


def _su2_segment(v):
    """Time-ordered product of exp(-i v_j . sigma) over axis 1 of v (3, m, P).

    Each step is the pair (cos t - i s v_z, s v_y - i s v_x) with t = |v|
    and s = sin(t) / |v|; the m steps are multiplied pairwise, later steps
    on the left.
    """
    theta = np.sqrt(np.einsum("kjp,kjp->jp", v, v))
    s = np.sin(theta)
    np.divide(s, theta, out=s, where=theta > 0)  # where |v| = 0, v = 0 as well
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

    ``b`` holds the noise integrals (P, n_ch, n_seg, m) over m intervals per
    segment k, each of length ``tau[k]``; an interval steps by
    exp(-i (tau[k] h_system + sum_a I_a c_a)). A qubit-local model
    (:func:`_local_bloch_vectors`: a lone qubit, or pulse-free qubits of
    single-qubit terms) multiplies one SU(2) pair (alpha, beta) per qubit
    and path, all stacked on the path axis, and builds each path's
    U = U_1 (x) ... (x) U_n at every sum. Any other model multiplies its
    (d, d, P) propagators, path axis last, by one :func:`_expm_paths` step
    per interval. The path sum is the Gram matrix of the vec(U_p); each step
    is unitary to rounding, so the maps stay trace preserving. ``pulses``
    holds a unitary or None per segment, applied at its end, inside its sum.
    """
    d = model.dim
    n_paths, _, n_seg, m = b.shape
    local = _local_bloch_vectors(model)
    su2 = local is not None and (d == 2 or all(p is None for p in pulses))
    out = np.empty((n_seg // stride, d * d, d * d), dtype=complex)
    u = np.broadcast_to(np.eye(d, dtype=complex)[:, :, None], (d, d, n_paths)).copy()
    if su2:
        v_sys, v_coup = local
        n = len(v_sys)
        # a pulse p = e^{i phi} U has det p = e^{2 i phi}, so its first column
        # over sqrt(det p), a complex root for real p too, is U's pair; the sign
        # the root leaves open flips U, which cancels in U (x) conj(U) (only a
        # lone qubit has pulses here)
        pulse_pairs = [None if p is None else p[:, 0] / np.sqrt(complex(np.linalg.det(p)))
                       for p in pulses]
        # qubit q's pairs fill entries q P .. (q + 1) P - 1 of the path axis
        alpha, beta = np.ones(n * n_paths, dtype=complex), np.zeros(n * n_paths, dtype=complex)
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
                v[:, :, q * n_paths:(q + 1) * n_paths] += tau[k] * v_sys[q][:, None, None]
            alpha, beta = _su2_mul(_su2_segment(v), (alpha, beta))
            if pulse_pairs[k] is not None:
                alpha, beta = _su2_mul(pulse_pairs[k], (alpha, beta))
        else:
            for j in range(m):
                a = -1.0j * (tau[k] * h + ops @ b[:, :, k, j].T)
                u = _mm(_expm_paths(a.reshape(d, d, n_paths), powers), u)
            if pulses[k] is not None:
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


def _phase_kernel(model, durations, pulses, stride=1, antithetic=False):
    """The loop-free chunk kernel of a commuting run with monomial pulses, else None.

    It maps a chunk's segment integrals (P, n_ch, n_seg) to its map sums
    after every ``stride``-th segment. In the joint eigenbasis q of
    :func:`_phase_frame` segment k scales row r of U by exp(-i dphi[k, r]),
    dphi = h T_k + sum_a I_a z_a. When every q^H P q is monomial (one
    nonzero per row and column, on exact zeros as in :func:`_mirror`), so
    is each toggling frame Q_k = P_k ... P_1, Q_k e_c = lam_c e_sigma(c),
    and U = Q_k D_k after segment k: segment j's phases enter the diagonal
    D_k on rows permuted by Q_(j-1). The kernel sums them, relative to row 0
    (a global phase), over segments and takes exp only where a sum forms.
    The d x d Gram matrix g of D's rows gives sum_p D_p (x) conj(D_p): its
    diagonal is the path count and row 0 the path sums, so only the rest of
    the (d-1) x (d-1) block takes a product. Q_k (x) conj(Q_k) moves entry
    d r + c of g to row d sigma(r) + sigma(c) with the factor
    lam_r conj(lam_c), and unitary_superop(q) rotates back. Rows factor into
    a path-free exp(-i sum h T) and a noise part w, and a mirrored path has
    conj(w): ``antithetic`` sums take 2 Re of the drawn half's. With any
    other pulse (a Hadamard) the result is None, and the run steps each
    segment exactly on its integral through :func:`_chunk_map_sums`.
    """
    frame = _phase_frame(model)
    if frame is None:
        return None
    q, diagonal = frame
    d = model.dim
    rotated = [p if p is None or q is None else q.conj().T @ p @ q for p in pulses]
    if not all(p is None or all((np.count_nonzero(p, axis=i) == 1).all() for i in (0, 1))
               for p in rotated):
        return None
    frames = np.array(list(itertools.accumulate(
        rotated, lambda f, p: f if p is None else p @ f, initial=np.eye(d, dtype=complex))))
    sigma = np.argmax(frames != 0, axis=1)  # (n_seg + 1, d)
    lam = np.take_along_axis(frames, sigma[:, None, :], axis=1)[stride::stride, 0]
    ends = sigma[stride::stride]
    rows = (d * ends[:, :, None] + ends[:, None, :]).reshape(len(ends), -1)
    factors = (lam[:, :, None] * lam[:, None, :].conj()).reshape(len(ends), -1)
    hz = np.vstack(_diag_parts(diagonal))[:, sigma[:-1]]  # (1 + n_ch, n_seg, d)
    hz = hz[:, :, 1:] - hz[:, :, :1]
    a = np.exp(-1.0j * np.cumsum(hz[0] * durations[:, None], axis=0)[stride - 1::stride])
    rotate = None if q is None else unitary_superop(q)

    def sums(b):
        phases = np.einsum("pak,akc->kcp", b, hz[1:], order="C")
        w = np.exp(-1.0j * np.cumsum(phases, axis=0)[stride - 1::stride])  # (n_sums, d - 1, P)
        s, gram = w.sum(axis=2), w @ w.conj().swapaxes(1, 2)
        if antithetic:
            s, gram = 2.0 * s.real, 2.0 * gram.real
        g = np.empty((len(w), d, d), dtype=complex)
        g[:, 1:, 0] = a * s
        g[:, 0, 1:], g[:, 1:, 1:] = g[:, 1:, 0].conj(), a[:, :, None] * a[:, None].conj() * gram
        g[:, range(d), range(d)] = len(b) * (1 + antithetic)
        out = np.zeros((len(w), d * d, d * d), dtype=complex)
        out[np.arange(len(w))[:, None], rows, np.arange(d * d)] = factors * g.reshape(len(w), -1)
        return out if rotate is None else rotate @ out @ rotate.conj().T
    return sums


def _cv_generators(model, times):
    """Interaction-picture noise generators, one per (channel, interval).

    g[a, j] = S_free(s_j)^H (-i [c_a, .]) S_free(s_j), per unit integral of
    channel a over interval j, with s_j the interval's midpoint. These are
    the linear-response coefficients of the per-path map with respect to
    the drawn integrals.
    """
    lv = np.stack([-1.0j * commutator_superop(c) for c in model.couplings])
    s = _free_superops(model.h_system, times)
    return s.conj().swapaxes(-1, -2) @ lv[:, None] @ s


def _cv_corrections(model, g, bbar, delta_m, n_seg, dt):
    """Second-order map functional evaluated on the sampled-moment excess.

    Sums, over the intervals up to the end of each of ``n_seg`` equal segments,

        sum_J bbar_J g_J
      + sum_{j > j'} sum_{a a'} dM[(a,j),(a',j')] g_{a j} g_{a' j'}
      + (1/2) sum_j sum_{a a'} dM[(a,j),(a',j)] g_{a j} g_{a' j}

    and left-multiplies by the free map at dt, 2 dt, ... for the successive
    segment ends. Subtracting this from the raw ensemble mean removes the
    sampling fluctuation of the first and second noise moments while leaving
    the expectation untouched. ``delta_m``, shaped (n_ch, n_int, n_ch, n_int),
    is overwritten by its time-ordered weighting.
    """
    n_ch, n_int = g.shape[:2]
    delta_m *= (np.tril(np.ones((n_int, n_int)), -1) + 0.5 * np.eye(n_int))[:, None, :]
    # real weights act on the real and imaginary parts alike, so the
    # (n_ch n_int)^2 weight matrix is never copied to complex
    g_flat = g.reshape(n_ch * n_int, -1).view(float)
    inner = (delta_m.reshape(g_flat.shape[0], -1) @ g_flat).view(complex).reshape(g.shape)
    acc = np.cumsum((g @ inner + bbar[:, :, None, None] * g).sum(axis=0), axis=0)
    m = n_int // n_seg
    return _free_superops(model.h_system, dt * np.arange(1, n_seg + 1)) @ acc[m - 1::m]


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
    pulse_k (a unitary or None). Every run draws the exact noise integral
    of each interval: one per segment for a model whose operators commute,
    where that step is exact, and ``substeps`` equal intervals per segment
    for any other model. :func:`_phase_kernel` takes commuting runs with
    monomial pulses; the rest step through :func:`_chunk_map_sums`. The
    control variate takes stride 1.
    """
    d = model.dim
    n_seg = len(segments)
    durations = np.array([duration for duration, _ in segments])
    pulses = [pulse for _, pulse in segments]
    commuting = _phase_frame(model) is not None
    m = 1 if commuting else substeps  # intervals per segment
    tau = durations / m
    sampler = GaussianPathSampler(model.noise, np.cumsum(np.repeat(tau, m)))
    kernel = _phase_kernel(model, durations, pulses, stride, antithetic)
    if kernel is None:
        mirror = _mirror(model) if antithetic else None

        def kernel(draws):
            b = np.concatenate([draws, -draws]) if antithetic and mirror is None else draws
            s = _chunk_map_sums(model, b.reshape(b.shape[:2] + (n_seg, m)), tau, pulses, stride)
            return s if mirror is None else s + mirror @ s @ mirror.conj().T

    n_ch, n_col = model.noise.n_channels, sampler.times.size  # n_col values per channel
    n_flat = n_ch * n_col
    sum_b, sum_gram = np.zeros(n_flat), np.zeros((n_flat, n_flat))
    acc = np.zeros((n_seg // stride, d * d, d * d), dtype=complex)
    chunk_means = []
    for draws in _chunks(sampler, n_traj, seed, chunk_size, antithetic):
        contrib = kernel(draws)
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
        # lasts durations[0] and applies no pulse. Generators are taken at
        # the interval midpoints; those of a commuting run commute with
        # h_system, so they are constant and taken at 0
        g = _cv_generators(model, np.zeros(n_seg) if commuting else sampler.times - 0.5 * tau[0])
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
        Equal intervals per map step, each stepped on its exact noise
        integrals, for a model whose operators do not commute (bias figures
        in the README). A model whose h_system and couplings commute
        pairwise draws one integral per step, so ``substeps`` never reaches it.
    seed : int
        Master seed. Each chunk derives its generator from
        ``SeedSequence((seed, chunk_index))``, so results are independent
        of ``chunk_size`` only chunk by chunk; fixing both gives bit-stable
        output across runs.
    antithetic : bool
        Pair every path with its sign-flipped noise. Exact variance kill
        for observables odd in B, typically large gains for weak coupling.
        Mirrored paths are not propagated when the operators commute (their
        phases are the drawn ones conjugated) or a Pauli string P fixes
        h_system and flips every coupling (conjugation by P), to rounding.
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
    ``duration``, then the instantaneous ``pulse`` (a d x d unitary, or
    None). Every run draws exact noise integrals over ``substeps`` equal
    intervals per segment, or over one per segment, whatever ``substeps``
    says, for a model whose operators commute. Such a run is summed by one
    loop-free kernel in the toggling frame of pulses monomial in its joint
    eigenbasis (every Pauli string on a dephasing model); any other pulse
    (a Hadamard) sends each segment through a step kernel as one exact
    interval. The cycles
    run as one flat list of segments through the driver of
    :func:`simulate_process`, on its draws, step kernels and chunk seeding,
    so one pulse-free segment of dt per cycle gives its maps bit for bit.
    Antithetic pairs and the control variate are not offered here.

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
