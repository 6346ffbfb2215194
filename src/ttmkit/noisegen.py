"""Stationary colored Gaussian noise: correlation models and path sampling.

Noise enters the simulator as a vector of real classical processes B_a(t),
jointly Gaussian, zero mean, stationary, with exponentially damped cosine
correlations.
"""

import math
from dataclasses import dataclass

import numpy as np

# eigh of the covariance over all drawn values (channels x time points, or
# channels x segments for segment integrals) scales cubically and peaks at
# about 5 N^2 doubles (about 640 MiB at this side); the cap keeps a
# misconfigured grid from silently eating minutes and memory.
_MAX_COV_SIDE = 4096
# size of a negative covariance eigenvalue, relative to the largest |eigenvalue|,
# that counts as not PSD
_PSD_TOL = 1e-10
# largest |cross - cross^T| entry, relative to the largest |cross| entry, that
# still counts as symmetric
_SYM_TOL = 1e-8
# |mu t| below which phase_variance sums a Taylor series instead of its
# closed form, which above it stays within about 2 eps / |mu t|^2 (4.4e-12)
# of the value; 7 terms leave a truncation below 1e-16 of the value there
_SERIES_BELOW = 1e-2
_SERIES_TERMS = 7


def _is_symmetric(cross):
    """Whether ``cross`` is symmetric to ``_SYM_TOL`` of its largest |entry|, at any scale."""
    return np.abs(cross - cross.T).max(initial=0.0) <= _SYM_TOL * np.abs(cross).max(initial=0.0)


class CovarianceCapError(ValueError):
    """A sampler with more drawn values per path than the 4096 cap."""


class IndefiniteCovarianceError(ValueError):
    """A noise model whose covariance over the sampler's grid is not PSD."""


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean stationary Gaussian noise on one or more channels.

    Parameters
    ----------
    kappas : tuple of float
        Per-channel correlation decay rates.
    omegas : tuple of float
        Per-channel modulation frequencies of the correlation function.
    cross : ndarray, shape (n, n)
        Symmetric amplitude matrix. The diagonal entry ``cross[a, a]`` is
        the coupling strength (variance) of channel a; off-diagonal entries
        set equal-time cross-correlations.

    Notes
    -----
    The cross-channel correlation is

        C_ab(tau) = cross[a, b] exp(-kappa_ab |tau|) cos(omega_ab tau)

    where kappa_ab and omega_ab are arithmetic means of the channel rates.
    The resulting space-time covariance is not automatically positive
    semidefinite for arbitrary ``cross``; the sampler checks and refuses
    inconsistent models.
    """

    kappas: tuple
    omegas: tuple
    cross: np.ndarray

    def __post_init__(self):
        cross = np.atleast_2d(np.asarray(self.cross, dtype=float))
        object.__setattr__(self, "cross", cross)
        object.__setattr__(self, "kappas", tuple(float(k) for k in np.atleast_1d(self.kappas)))
        object.__setattr__(self, "omegas", tuple(float(w) for w in np.atleast_1d(self.omegas)))
        n = len(self.kappas)
        if len(self.omegas) != n or cross.shape != (n, n):
            raise ValueError("kappas, omegas and cross disagree on the channel count")
        if not _is_symmetric(cross):
            raise ValueError("cross amplitude matrix must be symmetric")

    @property
    def n_channels(self):
        return len(self.kappas)

    @classmethod
    def single(cls, coupling, kappa, omega=0.0):
        """One channel with C(tau) = coupling * exp(-kappa|tau|) cos(omega tau)."""
        return cls(kappas=(kappa,), omegas=(omega,), cross=np.array([[float(coupling)]]))

    def correlation(self, tau):
        """Correlation matrix C(tau), shape ``tau.shape + (n, n)``, built in place."""
        t = np.asarray(tau, dtype=float)[..., None, None]
        kab, wab = (0.5 * np.add.outer(r, r) for r in (self.kappas, self.omegas))
        c = np.abs(t, out=np.empty(t.shape[:-2] + kab.shape))
        np.exp(np.multiply(c, -kab, out=c), out=c)
        c *= self.cross
        arg = wab * t
        c *= np.cos(arg, out=arg)
        return c

    def correlation_entry(self, a, b, tau):
        """Scalar-channel correlation C_ab(tau) with ``tau`` any ndarray."""
        return self.correlation(tau)[..., a, b]

    def _entry(self, a, b):
        # amplitude, decay rate and modulation of C_ab; b None means b = a
        b = a if b is None else b
        return (self.cross[a, b], 0.5 * (self.kappas[a] + self.kappas[b]),
                0.5 * (self.omegas[a] + self.omegas[b]))

    def phase_variance(self, t, a=0, b=None):
        """Double time integral Phi_ab(t) = int_0^t int_0^t C_ab(s - s') ds ds'.

        Equals 2 * int_0^t (t - s) C_ab(s) ds by stationarity, which with
        mu = kappa_ab - i omega_ab and x = mu t is 2 Re(t^2 f(x)) times
        cross[a, b], f(x) = (x - 1 + exp(-x)) / x^2. The closed form of f
        loses about eps / |x|^2 of its value to cancellation, so below
        |x| = 1e-2 f comes from its Taylor series sum_k (-x)^k / (k + 2)!.
        """
        t = np.asarray(t, dtype=float)
        amp, kab, wab = self._entry(a, b)
        mu = kab - 1.0j * wab
        if abs(mu) < 1e-300:
            return amp * t * t
        x = mu * t
        small = np.abs(x) < _SERIES_BELOW
        val = np.empty(x.shape, dtype=complex)
        ts = t[~small]
        val[~small] = ts / mu - (1.0 - np.exp(-mu * ts)) / mu**2
        xs = x[small]
        series = np.zeros_like(xs)
        for k in range(_SERIES_TERMS - 1, -1, -1):
            series = series * -xs + 1.0 / math.factorial(k + 2)
        val[small] = t[small] ** 2 * series
        return 2.0 * amp * np.real(val)

    def spectral_density(self, omega, a=0, b=None):
        """S_ab(omega) = int_-inf^inf C_ab(tau) exp(i omega tau) d tau.

        Closed form: a pair of Lorentzians.
        """
        omega = np.asarray(omega, dtype=float)
        amp, kab, wab = self._entry(a, b)
        return amp * kab * (1.0 / (kab**2 + (omega - wab) ** 2)
                            + 1.0 / (kab**2 + (omega + wab) ** 2))


def _segment_covariance(model, ends):
    """Cov(I_a,j, I_b,k) of the segment integrals, shaped (n_ch, m, n_ch, m).

    Equals minus half the second difference of Phi_ab over the edges 0,
    ends[0], ..., ends[-1], but that difference loses (t_n / dt)^2 of each
    entry to cancellation, enough to turn slow noise on a fine grid
    indefinite. Each entry is built to rounding instead: Phi_ab(L_j) on the
    diagonal, and for distinct segments of lengths L_j, L_k a gap g apart,
    C_ab(tau) = cross[a, b] Re exp(-mu |tau|) factorizes the double integral
    into cross[a, b] Re(exp(-mu g) G_j G_k), G = (1 - exp(-mu L)) / mu.
    """
    n, m = model.n_channels, ends.size
    edges = np.concatenate([[0.0], ends])
    starts, stops = edges[:-1], edges[1:]
    lengths = stops - starts
    gaps = np.maximum(starts[None, :] - stops[:, None], starts[:, None] - stops[None, :])
    cov = np.empty((n, m, n, m))
    for a, b in np.ndindex(n, n):
        amp, kab, wab = model._entry(a, b)
        mu = kab - 1.0j * wab
        g = lengths if abs(mu) < 1e-300 else -np.expm1(-mu * lengths) / mu
        block = np.exp(np.multiply(gaps, -mu))
        block *= g[:, None]
        block *= g[None, :]
        np.multiply(np.real(block), amp, out=cov[a, :, b])
        cov[a, :, b][np.diag_indices(m)] = model.phase_variance(lengths, a, b)
    return cov


class GaussianPathSampler:
    """Exact sampler for jointly Gaussian channel values on a fixed time grid.

    Builds the full covariance over every drawn (channel, time) value and
    factorizes it once; each draw is then a matrix product. Exactness on
    the grid matters more here than asymptotic cost because the grids are
    short (hundreds of points) while the path counts are large. The build
    peaks inside ``np.linalg.eigh`` at about 5 N^2 doubles for N = n_channels
    * n_times (its input, LAPACK's copy and 2 N^2 of workspace, and the
    eigenvectors): about 35 MiB at N = 960 and 640 MiB at the 4096 cap. A
    covariance that is not positive semidefinite beyond rounding, relative
    to its largest |eigenvalue|, raises :class:`IndefiniteCovarianceError`.

    By default each draw holds the values B_a(t_i) at ``times``. With
    ``integrals``, ``times`` are the ends t_1 <= ... <= t_n of consecutive
    segments starting at t_0 = 0, and each draw holds the exact segment
    integrals I_a,k = int B_a over [t_(k-1), t_k], whose covariance follows
    from :meth:`NoiseModel.phase_variance` Phi_ab:

        Cov(I_a,j, I_b,k) = (Phi_ab(|t_k - t_(j-1)|) + Phi_ab(|t_(k-1) - t_j|)
                             - Phi_ab(|t_(k-1) - t_(j-1)|) - Phi_ab(|t_k - t_j|)) / 2

    and is built entry by entry to rounding, since the second difference
    cancels badly for slow noise on fine segments. A draw then costs one value per channel and segment, with no grid
    inside the segments and no discretisation bias.
    """

    def __init__(self, model, times, *, integrals=False):
        self.model = model
        self.times = np.asarray(times, dtype=float)
        n = model.n_channels
        m = self.times.size
        if n * m > _MAX_COV_SIDE:
            what = "segments" if integrals else "time points"
            raise CovarianceCapError(f"covariance side {n * m} (channels x {what}) exceeds "
                                     f"{_MAX_COV_SIDE}; coarsen the grid")
        # cov[(a, i), (b, j)], our one N^2 array while eigh runs
        if integrals:
            cov = _segment_covariance(model, self.times)
        else:
            cov = model.correlation(self.times[:, None] - self.times[None, :]).transpose(
                2, 0, 3, 1)
        cov = cov.reshape(n * m, n * m)
        cov = 0.5 * (cov + cov.T)
        w, v = np.linalg.eigh(cov)
        del cov
        if w[0] < -_PSD_TOL * max(-w[0], w[-1]):
            raise IndefiniteCovarianceError(
                f"noise model covariance over the time grid is not positive semidefinite "
                f"(min eigenvalue {w[0]:.3e}, max {w[-1]:.3e})")
        # draws are z @ factor.T with z standard normal over the n * m values
        self._factor = np.multiply(v, np.sqrt(np.clip(w, 0.0, None)), out=v)
        self._shape = (n, m)

    def sample(self, rng, n_paths):
        """Draw paths, returned with shape (n_paths, n_channels, n_times)."""
        z = rng.standard_normal((n_paths, self._factor.shape[1]))
        return (z @ self._factor.T).reshape((n_paths,) + self._shape)

    def covariance(self):
        """The exact covariance realized by :meth:`sample`, channel-major.

        Index (a, i) flattens to a * n_times + i. Equals the model covariance
        of the grid values or of the segment integrals, up to the PSD
        eigenvalue clip applied at construction.
        """
        return self._factor @ self._factor.T
