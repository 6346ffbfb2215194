"""Stationary colored Gaussian noise: correlation models and path sampling.

Noise enters the simulator as a vector of real classical processes B_a(t),
jointly Gaussian, zero mean, stationary, with exponentially damped cosine
correlations.
"""

from dataclasses import dataclass

import numpy as np

# eigh of the space-time covariance scales cubically; this cap keeps a
# misconfigured grid from silently eating minutes.
_MAX_COV_SIDE = 4096
# relative size of a negative covariance eigenvalue that counts as not PSD
_PSD_TOL = 1e-10


class CovarianceCapError(ValueError):
    """A sampler grid with more (channel, time) points than the 4096 cap."""


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
        if not np.allclose(cross, cross.T):
            raise ValueError("cross amplitude matrix must be symmetric")

    @property
    def n_channels(self):
        return len(self.kappas)

    @classmethod
    def single(cls, coupling, kappa, omega=0.0):
        """One channel with C(tau) = coupling * exp(-kappa|tau|) cos(omega tau)."""
        return cls(kappas=(kappa,), omegas=(omega,), cross=np.array([[float(coupling)]]))

    def correlation(self, tau):
        """Correlation matrix C(tau), shape ``tau.shape + (n, n)``."""
        tau = np.asarray(tau, dtype=float)
        k = np.asarray(self.kappas)
        w = np.asarray(self.omegas)
        kab = 0.5 * (k[:, None] + k[None, :])
        wab = 0.5 * (w[:, None] + w[None, :])
        t = tau[..., None, None]
        return self.cross * np.exp(-kab * np.abs(t)) * np.cos(wab * t)

    def correlation_entry(self, a, b, tau):
        """Scalar-channel correlation C_ab(tau) with ``tau`` any ndarray."""
        return self.correlation(tau)[..., a, b]

    def phase_variance(self, t, a=0, b=None):
        """Double time integral Phi_ab(t) = int_0^t int_0^t C_ab(s - s') ds ds'.

        Equals 2 * int_0^t (t - s) C_ab(s) ds by stationarity; closed form.
        """
        if b is None:
            b = a
        t = np.asarray(t, dtype=float)
        amp = self.cross[a, b]
        kab = 0.5 * (self.kappas[a] + self.kappas[b])
        wab = 0.5 * (self.omegas[a] + self.omegas[b])
        mu = kab - 1.0j * wab
        if abs(mu) < 1e-300:
            return amp * t * t
        val = t / mu - (1.0 - np.exp(-mu * t)) / mu**2
        return 2.0 * amp * np.real(val)

    def spectral_density(self, omega, a=0, b=None):
        """S_ab(omega) = int_-inf^inf C_ab(tau) exp(i omega tau) d tau.

        Closed form: a pair of Lorentzians.
        """
        if b is None:
            b = a
        omega = np.asarray(omega, dtype=float)
        amp = self.cross[a, b]
        kab = 0.5 * (self.kappas[a] + self.kappas[b])
        wab = 0.5 * (self.omegas[a] + self.omegas[b])
        return amp * kab * (1.0 / (kab**2 + (omega - wab) ** 2)
                            + 1.0 / (kab**2 + (omega + wab) ** 2))


class GaussianPathSampler:
    """Exact sampler for jointly Gaussian channel values on a fixed time grid.

    Builds the full space-time covariance over (channel, time) pairs and
    factorizes it once; each draw is then a matrix product. Exactness on
    the grid matters more here than asymptotic cost because the grids are
    short (hundreds of points) while the path counts are large.

    ``windows``, an (n_times, n_windows) matrix W, turns each draw into the
    window sums x W of each channel's grid values x. W is folded into the
    factor once, so a draw costs n_windows columns per channel and equals
    the grid draw of the same generator times W in exact arithmetic.
    """

    def __init__(self, model, times, windows=None):
        self.model = model
        self.times = np.asarray(times, dtype=float)
        n = model.n_channels
        m = self.times.size
        if n * m > _MAX_COV_SIDE:
            raise CovarianceCapError(
                f"covariance side {n * m} (channels x time points) exceeds "
                f"{_MAX_COV_SIDE}; coarsen the grid")
        # cov[(a, i), (b, j)] = C_ab(t_i - t_j)
        lags = self.times[:, None] - self.times[None, :]
        cmat = model.correlation(lags)  # (m, m, n, n)
        cov = cmat.transpose(2, 0, 3, 1).reshape(n * m, n * m)
        cov = 0.5 * (cov + cov.T)
        w, v = np.linalg.eigh(cov)
        scale = max(w[-1], 1.0)
        if w[0] < -_PSD_TOL * scale:
            raise ValueError(
                f"noise model covariance is not positive semidefinite "
                f"(min eigenvalue {w[0]:.3e}); check the cross matrix")
        w = np.clip(w, 0.0, None)
        # draws are z @ factor.T with z standard normal over the n * m grid
        # points, so with windows the factor's rows become W^T F per channel
        self._factor = v * np.sqrt(w)
        if windows is not None:
            self._factor = (windows.T @ self._factor.reshape(n, m, n * m)).reshape(-1, n * m)
        self._shape = (n, self._factor.shape[0] // n)

    def sample(self, rng, n_paths):
        """Draw paths, returned with shape (n_paths, n_channels, n_times or n_windows)."""
        z = rng.standard_normal((n_paths, self._factor.shape[1]))
        return (z @ self._factor.T).reshape((n_paths,) + self._shape)

    def covariance(self):
        """The exact covariance realized by :meth:`sample`, channel-major.

        Index (a, i) flattens to a * n_times + i (n_windows with windows).
        Equals the model covariance C, or W^T C W per channel pair with
        windows, up to the PSD eigenvalue clip applied at construction.
        """
        return self._factor @ self._factor.T
