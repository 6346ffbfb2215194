"""Bundled reference models and end-to-end pipeline runners.

Each runner reproduces one of the example studies at desk scale and writes
plot-ready CSV series plus a small report. Outputs are deterministic for a
fixed (seed, n_traj, chunking) choice; every file carries the configuration
hash, seed, and package version in its metadata header.
"""

import os

import numpy as np

from . import io, multiqubit, propagator, ttm
from ._version import __version__
from .liouville import SIGMA_X, SIGMA_Y, SIGMA_Z, hamiltonian_liouvillian, unvec, vec
from .noisegen import NoiseModel
from .nonmarkov import volume_measure, volume_series
from .propagator import SystemModel, dephasing_map_series, simulate_process
from .spectroscopy import combine_scaled_kernels, fit_correlations, spectral_density
from .ttm import (
    build_ttms,
    count_above_threshold,
    extract_kernel,
    norm_profile,
    predict_states,
)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def _qubit_operators(biases, channels, zz=0.0):
    """System Hamiltonian and couplings of one or two qubits (labeled from 1).

    H = sum_q biases[q] sigma_z^(q), plus zz sigma_z (x) sigma_z for a pair;
    channel (axis, qubit) couples through that Pauli on that qubit.
    """
    eye = np.eye(2)

    def local(op, qubit):
        if len(biases) == 1:
            return op
        return np.kron(op, eye) if qubit == 1 else np.kron(eye, op)

    h = biases[0] * local(SIGMA_Z, 1)
    if len(biases) == 2:
        h = h + biases[1] * local(SIGMA_Z, 2) + zz * np.kron(SIGMA_Z, SIGMA_Z)
    return h, tuple(local(_PAULI[axis], qubit) for axis, qubit in channels)


def single_qubit_model(bias, axis, coupling, kappa, omega_c=0.0):
    """Qubit with H = bias * sigma_z and one noise channel on the given axis."""
    noise = NoiseModel.single(coupling, kappa, omega_c)
    h, couplings = _qubit_operators([bias], [(axis, 1)])
    return SystemModel(h_system=h, couplings=couplings, noise=noise)


def two_qubit_dephasing(bias1=0.1, bias2=0.1, zz=0.0, couplings=(1.0, 1.0),
                        cross=0.0, kappas=(1.0, 1.0)):
    """Two qubits under local z noise, optionally zz-coupled or cross-correlated."""
    h, ops = _qubit_operators([bias1, bias2], [("z", 1), ("z", 2)], zz)
    amp = np.array([[couplings[0], cross], [cross, couplings[1]]])
    noise = NoiseModel(kappas=tuple(kappas), omegas=(0.0, 0.0), cross=amp)
    return SystemModel(h_system=h, couplings=ops, noise=noise)


# frozen model parameters of the bundled studies

def dephasing_demo_model():
    """Strongly coupled dephasing qubit: bias 0.1, lambda 4, kappa 1, omega_c 3.

    The modulation is slow enough that five transfer tensors carry the
    memory, yet several of them stay above the percent level.
    """
    return single_qubit_model(0.1, "z", 4.0, 1.0, 3.0)


def revival_demo_model():
    """Same dephasing qubit with omega_c 4, fast enough to revive the volume.

    Around t = 1 the oscillating correlation transiently reduces the
    accumulated phase variance, so the Bloch volume grows for two steps.
    """
    return single_qubit_model(0.1, "z", 4.0, 1.0, 4.0)


def weak_dephasing_model(coupling=0.01):
    """Weakly coupled dephasing qubit for kernel spectroscopy: bias 0.02."""
    return single_qubit_model(0.02, "z", coupling, 1.0, 0.0)


def transverse_noise_model():
    """Bias 0.02 with x-axis noise, the beyond-pure-dephasing case."""
    return single_qubit_model(0.02, "x", 0.01, 1.0, 0.0)


def coupled_pair_model(kappa=1.0):
    """zz-coupled pair (0.05) with independent local z noises, lambda 1."""
    return two_qubit_dephasing(zz=0.05, kappas=(kappa, kappa))


def correlated_pair_model(kappa=1.0):
    """Uncoupled pair with fully correlated z noises, <B1 B2> = 1."""
    return two_qubit_dephasing(zz=0.0, cross=1.0, kappas=(kappa, kappa))


def dd_demo_model():
    """Slow noise for the pulse-sequence demo: lambda 0.1, kappa 0.25, no bias."""
    return single_qubit_model(0.0, "z", 0.1, 0.25, 0.0)


def _meta(params, seed):
    return {"config_hash": io.config_hash(params), "seed": seed, "version": __version__}


def _scaled(n_traj, scale):
    if scale == "full":
        return n_traj
    if scale == "fast":
        return max(2000, n_traj // 50)
    raise ValueError(f"unknown scale {scale!r}; use 'full' or 'fast'")


def run_fig1(out_dir, scale="full", seed=11):
    """Map reconstruction and truncated-memory predictions, strong dephasing."""
    n_traj = _scaled(100_000, scale)
    dt, n_steps = 0.2, 30
    params = {"preset": "fig1", "dt": dt, "n_steps": n_steps, "n_traj": n_traj, "seed": seed}
    meta = _meta(params, seed)
    model = dephasing_demo_model()
    maps = simulate_process(model, dt, n_steps, n_traj, seed=seed, antithetic=True)
    tensors = build_ttms(maps)
    times = dt * np.arange(1, n_steps + 1)

    norms_path = os.path.join(out_dir, "fig1_ttm_norms.csv")
    io.write_series_csv(norms_path, {
        "n": np.arange(1, n_steps + 1),
        "norm": norm_profile(tensors, subtract_identity=False),
        "norm_first_minus_identity": norm_profile(tensors),
    }, meta)

    exact = dephasing_map_series(model, dt, n_steps)
    columns = {"time": times,
               "re_rho12_exact": np.array([unvec(m @ vec(PLUS))[1, 0].real for m in exact])}
    for k_trunc in (1, 3, 5, n_steps):
        states = predict_states(tensors, PLUS, n_steps, k_trunc=k_trunc)
        columns[f"re_rho12_k{k_trunc}"] = np.array([s[1, 0].real for s in states])
    pred_path = os.path.join(out_dir, "fig1_predictions.csv")
    io.write_series_csv(pred_path, columns, meta)
    return {"norms": norms_path, "predictions": pred_path}


def run_fig2(out_dir, scale="full", seed=13):
    """Bloch-volume decay and its non-monotonic revival, strong dephasing."""
    n_traj = _scaled(400_000, scale)
    dt, n_steps = 0.2, 30
    params = {"preset": "fig2", "dt": dt, "n_steps": n_steps, "n_traj": n_traj, "seed": seed}
    model = revival_demo_model()
    exact_series = volume_series(dephasing_map_series(model, dt, n_steps), dt)
    mc_maps = simulate_process(model, dt, n_steps, n_traj, seed=seed, antithetic=True)
    mc_series = volume_series(mc_maps, dt)
    path = os.path.join(out_dir, "fig2_volume.csv")
    io.write_series_csv(path, {
        "time": exact_series.times,
        "volume_exact": exact_series.values,
        "volume_mc": mc_series.values,
    }, _meta(params, seed))
    report = os.path.join(out_dir, "fig2_report.txt")
    io.write_report(report, {
        "nonmarkovianity_exact": volume_measure(exact_series),
        "nonmarkovianity_mc": volume_measure(mc_series),
    }, _meta(params, seed))
    return {"volume": path, "report": report}


def _kernel_spectroscopy(out_dir, stem, model, maps, dt, n_fit, axis, meta):
    # the presets couple one noise channel to one Pauli axis, so the fitted
    # (axis, axis) pair always corresponds to the model's channel 0
    kernels = extract_kernel(build_ttms(maps), hamiltonian_liouvillian(model.h_system), dt)
    series = fit_correlations(kernels[:n_fit], model.h_system, dt, active=((axis, axis),))
    c_true = model.noise.correlation_entry(0, 0, series.times)
    corr_path = os.path.join(out_dir, f"{stem}_correlation.csv")
    io.write_series_csv(corr_path, {
        "time": series.times,
        "c_fit": series.channel(axis, axis).real,
        "c_true": c_true,
    }, meta)
    omega, s_fit = spectral_density(series, (axis, axis))
    s_true = model.noise.spectral_density(omega, 0, 0)
    spec_path = os.path.join(out_dir, f"{stem}_spectrum.csv")
    io.write_series_csv(spec_path, {"omega": omega, "s_fit": s_fit, "s_true": s_true}, meta)
    report_path = os.path.join(out_dir, f"{stem}_fit_report.txt")
    io.write_report(report_path, {
        "n_fit_points": n_fit,
        "residuals": series.residuals,
        "iterations": series.iterations,
    }, meta)
    return {"correlation": corr_path, "spectrum": spec_path, "report": report_path}


def run_fig3top(out_dir, scale="full", seed=0):
    """Correlation recovery from the kernel, weak coupling, analytic maps."""
    dt, n_steps, n_fit = 0.04, 25, 20
    params = {"preset": "fig3top", "dt": dt, "n_steps": n_steps, "n_fit": n_fit}
    model = weak_dephasing_model()
    maps = dephasing_map_series(model, dt, n_steps)
    return _kernel_spectroscopy(out_dir, "fig3top", model, maps, dt, n_fit, "z",
                                _meta(params, seed))


def run_fig3bottom(out_dir, scale="full", seed=0):
    """Naive versus scaled-kernel recovery across coupling strengths.

    The second run sits at coupling ratio gamma = 0.2 (bias ratio 5 in the
    dimensionless framing); the two-run combination then cancels the
    fourth-order kernel and leaves a gamma^2-suppressed sixth-order rest.
    """
    dt, n_steps = 0.04, 18
    t_star_index = 15
    gamma = 0.2
    lams = np.array([0.16, 0.49, 1.0, 1.44, 1.96, 2.56])
    params = {"preset": "fig3bottom", "dt": dt, "n_steps": n_steps,
              "lams": list(lams), "t_star_index": t_star_index, "gamma": gamma}
    naive = []
    protocol = []
    exact = []
    for lam in lams:
        runs = []
        for scale_factor in (1.0, gamma * gamma):
            model = weak_dephasing_model(lam * scale_factor)
            maps = dephasing_map_series(model, dt, n_steps)
            runs.append(extract_kernel(build_ttms(maps),
                                       hamiltonian_liouvillian(model.h_system), dt))
        model = weak_dephasing_model(lam)
        fit_naive = fit_correlations(runs[0], model.h_system, dt, active=(("z", "z"),))
        combined, _ = combine_scaled_kernels(runs, gammas=[1.0, gamma])
        fit_protocol = fit_correlations(list(combined), model.h_system, dt,
                                        active=(("z", "z"),))
        t_star = fit_naive.times[t_star_index]
        naive.append(fit_naive.channel("z", "z")[t_star_index].real)
        protocol.append(fit_protocol.channel("z", "z")[t_star_index].real)
        exact.append(model.noise.correlation_entry(0, 0, t_star))
    path = os.path.join(out_dir, "fig3bottom_coupling_sweep.csv")
    io.write_series_csv(path, {
        "lam": lams,
        "c_naive": np.array(naive),
        "c_protocol": np.array(protocol),
        "c_exact": np.array(exact),
    }, _meta(params, seed))
    return {"sweep": path}


def run_fig4(out_dir, scale="full", seed=17):
    """Correlation recovery for transverse noise from sampled trajectories."""
    n_traj = _scaled(2_000_000, scale)
    dt, n_steps, n_fit = 0.04, 25, 20
    params = {"preset": "fig4", "dt": dt, "n_steps": n_steps, "n_fit": n_fit,
              "n_traj": n_traj, "seed": seed}
    model = transverse_noise_model()
    maps = simulate_process(model, dt, n_steps, n_traj, seed=seed,
                            antithetic=True, control_variate=True)
    return _kernel_spectroscopy(out_dir, "fig4", model, maps, dt, n_fit, "x",
                                _meta(params, seed))


# The CLI's twoqubit and xy4 modes run the next two bodies as well. They
# reach the layers through module attributes, so that wrappers installed on
# those modules (bench/tracing.py) see the calls of a CLI run.

def _pair_study(out_dir, stem, maps, dt, meta, noise=None):
    """Write ``<stem>_norms.csv`` and ``<stem>_report.txt`` for a two-qubit map series.

    The generator/kernel split needs maps at dt and 2 dt that have a
    logarithm; without them the verdict stays unattributed, with the reason
    under ``split_skipped``. ``noise`` enables the coarse-step warning.
    """
    result = multiqubit.unravel(maps)
    dl_dt = dk_dt2 = skipped = None
    if len(maps) >= 2:
        try:
            dl_dt, dk_dt2 = multiqubit.isolate_collective(result, dt, noise=noise)
        except multiqubit.SingularMapError as exc:
            skipped = str(exc)
    report = multiqubit.collective_report(result, dl_dt, dk_dt2)
    norms_path = os.path.join(out_dir, f"{stem}_norms.csv")
    io.write_series_csv(norms_path, {
        "n": np.arange(1, len(maps) + 1),
        "full": report["full_tensor_norms"],
        "separable": report["separable_tensor_norms"],
        "correlated": report["delta_tensor_norms"],
    }, meta)
    fields = {"verdict": report["verdict"]}
    if skipped is not None:
        fields["split_skipped"] = skipped
    if dl_dt is not None:
        fields["dl_dt_norm"] = report["dl_dt_norm"]
        fields["dk_dt2_norm"] = report["dk_dt2_norm"]
        fields["dl_dt_diag_imag"] = np.diag(dl_dt).imag
        fields["dk_dt2_diag_real"] = np.diag(dk_dt2).real
    report_path = os.path.join(out_dir, f"{stem}_report.txt")
    io.write_report(report_path, fields, meta)
    return {"norms": norms_path, "report": report_path}


def _xy4_study(path, meta, model, dt_cycle, n_cycles, n_traj, substeps, seed, antithetic):
    """(free, xy4) transfer-tensor norm profiles over n_cycles cycles of dt_cycle.

    Both are written to ``path`` as columns ``n, free, xy4``. An XY4 cycle is
    four quarter-cycle segments of ``substeps`` noise values, each ending in
    an X, Y, X, Y pulse; free evolution takes 4 * substeps per cycle, and
    ``antithetic`` applies to it only.
    """
    quarter = dt_cycle / 4.0
    free_maps = propagator.simulate_process(model, dt_cycle, n_cycles, n_traj,
                                            substeps=4 * substeps, seed=seed,
                                            antithetic=antithetic)
    segments = [(quarter, SIGMA_X), (quarter, SIGMA_Y)] * 2
    dd_maps = propagator.simulate_pulsed_process(model, segments, n_cycles, n_traj,
                                                 substeps=substeps, seed=seed)
    free = ttm.norm_profile(ttm.build_ttms(free_maps))
    xy4 = ttm.norm_profile(ttm.build_ttms(dd_maps))
    io.write_series_csv(path, {"n": np.arange(1, n_cycles + 1), "free": free, "xy4": xy4},
                        meta)
    return free, xy4


def run_fig5(out_dir, scale="full", seed=19):
    """Separable/collective tensor norms and generator isolation, both pair models.

    The correlation decay rates differ from the other presets (kappa 10 and
    2). Both put kappa dt at or above 0.4 on the dt = 0.2 grid, so
    :func:`~ttmkit.multiqubit.isolate_collective` warns that its split is
    order-of-magnitude only there; the verdicts still come out
    coupling-dominated and noise-dominated.
    """
    n_traj = _scaled(20_000, scale)
    dt, n_steps = 0.2, 12
    out = {}
    for stem, model, kappa in (("fig5_independent", coupled_pair_model(10.0), 10.0),
                               ("fig5_correlated", correlated_pair_model(2.0), 2.0)):
        params = {"preset": "fig5", "model": stem, "dt": dt, "n_steps": n_steps,
                  "n_traj": n_traj, "seed": seed, "kappa": kappa}
        maps = simulate_process(model, dt, n_steps, n_traj, seed=seed, antithetic=True)
        written = _pair_study(out_dir, stem, maps, dt, _meta(params, seed), noise=model.noise)
        out.update({f"{stem}_{kind}": path for kind, path in written.items()})
    return out


def run_fig6(out_dir, scale="full", seed=23):
    """Full versus separable TTM predictions for the two pair models."""
    n_traj = _scaled(400_000, scale)
    dt, n_maps, n_pred = 0.2, 16, 25
    psi_x0 = np.zeros(4, dtype=complex)
    psi_x0[[0, 2]] = 1 / np.sqrt(2)
    psi_bell = np.zeros(4, dtype=complex)
    psi_bell[[1, 2]] = 1 / np.sqrt(2)
    cases = (
        ("fig6_independent", coupled_pair_model(1.0), np.outer(psi_x0, psi_x0.conj()), (0, 2)),
        ("fig6_correlated", correlated_pair_model(1.0), np.outer(psi_bell, psi_bell.conj()), (1, 2)),
    )
    out = {}
    for stem, model, rho0, (r, c) in cases:
        params = {"preset": "fig6", "model": stem, "dt": dt, "n_maps": n_maps,
                  "n_pred": n_pred, "n_traj": n_traj, "seed": seed}
        maps = simulate_process(model, dt, n_maps, n_traj, seed=seed, antithetic=True)
        result = multiqubit.unravel(maps)
        full_states = predict_states(result.full_tensors, rho0, n_pred)
        sep_states = predict_states(result.separable_tensors, rho0, n_pred)
        exact_maps = dephasing_map_series(model, dt, n_pred)
        exact_states = [unvec(m @ vec(rho0)) for m in exact_maps]
        path = os.path.join(out_dir, f"{stem}_predictions.csv")
        io.write_series_csv(path, {
            "time": dt * np.arange(1, n_pred + 1),
            "abs_full": np.abs([s[r, c] for s in full_states]),
            "abs_separable": np.abs([s[r, c] for s in sep_states]),
            "abs_exact": np.abs([s[r, c] for s in exact_states]),
        }, _meta(params, seed))
        out[stem] = path
    return out


def run_xy4(out_dir, scale="full", seed=29):
    """Memory shortening under the XY4 pulse sequence versus free evolution."""
    n_traj = _scaled(30_000, scale)
    dt_cycle, n_cycles, substeps = 2.0, 12, 4
    params = {"preset": "xy4", "dt_cycle": dt_cycle, "n_cycles": n_cycles,
              "n_traj": n_traj, "seed": seed}
    meta = _meta(params, seed)
    path = os.path.join(out_dir, "xy4_ttm_norms.csv")
    free_profile, dd_profile = _xy4_study(path, meta, dd_demo_model(), dt_cycle, n_cycles,
                                          n_traj, substeps, seed, antithetic=True)
    threshold = ttm._THRESHOLD_FRACTION * free_profile[0]
    report = os.path.join(out_dir, "xy4_report.txt")
    io.write_report(report, {
        "threshold": threshold,
        "count_free": count_above_threshold(free_profile, reference=free_profile[0]),
        "count_xy4": count_above_threshold(dd_profile, reference=free_profile[0]),
    }, meta)
    return {"norms": path, "report": report}


RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3top": run_fig3top,
    "fig3bottom": run_fig3bottom,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "xy4": run_xy4,
}
