"""The four benchmark workloads: inputs made from a seed, one pipeline pass, and its gate.

Every workload has the same shape:

- ``setup(seed)`` builds the inputs (models, configs, closed-form maps);
- ``run(inputs)`` is one pass, the unit that is timed;
- ``digest(inputs, out)`` hashes the science output of a pass;
- ``check(inputs, out)`` returns the list of failed conditions, empty when the
  pass is correct;
- ``work`` and ``work_unit`` state how much work one pass does.

The pipeline is reached only through module attributes (``propagator.simulate_process``),
so the tracer's wrappers see every call the pass makes. Constructor arguments
set the scale; the defaults are the benchmark scale.
"""

import hashlib
import os

import numpy as np

from ttmkit import cli, io, nonmarkov, presets, propagator, qpt, spectroscopy, ttm
from ttmkit.liouville import (
    SIGMA_X,
    SIGMA_Y,
    all_pauli_labels,
    hamiltonian_liouvillian,
    pauli_string,
    trace_preservation_defect,
    unitary_superop,
    vec,
)


# Bootstrap bands are BAND_SIGMAS wide, not criterion 04's 3: the gate takes
# the largest deviation over about ten steps, on whatever seed the benchmark
# is given, with sigma itself estimated from 64 chunk means. At 3 sigma that
# rejects a correct program on a few seeds in a hundred; the largest
# deviation seen over 60 seeds was 3.7 sigma.
BAND_SIGMAS = 5.0


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _tp_failures(maps):
    worst = max(trace_preservation_defect(m) for m in maps)
    return [] if worst < 1e-10 else [f"trace-preservation defect {worst:.2e} >= 1e-10"]


class TransverseSU2:
    """fig4 chain: SU(2) trajectories with antithetic pairs and the control variate,
    then transfer tensors, memory kernel, a 20-point C_xx fit and its spectrum."""

    name = "transverse-su2"
    work_unit = "trajectories"

    DT = 0.04
    SUBSTEPS = 8

    def __init__(self, n_traj=2048, n_maps=25, n_fit=20):
        self.n_traj, self.n_maps, self.n_fit = n_traj, n_maps, n_fit
        self.work = n_traj

    def setup(self, seed):
        return {"model": presets.transverse_noise_model(), "seed": seed}

    def run(self, x):
        model = x["model"]
        maps = propagator.simulate_process(model, self.DT, self.n_maps, self.n_traj,
                                           substeps=self.SUBSTEPS, seed=x["seed"],
                                           antithetic=True, control_variate=True)
        kernels = ttm.extract_kernel(ttm.build_ttms(maps),
                                     hamiltonian_liouvillian(model.h_system), self.DT)
        series = spectroscopy.fit_correlations(kernels[:self.n_fit], model.h_system,
                                               self.DT, active=(("x", "x"),))
        spectrum = spectroscopy.spectral_density(series, ("x", "x"))[1]
        return {"maps": np.array(maps), "times": series.times,
                "c_xx": series.channel("x", "x"), "spectrum": spectrum}

    def digest(self, x, out):
        return _digest([out["maps"], out["c_xx"], out["spectrum"]])

    def check(self, x, out):
        fails = _tp_failures(out["maps"])
        c_true = x["model"].noise.correlation_entry(0, 0, out["times"])
        rel = float(np.max(np.abs(out["c_xx"].real - c_true) / np.abs(c_true)))
        if out["c_xx"].size != self.n_fit or not rel < 0.05:
            fails.append(f"C_xx relative error {rel:.4f} over {out['c_xx'].size} points "
                         f"(need < 0.05 over {self.n_fit})")
        return fails


class DephasingFine:
    """Revival qubit on a fine substep grid (sampler side n_maps * substeps), its
    transfer-tensor extension and Bloch volume, then free versus XY4 evolution."""

    name = "dephasing-fine"
    work_unit = "trajectories"

    DT = 0.2
    N_CYCLES = 12
    REVIVAL_STEPS = slice(4, 8)  # volume steps 4..7 hold this qubit's revival

    def __init__(self, n_traj=2048, n_maps=30, substeps=32, n_total=60, chunk_size=16,
                 xy4_traj=16384, n_boot=200):
        self.n_traj, self.n_maps, self.substeps = n_traj, n_maps, substeps
        self.n_total, self.chunk_size, self.n_boot = n_total, chunk_size, n_boot
        self.xy4_traj = xy4_traj
        self.work = n_traj + 2 * xy4_traj

    def setup(self, seed):
        model = presets.revival_demo_model()
        quarter = 2.0 / 4.0
        return {"model": model, "dd_model": presets.dd_demo_model(),
                "closed_maps": propagator.dephasing_map_series(model, self.DT, self.n_maps),
                "segments": [(quarter, SIGMA_X), (quarter, SIGMA_Y)] * 2, "seed": seed}

    def run(self, x):
        seed = x["seed"]
        maps, chunk_means = propagator.simulate_process(
            x["model"], self.DT, self.n_maps, self.n_traj, substeps=self.substeps,
            seed=seed, antithetic=True, chunk_size=self.chunk_size, collect_chunk_means=True)
        extended = ttm.predict_maps(ttm.build_ttms(maps), self.n_total)
        volume = nonmarkov.volume_series(extended, self.DT)
        measure = nonmarkov.volume_measure(volume)

        free = propagator.simulate_process(x["dd_model"], 2.0, self.N_CYCLES, self.xy4_traj,
                                           substeps=16, seed=seed, antithetic=True)
        pulsed = propagator.simulate_pulsed_process(x["dd_model"], x["segments"],
                                                    self.N_CYCLES, self.xy4_traj,
                                                    substeps=4, seed=seed)
        free_profile = ttm.norm_profile(ttm.build_ttms(free))
        xy4_profile = ttm.norm_profile(ttm.build_ttms(pulsed))
        return {"maps": np.array(maps), "chunk_means": chunk_means,
                "volume": volume.values, "measure": measure,
                "closed_volume": self._volume(x["closed_maps"]),
                "free_profile": free_profile, "xy4_profile": xy4_profile,
                "free_count": ttm.count_above_threshold(free_profile,
                                                        reference=free_profile[0]),
                "xy4_count": ttm.count_above_threshold(xy4_profile,
                                                       reference=free_profile[0])}

    def digest(self, x, out):
        return _digest([out["maps"], out["chunk_means"], out["volume"], out["closed_volume"],
                        out["free_profile"], out["xy4_profile"]])

    def _volume(self, maps):
        """Volume of the transfer-tensor extension of ``maps`` to n_total steps."""
        extended = ttm.predict_maps(ttm.build_ttms(list(maps)), self.n_total)
        return nonmarkov.volume_series(extended, self.DT).values

    def volume_deviation(self, x, out, exact):
        """Largest deviation of the sampled volume from the closed form ``exact``, in sigmas.

        Sigmas come from criterion 04's chunk-mean bootstrap of the extended
        volume. The volume of this qubit is a squared coherence, whose
        bootstrap sigma shrinks and grows with the sampled coherence itself;
        its square root (the coherence magnitude) has a sigma that does not,
        so the deviation compares square roots. Only steps where the closed
        form stands five of the largest sigmas clear of 0 are compared:
        nearer to 0 a sampled magnitude can fold over 0, which biases it and
        shrinks its bootstrap sigma.
        """
        rng = np.random.default_rng(x["seed"])
        cm = out["chunk_means"]
        reps = np.array([self._volume(cm[rng.integers(0, len(cm), size=len(cm))].mean(axis=0))
                         for _ in range(self.n_boot)])
        sigma = np.sqrt(np.clip(reps, 0.0, None)).std(axis=0)
        resolved = np.sqrt(exact) > 5.0 * np.max(sigma)
        resolved[0] = False  # V(t_0) = 1 exactly, with no spread
        dev = np.sqrt(np.clip(out["volume"], 0.0, None)) - np.sqrt(exact)
        ratios = np.abs(dev[resolved]) / sigma[resolved]
        return float(ratios.max()) if ratios.size else float("inf")  # nothing resolved: fail

    def check(self, x, out):
        fails = _tp_failures(out["maps"])
        exact = nonmarkov.volume_series(
            propagator.dephasing_map_series(x["model"], self.DT, self.n_total), self.DT).values
        z = self.volume_deviation(x, out, exact)
        if not z <= BAND_SIGMAS:
            fails.append(f"extended volume off the closed form by {z:.2f} sigma "
                         f"(allowed {BAND_SIGMAS})")
        # The revival (+7e-4) is below the Monte Carlo resolution of the sampled
        # volume, so it is checked on the extension of the closed-form maps: up
        # to n_maps the recursion must reproduce them, revival included.
        closed = out["closed_volume"]
        reproduced = float(np.max(np.abs(closed - exact)[:self.n_maps + 1]))
        revival = float(np.max(np.diff(closed)[self.REVIVAL_STEPS]))
        if not (reproduced < 1e-10 and revival > 0):
            fails.append(f"closed-form extension off the closed form by {reproduced:.2e} "
                         f"(need < 1e-10), revival step {revival:+.2e} (need > 0)")
        if not out["xy4_count"] < out["free_count"]:
            fails.append(f"XY4 keeps {out['xy4_count']} tensors above threshold, "
                         f"free evolution {out['free_count']}")
        return fails


class PairEighCli:
    """Two qubits under cross-correlated x noise, driven through the JSON CLI:
    simulate (general-d eigh kernel, shot-sampled tomography records) -> ingest
    with CPTP projection -> twoqubit -> ttm."""

    name = "pair-eigh-cli"
    work_unit = "trajectories"

    DT = 0.2

    def __init__(self, work_dir, n_traj=1024, n_steps=8, substeps=4, shots=4096):
        self.work_dir = work_dir
        self.n_traj, self.n_steps, self.substeps, self.shots = n_traj, n_steps, substeps, shots
        self.work = n_traj

    def setup(self, seed):
        sim_dir = os.path.join(self.work_dir, "simulate")
        out_dir = os.path.join(self.work_dir, "ingest")
        simulate = {
            "mode": "simulate",
            "system": {"n_qubits": 2, "biases": [0.0, 0.0],
                       "channels": [{"axis": "x", "qubit": 1}, {"axis": "x", "qubit": 2}]},
            "noise": {"variances": [1.0, 1.0], "decay_rates": [1.0, 1.0],
                      "cross": [[1.0, 0.5], [0.5, 1.0]]},
            "sampling": {"n_traj": self.n_traj, "seed": seed, "substeps": self.substeps},
            "grid": {"dt": self.DT, "n_steps": self.n_steps},
            "shots": self.shots,
        }
        ingest = {"mode": "ingest", "input": os.path.join(sim_dir, "qpt_records.csv"),
                  "project_cptp": True, "grid": {"dt": self.DT}}
        return {"seed": seed, "steps": [(simulate, sim_dir), (ingest, out_dir),
                                        ({"mode": "twoqubit", "input": "maps.json"}, out_dir),
                                        ({"mode": "ttm", "input": "maps.json"}, out_dir)]}

    def run(self, x):
        written = []
        for cfg, out_dir in x["steps"]:
            written += cli.run_config(cfg, out_dir)
        return written

    def digest(self, x, out):
        h = hashlib.sha256()
        for path in out:
            h.update(os.path.relpath(path, self.work_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def _twin_maps(self, seed):
        """The z-basis twin on the diagonal path, rotated back by H (x) H.

        The x couplings commute, so the eigh kernel must reproduce these
        maps exactly for the same seed and chunking."""
        twin = presets.two_qubit_dephasing(bias1=0.0, bias2=0.0, zz=0.0, cross=0.5)
        z_maps = propagator.simulate_process(twin, self.DT, self.n_steps, self.n_traj,
                                             substeps=self.substeps, seed=seed,
                                             antithetic=True)
        had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        s = unitary_superop(np.kron(had, had))
        return [s @ m @ s.conj().T for m in z_maps]

    def shot_tolerance(self):
        """Per-map Frobenius bound on the ingested-map error: 3 x its RMS under shot noise.

        Each record has variance at most 1 / shots, so the least-squares map
        has mean squared Frobenius error at most |pinv(A)|_F^2 / shots for
        the two-qubit design matrix A."""
        states = qpt.prep_states(2)
        rows = [np.kron(vec(pauli_string(p).T), vec(rho))
                for rho in states.values() for p in all_pauli_labels(2)]
        return 3.0 * np.linalg.norm(np.linalg.pinv(np.array(rows))) / np.sqrt(self.shots)

    def check(self, x, out):
        fails = []
        names = sorted(os.path.relpath(p, self.work_dir) for p in out)
        want = sorted(os.path.join(d, f) for d, f in (
            ("simulate", "maps.json"), ("simulate", "qpt_records.csv"),
            ("ingest", "maps.json"), ("ingest", "twoqubit_norms.csv"),
            ("ingest", "twoqubit_report.txt"), ("ingest", "ttm_norms.csv")))
        if names != want:
            fails.append(f"wrote {names}, expected {want}")
            return fails
        simulated, _ = io.read_map_series(os.path.join(self.work_dir, "simulate", "maps.json"))
        ingested, _ = io.read_map_series(os.path.join(self.work_dir, "ingest", "maps.json"))
        fails += _tp_failures(simulated)
        oracle = max(float(np.max(np.abs(a - b)))
                     for a, b in zip(simulated, self._twin_maps(x["seed"])))
        if not oracle < 1e-12:
            fails.append(f"eigh maps differ from the rotated diagonal twin by {oracle:.2e}")
        shot_err = max(float(np.linalg.norm(a - b)) for a, b in zip(ingested, simulated))
        tol = self.shot_tolerance()
        if not shot_err <= tol:
            fails.append(f"ingested maps off the simulated ones by {shot_err:.4f} "
                         f"(shot-noise bound {tol:.4f})")
        cols, _ = io.read_series_csv(os.path.join(self.work_dir, "ingest", "ttm_norms.csv"))
        if cols["n"].size != self.n_steps or not np.all(np.isfinite(cols["norm"])):
            fails.append("ttm_norms.csv does not hold one finite norm per map")
        return fails


class CountsToSpectra:
    """fig3bottom sweep from tomography records to spectra, with no trajectories:
    records -> maps -> CPTP projection -> transfer tensors -> long prediction and
    extended volume -> kernels -> two-run combination -> fits -> spectra, plus a
    shot-sampled series at several shot counts."""

    name = "counts-to-spectra"
    work_unit = "maps"

    LAMS = (0.16, 0.49, 1.0, 1.44, 1.96, 2.56)
    DT = 0.04
    N_STEPS = 18
    GAMMA = 0.2  # coupling scale of each sweep point's second run
    T_STAR_INDEX = 15  # fit point checked against criterion 06's 10%

    def __init__(self, n_predict=200, n_volume=60, shot_sweep=(512, 2048, 8192, 32768)):
        self.n_predict, self.n_volume, self.shot_sweep = n_predict, n_volume, shot_sweep
        self.work = self.N_STEPS * (2 * len(self.LAMS) + len(shot_sweep))

    def setup(self, seed):
        runs = []
        for lam in self.LAMS:
            models = [presets.weak_dephasing_model(lam * scale) for scale in (1.0, self.GAMMA ** 2)]
            runs.append([(m, propagator.dephasing_map_series(m, self.DT, self.N_STEPS))
                         for m in models])
        return {"runs": runs, "seed": seed}

    def run(self, x):
        zz = (("z", "z"),)
        recon, horizon, naive, protocol, spectra, measures = [], [], [], [], [], []
        for pair in x["runs"]:
            kernels = []
            for model, maps in pair:
                rebuilt = qpt.reconstruct_maps(qpt.simulate_qpt(maps))
                recon.append(rebuilt)
                tensors = ttm.build_ttms([qpt.project_cptp(m) for m in rebuilt])
                horizon.append(ttm.predict_maps(tensors, self.n_predict)[-1])
                _, measure = nonmarkov.extended_volume_measure(tensors, self.n_volume, self.DT)
                measures.append(measure)
                kernels.append(ttm.extract_kernel(
                    tensors, hamiltonian_liouvillian(model.h_system), self.DT))
            combined, _ = spectroscopy.combine_scaled_kernels(kernels, gammas=[1.0, self.GAMMA])
            h = pair[0][0].h_system
            fit_naive = spectroscopy.fit_correlations(kernels[0], h, self.DT, active=zz)
            fit_protocol = spectroscopy.fit_correlations(list(combined), h, self.DT, active=zz)
            naive.append(fit_naive.channel("z", "z").real)
            protocol.append(fit_protocol.channel("z", "z").real)
            spectra.append(spectroscopy.spectral_density(fit_protocol, ("z", "z"))[1])
        top = x["runs"][-1][0][1]
        shot_recon, shot_projected = [], []
        for i, shots in enumerate(self.shot_sweep):
            records = qpt.simulate_qpt(top, shots=shots, seed=x["seed"] + i)
            rebuilt = qpt.reconstruct_maps(records)
            shot_recon.append(rebuilt)
            shot_projected.append([qpt.project_cptp(m) for m in rebuilt])
        return {"recon": np.array(recon), "horizon": np.array(horizon),
                "naive": np.array(naive), "protocol": np.array(protocol),
                "spectra": np.array(spectra),
                "measures": np.array(measures), "shot_recon": np.array(shot_recon),
                "shot_projected": np.array(shot_projected), "times": fit_protocol.times}

    def digest(self, x, out):
        return _digest([out[k] for k in ("recon", "horizon", "naive", "protocol", "spectra",
                                         "measures", "shot_recon", "shot_projected")])

    def check(self, x, out):
        fails = []
        exact = np.array([maps for pair in x["runs"] for _, maps in pair])
        roundtrip = float(np.max(np.abs(out["recon"] - exact)))
        if not roundtrip < 1e-10:
            fails.append(f"noiseless round trip residual {roundtrip:.2e} >= 1e-10")
        model, top = x["runs"][-1][0]
        k = self.T_STAR_INDEX
        c_exact = model.noise.correlation_entry(0, 0, out["times"][k])
        rel_naive = abs(out["naive"][-1][k] - c_exact) / abs(c_exact)
        rel_protocol = abs(out["protocol"][-1][k] - c_exact) / abs(c_exact)
        if not (rel_naive > 0.25 and rel_protocol < 0.10):
            fails.append(f"at the largest coupling the plain fit is off by {rel_naive:.1%} "
                         f"(need > 25%), the two-run protocol by {rel_protocol:.1%} "
                         f"(need < 10%)")
        scaled = [float(np.mean(np.abs(r - top))) * np.sqrt(s)
                  for r, s in zip(out["shot_recon"], self.shot_sweep)]
        ratio = max(scaled) / min(scaled)
        if not ratio < 2.0:
            fails.append(f"error * sqrt(shots) spread {ratio:.2f}x >= 2x across "
                         f"{list(self.shot_sweep)}")
        return fails


def make(name, work_dir):
    """The workload called ``name`` at benchmark scale."""
    if name == PairEighCli.name:
        return PairEighCli(work_dir)
    for cls in (TransverseSU2, DephasingFine, CountsToSpectra):
        if cls.name == name:
            return cls()
    raise ValueError(f"unknown workload {name!r}")


NAMES = (TransverseSU2.name, DephasingFine.name, PairEighCli.name, CountsToSpectra.name)
