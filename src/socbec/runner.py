"""Experiment execution: runs a parsed config and writes deterministic artifacts.

Artifacts per run directory:
    run_manifest.txt   config echo (original + resolved), config sha256,
                       library version, artifact list, study fit results,
                       the energy, iterations, eigen residual and warnings
                       of a ground-state solve (prefixed ground_state_ for
                       the initial state of dynamics and com_compare)
    observables.csv    one row per record: t-or-iter, N, N1, N2, delta_N, E,
                       mu, xc per axis, P per axis, raman_overlap
                       (17-significant-digit decimal floats)
    summary.csv        limit-study sweeps: one row per sweep value, with its
                       diagnostics, converged flag, iterations and eigen
                       residual ||H psi - mu psi||
    lda_compare.csv    com-compare mode: PDE, closed-form and reduced-ODE
                       center-of-mass trajectories
    *.socb             binary checkpoints (final state, per-sweep states,
                       optional field snapshots)
    FAILED             present only when the run failed; holds diagnostics

Reruns of the same config with the same build produce byte-identical text
artifacts (no timestamps, fixed float formatting).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .com import (
    ComClosedFormInputs,
    LdaState,
    compare_series,
    lda_ode_solve,
    lda_initial_from_imbalance,
    xc_closed_form,
)
from .config import GROUND_STATE_KINDS, ExperimentConfig
from .dynamics import evolve
from .grid import FOURIER
from .ground_state import (
    check_study,
    lab_view,
    limit_study,
    solve_ground_state,
)
from .model import (
    LAB,
    TILDE,
    HARMONIC,
    Spinor,
    discretization,
    gauge_transform,
    observables,
)
from .states import gaussian_profile, single_component

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _obs_columns(dim: int):
    cols = ["N", "N1", "N2", "delta_N", "E", "mu"]
    cols += [f"xc_{ax}" for ax in ("x", "y", "z")[:dim]]
    cols += [f"P{ax}" for ax in ("x", "y", "z")[:dim]]
    cols.append("raman_overlap")
    return cols


def _obs_values(obs):
    vals = [obs.mass, obs.mass1, obs.mass2, obs.delta_n, obs.energy, obs.chem_mu]
    vals += list(obs.xc)
    vals += list(obs.momentum)
    vals.append(obs.raman_overlap)
    return vals


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


class RunFailure(RuntimeError):
    pass


def _shift_steps(grid, offset):
    """Whole-cell shifts per axis for shifted initial data."""
    shifts = []
    for i, a in enumerate(grid.axes):
        if a.basis != FOURIER:
            raise RunFailure("shifted initial data needs a periodic grid")
        steps = offset[i] / a.h
        if abs(steps - round(steps)) > 1e-9:
            raise RunFailure(
                f"offset {offset[i]} along axis {i} is not a multiple of "
                f"the grid spacing {a.h}"
            )
        shifts.append(int(round(steps)))
    return shifts


def _initial_checkpoint(config: ExperimentConfig):
    """The config's initial checkpoint, loaded and checked against its grid."""
    chk = load_checkpoint(config.initial.path)
    if chk.spinor.grid != config.grid:
        raise RunFailure("checkpoint grid does not match the configured grid")
    return chk


def preflight(config: ExperimentConfig) -> list:
    """Dry run of the rules `run` applies before it solves or steps.

    Builds the discretization of every parameter set the run uses and checks
    it against the mode, and loads an initial checkpoint and checks its grid;
    `parse_config` has already checked the [evolve] and [lda] time steps.
    Raises ValueError (CheckpointError included), OSError or RunFailure on
    the first violation; returns the resolution warnings.
    """
    cfg = config
    warnings: list = []

    def use(params, flow: bool):
        disc = discretization(cfg.grid, params)
        if flow:
            disc.check_flow()
        else:
            disc.check_dynamics()
        warnings.extend(w for w in disc.warnings if w not in warnings)

    if cfg.mode == "ground_state":
        use(cfg.params, flow=True)
    elif cfg.mode == "limit_study":
        check_study(cfg.sweep.kind, cfg.params, cfg.sweep.values)
        for v in cfg.sweep.values:
            use(cfg.params.with_(**{cfg.sweep.parameter: v}), flow=True)
    else:
        if cfg.mode == "com_compare":
            if cfg.params.potential != HARMONIC or cfg.params.frame != LAB:
                raise RunFailure("com_compare needs lab-frame harmonic-trap "
                                 "dynamics")
        use(cfg.params, flow=False)
        if cfg.initial.kind in GROUND_STATE_KINDS:
            use(cfg.params, flow=True)
        if cfg.initial.kind == "shifted_ground_state":
            _shift_steps(cfg.grid, cfg.initial.offset or (0.0,) * cfg.grid.dim)
        if cfg.initial.kind == "checkpoint":
            _initial_checkpoint(cfg)
    return warnings


class _Run:
    def __init__(self, config: ExperimentConfig, out_dir):
        self.config = config
        self.out = Path(out_dir if out_dir is not None else config.out_dir)
        self.artifacts: list[str] = []
        self.notes: list[str] = []

    def warn(self, message: str):
        note = f"warning {message}"
        if note not in self.notes:
            self.notes.append(note)

    def report_solve(self, res, prefix: str = ""):
        """Energy, mu, iterations, eigen residual and warnings of a solve,
        as [results] lines; raises RunFailure unless it converged."""
        self.notes.append(f"{prefix}energy {_fmt(res.energy)}")
        self.notes.append(f"{prefix}mu {_fmt(res.mu)}")
        self.notes.append(f"{prefix}iterations {res.iterations}")
        self.notes.append(f"{prefix}residual {_fmt(res.residual)}")
        for w in res.warnings:
            self.warn(w)
        if not res.converged:
            raise RunFailure(
                "ground-state solve did not converge: " + "; ".join(res.warnings)
            )

    def path(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out / name

    def write_manifest(self, status: str):
        cfg = self.config
        sha = hashlib.sha256(cfg.text.encode("utf-8")).hexdigest()
        lines = [
            f"socbec {__version__}",
            f"status {status}",
            f"mode {cfg.mode}",
            f"config_sha256 {sha}",
            "",
            "[resolved]",
            f"grid {cfg.grid!r}",
            f"params {cfg.params!r}",
            f"gfdn {cfg.gfdn!r}",
            f"evolve {cfg.evolve!r}",
            f"initial {cfg.initial!r}",
            f"sweep {cfg.sweep!r}",
            f"lda {cfg.lda!r}",
            "",
        ]
        if self.notes:
            lines += ["[results]"] + self.notes + [""]
        lines += ["[artifacts]"] + sorted(set(self.artifacts)) + [""]
        lines += ["[config]"] + cfg.text.splitlines()
        write_atomic(self.out / "run_manifest.txt",
                     ("\n".join(lines) + "\n").encode("utf-8"))

    # ---- initial states ------------------------------------------------

    def _shift_state(self, phi: Spinor, offset) -> Spinor:
        shifts = _shift_steps(phi.grid, offset)
        return Spinor.from_stacked(
            phi.grid,
            np.roll(phi.psi, shifts, axis=tuple(range(1, phi.grid.dim + 1))),
        )

    def _initial_state(self) -> Spinor:
        cfg = self.config
        spec = cfg.initial
        if spec.kind == "gaussian":
            center = spec.center or (0.0,) * cfg.grid.dim
            profile = gaussian_profile(cfg.grid, center=list(center),
                                       widths=spec.width)
            return single_component(cfg.grid, profile, spec.component)
        if spec.kind == "checkpoint":
            chk = _initial_checkpoint(cfg)
            phi, p = chk.spinor, chk.params
            if (p.frame, p.k0) != (cfg.params.frame, cfg.params.k0):
                # through the lab frame, each side with its own k0
                if p.frame == TILDE:
                    phi = gauge_transform(phi, p, "to_lab")
                if cfg.params.frame == TILDE:
                    phi = gauge_transform(phi, cfg.params, "to_tilde")
            return phi
        res = solve_ground_state(cfg.params, cfg.grid, cfg.gfdn)
        self.report_solve(res, prefix="ground_state_")
        phi = res.phi
        if spec.kind == "shifted_ground_state":
            offset = spec.offset or (0.0,) * cfg.grid.dim
            phi = self._shift_state(phi, offset)
        return phi

    # ---- modes ----------------------------------------------------------

    def run_ground_state(self):
        cfg = self.config
        res = solve_ground_state(cfg.params, cfg.grid, cfg.gfdn)
        obs = observables(res.phi, cfg.params)
        header = ["iter"] + _obs_columns(cfg.grid.dim)
        rows = [[res.iterations] + _obs_values(obs)]
        _write_csv(self.path("observables.csv"), header, rows)
        save_checkpoint(self.path("ground_state.socb"), res.phi, cfg.params,
                        iteration=res.iterations)
        if cfg.params.frame == TILDE:
            phi_lab, e_lab = lab_view(res, cfg.params)
            save_checkpoint(self.path("ground_state_lab.socb"), phi_lab,
                            cfg.params.with_(frame=LAB),
                            iteration=res.iterations)
            self.notes.append(f"lab_energy {_fmt(e_lab)}")
        self.report_solve(res)

    def _run_evolution(self, psi0: Spinor):
        cfg = self.config
        series = evolve(psi0, cfg.params, cfg.evolve)
        header = ["t"] + _obs_columns(cfg.grid.dim)
        rows = [[t] + _obs_values(r) for t, r in zip(series.times, series.records)]
        _write_csv(self.path("observables.csv"), header, rows)
        for t, snap in series.snapshots:
            name = f"snapshot_{int(round(t / cfg.evolve.tau)):08d}.socb"
            save_checkpoint(self.path(name), snap, cfg.params, time=t)
        save_checkpoint(self.path("final_state.socb"), series.final_state,
                        cfg.params, time=series.final_time)
        if series.aborted:
            raise RunFailure(
                "evolution hit non-finite values; artifacts hold the last "
                "good state"
            )
        return series

    def run_dynamics(self):
        self._run_evolution(self._initial_state())

    def run_limit_study(self):
        cfg = self.config
        study = limit_study(cfg.sweep.kind, cfg.params, cfg.grid,
                            cfg.sweep.values, cfg.gfdn)
        diag_names = [k for k in study.diagnostics if k != "converged"]
        header = [cfg.sweep.parameter] + diag_names + ["converged", "iterations",
                                                       "residual"]
        rows = []
        for i, v in enumerate(study.values):
            row = [v]
            row += [study.diagnostics[k][i] for k in diag_names]
            row += [study.diagnostics["converged"][i],
                    study.results[i].iterations, study.results[i].residual]
            rows.append(row)
        _write_csv(self.path("summary.csv"), header, rows)
        for v, res in zip(study.values, study.results):
            name = f"state_{cfg.sweep.parameter}_{_fmt(v)}.socb"
            save_checkpoint(self.path(name), res.phi,
                            cfg.params.with_(**{cfg.sweep.parameter: v}),
                            iteration=res.iterations)
        if study.slope is not None:
            self.notes.append(f"fit_slope {_fmt(study.slope)}")
            self.notes.append(f"fit_intercept {_fmt(study.intercept)}")
        if study.fitted_c0 is not None:
            # fitted prefactor of the energy-competition law; reported as a
            # fit only, with no claim of a known true value
            self.notes.append(f"fitted_c0 {_fmt(study.fitted_c0)}")
        # an unconverged point is still a result: named here, exit stays 0
        failed = [_fmt(v) for v, res in zip(study.values, study.results)
                  if not res.converged]
        if failed:
            self.warn(f"unconverged sweep points: {cfg.sweep.parameter} = "
                      + ", ".join(failed))

    def run_com_compare(self):
        cfg = self.config
        psi0 = self._initial_state()
        series = self._run_evolution(psi0)
        times = series.times
        xc_pde = series.xc[:, 0]

        obs0 = series.records[0]
        inputs = ComClosedFormInputs.from_state(psi0, cfg.params)
        xc_closed = xc_closed_form(inputs, times)

        lda_thm = lda_ode_solve(
            lda_initial_from_imbalance(obs0.xc[0], obs0.delta_n, cfg.params),
            cfg.params, cfg.lda.tau, cfg.lda.t_end,
        )
        lda_meas = lda_ode_solve(
            LdaState(xc=float(obs0.xc[0]), px=float(obs0.momentum[0])),
            cfg.params, cfg.lda.tau, cfg.lda.t_end,
        )
        header = ["t", "xc_pde", "xc_closed_form", "xc_lda", "xc_lda_measured"]
        rows = []
        for i, t in enumerate(times):
            rows.append([
                t, xc_pde[i], xc_closed[i],
                np.interp(t, lda_thm.times, lda_thm.xc),
                np.interp(t, lda_meas.times, lda_meas.xc),
            ])
        _write_csv(self.path("lda_compare.csv"), header, rows)

        drift = float(np.abs(lda_thm.conserved - lda_thm.conserved[0]).max())
        self.notes.append(f"lda_conserved_drift {_fmt(drift)}")
        for name, xc_b, tb in (("closed_form", xc_closed, times),
                               ("lda", lda_thm.xc, lda_thm.times),
                               ("lda_measured", lda_meas.xc, lda_meas.times)):
            cmp = compare_series(times, xc_pde, tb, xc_b)
            self.notes.append(f"max_dev_{name} {_fmt(cmp.max_dev)}")


def run(config: ExperimentConfig, out_dir=None, threads: int = 1) -> int:
    """Execute one experiment; returns the process exit status (0 or 2).

    Every failure, from `preflight`'s rules to a solver error or an
    unreadable checkpoint, keeps the partial artifacts and writes the
    manifest and a FAILED marker with the diagnostics next to them.

    `threads` only accepts 1, and any other value raises ValueError before
    the output directory is made: every multi-start runs its starts in
    order.  The keyword stays because the benchmark child
    (`perfbench/child.py`) passes `threads=1`; it goes once that call
    stops passing it.
    """
    if threads != 1:
        raise ValueError(f"runs are single-threaded; got threads={threads!r}")
    r = _Run(config, out_dir)
    r.out.mkdir(parents=True, exist_ok=True)
    failed = r.out / "FAILED"
    if failed.exists():
        failed.unlink()
    try:
        for w in preflight(config):
            r.warn(w)
        getattr(r, f"run_{config.mode}")()
    except (RunFailure, ValueError, ArithmeticError, OSError) as exc:
        r.write_manifest("failed")
        write_atomic(failed, (str(exc) + "\n").encode("utf-8"))
        return EXIT_SOLVER
    r.write_manifest("ok")
    return EXIT_OK
