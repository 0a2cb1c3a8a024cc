"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

A pass runs the workload's whole input set once as a closed loop, one job
at a time. Each job is timed on its own by the ``jobs`` stopwatch (work
that is not a job, such as the Newton batch, by ``other``); the
correctness checks run after the job's timer stops. ``Check`` rows count
violations against their base and say whether a violation is a failed
operation (the program refused or gave up) or a wrong output (the
program answered, incorrectly).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# fig4_basin: one reproduce("fig4") call per job. The preset fixes every
# input, including the probe RNG, so the seed does not change this job.
FIG4_RESOLUTION = 11
FIG4_OUTPUTS = ("labels.csv", "boundary_points.csv", "surface.obj", "surface_lattice.csv", "summary.txt")

# trajectory_batch: one simulate replay per draw. Each rendered config
# sets t_max = 200: about a third of the runs end there, and the few slow
# oscillating runs no longer dominate the batch, which keeps the batch
# time steady from seed to seed.
TRAJ_JOBS = 700
TRAJ_T_MAX = 200.0
TRAJ_ZERO_PROB = 0.25
TRAJ_ENDPOINT_TOL = 1e-3

# equilibrium_scan: sweep + transcritical pass per draw, then one Newton batch.
EQ_DRAWS = 40
EQ_SWEEP_POINTS = 11
EQ_WINDOW = (0.1, 2.0)
EQ_TRANSCRITICAL_PARAMS = ("K", "a")
EQ_NEWTON_STARTS_PER_DRAW = 1250
# A converged root counts as interior when every component exceeds this,
# the threshold of the test suite's no-interior-equilibrium criterion;
# Newton leaves rounding-level positive values on boundary points.
EQ_INTERIOR_FLOOR = 1e-8

WORKLOADS = ("fig4_basin", "trajectory_batch", "equilibrium_scan")


@dataclass
class Check:
    violations: int = 0
    base: int = 0
    wrong_output: bool = False
    note: str = ""


@dataclass
class PassResult:
    attempted: int
    failed: int
    checks: dict[str, Check]
    digest: str
    errors: list[str] = field(default_factory=list)
    # Filled in by the runner: wall seconds of the pass, its stopwatches and
    # the process's peak resident memory (KiB) when it ended.
    elapsed: float = 0.0
    jobs: object = None
    other: object = None
    max_rss_kb: int = 0


def draw_parameter_matrix(rng: np.random.Generator, n: int, keys: tuple[str, ...]) -> np.ndarray:
    """Rows from the test-suite box: rates U[0.05, 2], s, r, L, K U[0.1, 2]."""
    matrix = rng.uniform(0.05, 2.0, size=(n, len(keys)))
    for key in ("s", "r", "L", "K"):
        matrix[:, keys.index(key)] = rng.uniform(0.1, 2.0, size=n)
    return matrix


def _file_digest(h, path: Path) -> bytes:
    data = path.read_bytes()
    h.update(data)
    return data


class Fig4Basin:
    name = "fig4_basin"
    seed_independent = True

    def __init__(self, prog, seed: int, workdir: Path):
        self.prog = prog
        self.out = workdir / "fig4"

    def sizes(self) -> dict:
        return {"resolution": FIG4_RESOLUTION, "jobs_per_pass": 1}

    def warm_up(self) -> None:
        self.prog.figures.reproduce("fig1", self.out.parent / "warmup")

    def run_pass(self, paused, jobs, other) -> PassResult:
        prog = self.prog
        checks = {
            "step_failures": Check(),
            "skipped_segments": Check(),
            "saddle_gap_above_1e-2": Check(wrong_output=True),
            "side_probes_below_95pct": Check(wrong_output=True),
        }
        try:
            summary = jobs.time(lambda: prog.figures.reproduce("fig4", self.out, resolution=FIG4_RESOLUTION))
        except prog.integrate.StepFailureError as err:
            checks["step_failures"] = Check(1, 1, note=str(err))
            return PassResult(1, 1, checks, "")

        checks["step_failures"].base = 1
        checks["skipped_segments"] = Check(summary["n_skipped"], summary["n_segments"])
        gap = summary["saddle_gap"]
        checks["saddle_gap_above_1e-2"] = Check(int(not gap <= 1e-2), 1, True, f"gap {gap:.3e}")
        frac = summary["side_fraction"]
        checks["side_probes_below_95pct"] = Check(
            int(not frac >= 0.95), 1, True, f"{summary['side_matches']}/{summary['side_total']}"
        )
        h = hashlib.sha256()
        for name in FIG4_OUTPUTS:
            _file_digest(h, self.out / name)
        failed = int(any(c.violations for c in checks.values()))
        return PassResult(1, failed, checks, h.hexdigest())


class TrajectoryBatch:
    name = "trajectory_batch"
    seed_independent = False

    def __init__(self, prog, seed: int, workdir: Path):
        self.prog = prog
        self.out = workdir / "simulate"
        keys = prog.model.PARAMETER_KEYS
        rng = np.random.default_rng(seed)
        matrix = draw_parameter_matrix(rng, TRAJ_JOBS, keys)
        starts = rng.uniform(0.0, 2.0, size=(TRAJ_JOBS, 4))
        zero = rng.random((TRAJ_JOBS, 4)) < TRAJ_ZERO_PROB
        keep = rng.integers(0, 4, size=TRAJ_JOBS)
        all_zero = zero.all(axis=1)
        zero[all_zero, keep[all_zero]] = False
        starts[zero] = 0.0
        self.starts = starts
        self.params = [prog.model.ModelParameters.from_dict(dict(zip(keys, row))) for row in matrix]
        self.texts = [self._render(keys, row, start) for row, start in zip(matrix, starts)]

    @staticmethod
    def _render(keys, row, start) -> str:
        lines = ["[parameters]"]
        lines += [f"{k} = {float(v)!r}" for k, v in zip(keys, row)]
        lines += ["", "[initial]"]
        lines += [f"{k} = {float(v)!r}" for k, v in zip("PSVW", start)]
        lines += ["", "[integration]", f"t_max = {TRAJ_T_MAX!r}"]
        return "\n".join(lines) + "\n"

    def sizes(self) -> dict:
        zeroed = int((self.starts == 0.0).sum())
        return {"jobs_per_pass": TRAJ_JOBS, "t_max": TRAJ_T_MAX, "zeroed_start_components": zeroed}

    def _simulate(self, text: str):
        """The body of the ``simulate`` command, without its printing."""
        prog = self.prog
        run = prog.config.parse_config(text)
        start = run.require_initial()
        traj = prog.integrate.integrate(run.params, tuple(start), run.integration)
        self.out.mkdir(parents=True, exist_ok=True)
        with open(self.out / "trajectory.csv", "w") as fh:
            prog.integrate.write_trajectory_csv(traj, fh)
        return traj

    def warm_up(self) -> None:
        self._simulate(self.texts[0])

    def run_pass(self, paused, jobs, other) -> PassResult:
        prog = self.prog
        checks = {
            "step_failures": Check(),
            "unexpected_errors": Check(wrong_output=True),
            "negative_samples": Check(wrong_output=True),
            "zero_component_left_face": Check(wrong_output=True),
            "csv_mismatch": Check(wrong_output=True),
            "endpoint_off_catalog": Check(wrong_output=True),
        }
        h = hashlib.sha256()
        errors = []
        failed = 0
        for i, text in enumerate(self.texts):
            try:
                traj = jobs.time(lambda: self._simulate(text))
            except prog.integrate.StepFailureError as err:
                checks["step_failures"].violations += 1
                checks["step_failures"].base += 1
                errors.append(f"job {i}: {err}")
                failed += 1
                continue
            except Exception as err:  # a job must not end the run; record it
                checks["unexpected_errors"].violations += 1
                errors.append(f"job {i}: {type(err).__name__}: {err}")
                failed += 1
                continue
            checks["step_failures"].base += 1
            with paused():
                bad = self._check(i, traj, checks, h)
            failed += bad
        checks["unexpected_errors"].base = len(self.texts)
        return PassResult(len(self.texts), failed, checks, h.hexdigest(), errors)

    def _check(self, i: int, traj, checks: dict[str, Check], h) -> int:
        start = self.starts[i]
        states = traj.states
        bad = False
        for name in ("negative_samples", "zero_component_left_face", "csv_mismatch"):
            checks[name].base += 1
        if (states < 0.0).any():
            checks["negative_samples"].violations += 1
            bad = True
        # P, V and W faces are invariant; S = 0 only while V = W = 0 too,
        # since recovery feeds S.
        frozen = [k for k in (0, 2, 3) if start[k] == 0.0]
        if start[1] == 0.0 and start[2] == 0.0 and start[3] == 0.0:
            frozen.append(1)
        if frozen and (states[:, frozen] != 0.0).any():
            checks["zero_component_left_face"].violations += 1
            bad = True
        data = _file_digest(h, self.out / "trajectory.csv")
        lines = data.decode().splitlines()
        last = np.array([float(v) for v in lines[-1].split(",")[1:]])
        if len(lines) != len(traj) + 1 or not np.array_equal(last, traj.final_state):
            checks["csv_mismatch"].violations += 1
            bad = True
        if traj.termination == self.prog.integrate.CONVERGED:
            checks["endpoint_off_catalog"].base += 1
            final = traj.final_state
            gaps = [
                float(np.max(np.abs(final - rec.coordinates)))
                for rec in self.prog.equilibria.catalog(self.params[i])
                if rec.coordinates is not None and rec.feasible
            ]
            if not gaps or min(gaps) > TRAJ_ENDPOINT_TOL:
                checks["endpoint_off_catalog"].violations += 1
                bad = True
        return int(bad)


class EquilibriumScan:
    name = "equilibrium_scan"
    seed_independent = False

    def __init__(self, prog, seed: int, workdir: Path):
        self.prog = prog
        self.out = workdir / "sweep"
        keys = prog.model.PARAMETER_KEYS
        rng = np.random.default_rng(seed)
        self.matrix = draw_parameter_matrix(rng, EQ_DRAWS, keys)
        self.params = [prog.model.ModelParameters.from_dict(dict(zip(keys, row))) for row in self.matrix]
        self.newton_params, self.newton_starts = prog.equilibria.random_interior_starts(
            self.matrix, EQ_NEWTON_STARTS_PER_DRAW, rng
        )

    def sizes(self) -> dict:
        return {
            "draws_per_pass": EQ_DRAWS,
            "sweep_points": EQ_SWEEP_POINTS,
            "window": list(EQ_WINDOW),
            "transcritical_attempts": EQ_DRAWS * len(self.prog.bifurcation.SUPPORTED_PAIRS) * 2,
            "newton_rows": len(self.newton_starts),
        }

    def _draw_job(self, params):
        """Sweep K and write it, then locate every supported crossing."""
        prog = self.prog
        lo, hi = EQ_WINDOW
        result = prog.bifurcation.sweep(params, "K", lo, hi, EQ_SWEEP_POINTS)
        self.out.mkdir(parents=True, exist_ok=True)
        with open(self.out / "sweep.csv", "w") as fh:
            prog.bifurcation.write_sweep_csv(result, fh)
        crossings = []
        for pair in prog.bifurcation.SUPPORTED_PAIRS:
            for parameter in EQ_TRANSCRITICAL_PARAMS:
                try:
                    point = prog.bifurcation.find_transcritical(params, parameter, pair, lo, hi)
                except prog.bifurcation.NoSignChangeError:
                    crossings.append((pair, parameter, "skipped"))
                except RuntimeError as err:
                    crossings.append((pair, parameter, f"failed: {err}"))
                else:
                    crossings.append((pair, parameter, repr(point.critical_value)))
        return result, crossings

    def warm_up(self) -> None:
        self._draw_job(self.params[0])
        self.prog.equilibria.batched_newton(self.newton_params[:16], self.newton_starts[:16])

    def run_pass(self, paused, jobs, other) -> PassResult:
        prog = self.prog
        checks = {
            "transcritical_validation_failed": Check(),
            "unexpected_errors": Check(wrong_output=True),
            "sweep_rows_not_8_per_point": Check(wrong_output=True),
            "interior_newton_roots": Check(wrong_output=True),
        }
        h = hashlib.sha256()
        errors = []
        attempted = failed = 0
        n_ids = len(prog.equilibria.EQUILIBRIUM_IDS)
        for i, params in enumerate(self.params):
            try:
                result, crossings = jobs.time(lambda: self._draw_job(params))
            except Exception as err:  # a job must not end the run; record it
                checks["unexpected_errors"].violations += 1
                errors.append(f"draw {i}: {type(err).__name__}: {err}")
                attempted += 1
                failed += 1
                continue
            data = _file_digest(h, self.out / "sweep.csv")
            rows = len(result.rows)
            attempted += 1
            checks["sweep_rows_not_8_per_point"].base += 1
            if rows != n_ids * EQ_SWEEP_POINTS or data.count(b"\n") != rows + 1:
                checks["sweep_rows_not_8_per_point"].violations += 1
                failed += 1
            for pair, parameter, outcome in crossings:
                h.update(f"{pair}{parameter}{outcome}".encode())
                if outcome == "skipped":
                    continue
                attempted += 1
                checks["transcritical_validation_failed"].base += 1
                if outcome.startswith("failed"):
                    checks["transcritical_validation_failed"].violations += 1
                    errors.append(f"draw {i} {pair} along {parameter}: {outcome}")
                    failed += 1
        checks["unexpected_errors"].base = len(self.params)

        roots, converged = other.time(
            lambda: prog.equilibria.batched_newton(self.newton_params, self.newton_starts)
        )
        h.update(roots.tobytes())
        interior = int((converged & (roots > EQ_INTERIOR_FLOOR).all(axis=1)).sum())
        checks["interior_newton_roots"] = Check(interior, int(converged.sum()), True)
        attempted += 1
        failed += int(interior > 0)
        return PassResult(attempted, failed, checks, h.hexdigest(), errors)


def make(name: str, prog, seed: int, workdir: Path):
    classes = {cls.name: cls for cls in (Fig4Basin, TrajectoryBatch, EquilibriumScan)}
    return classes[name](prog, seed, workdir)
