"""Named benchmark scenarios, runnable end to end with expected outcomes.

Five bundled scenarios exercise the whole toolchain on one shared
parameter family. ``fig1``/``fig2``/``fig3`` integrate the same parameter
set from three different starting states, reaching three different
attractors (strain-one endemic without the first competitor, the first
competitor alone, and strain-one endemic coexistence). ``fig4`` is the
basin-geometry pipeline: grid classification, boundary bisection, and
surface fitting on a bistable configuration. ``fig5`` is a small-capacity
configuration whose disease-free coexistence point is the attractor.

Each reproduction writes its data files plus a plain-text summary of the
computed-versus-expected comparison, with a PASS/FAIL verdict against
the scenario's tolerance, and returns the same numbers as a dict
whose ``tolerance_met`` holds the verdict. For fig4 the tolerance bounds
the fitted graph's gap over the saddle, and the verdict also needs 95% of
the side probes right and no skipped segment. Outputs contain no
timestamps or machine state, so reruns on one BLAS build and thread count
are byte-identical. fig4's ``surface.obj``, ``surface_lattice.csv`` and the
fit residual in its ``summary.txt`` come from a linear solve whose last
bits move with the BLAS build and thread count; its labels and boundary
points do not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .basin import _PROBE_OFFSET, reconstruct_separatrix
from .equilibria import _check_count, compute_equilibrium
from .integrate import IntegrationConfig, Trajectory, integrate, write_trajectory_csv
from .model import ModelParameters, rhs
from .stability import classify

__all__ = [
    "FigurePreset",
    "PRESETS",
    "FIG3_REFERENCE_ENDPOINT",
    "reproduce",
    "FIGURE_NAMES",
]

# Shared parameter family for the trajectory scenarios.
_BASE = ModelParameters(
    s=0.4, L=1.5, a=0.3, r=0.7, K=2.0, b=0.7,
    lam=0.7, beta=0.2, psi=0.2, phi=0.7, mu=0.5, nu=0.9, e=0.2, f=0.2,
)

# Bistable configuration for the basin pipeline. Only the first strain is
# active on the analysed slice (the second stays extinct there), so the
# strain-two rates are carried over unchanged from the base family.
_BASIN = _BASE.replace(s=0.3, a=0.2, K=3.0, b=0.5, lam=0.6, psi=0.8, mu=0.3)

# Small-capacity configuration where disease-free coexistence attracts.
_SMALL = _BASE.replace(L=0.5, K=1.0)

# Independently reported endpoint for the fig3 scenario, kept for
# regression comparison. It is not a rest point (the field there is up to
# ~8e-4) and differs from the exact closed form by ~2.2% in the infected
# component. The fig3 run passes within the four-decimal rounding of it at
# t ~ 75.87, while still spiralling into the stable focus E6, so it is a
# transient snapshot. The summary reports that closest approach and keeps
# the closed form as the target.
FIG3_REFERENCE_ENDPOINT = (0.2828, 1.0760, 0.2441, 0.0)


@dataclass(frozen=True)
class FigurePreset:
    """One named scenario: parameters, start state, expected attractor."""

    name: str
    params: ModelParameters
    start: tuple[float, float, float, float] | None
    target_id: str
    tolerance: float
    description: str


PRESETS: dict[str, FigurePreset] = {
    "fig1": FigurePreset(
        name="fig1",
        params=_BASE,
        start=(0.0, 1.8, 0.1, 0.1),
        target_id="E4",
        tolerance=1e-3,
        description="first competitor absent, strain one becomes endemic",
    ),
    "fig2": FigurePreset(
        name="fig2",
        params=_BASE,
        start=(1.7, 0.8, 0.1, 0.1),
        target_id="E1",
        tolerance=1e-3,
        description="first competitor wins, second goes extinct with its strains",
    ),
    "fig3": FigurePreset(
        name="fig3",
        params=_BASE,
        start=(0.1, 1.8, 0.1, 0.1),
        target_id="E6",
        tolerance=1e-3,
        description="coexistence with strain one endemic, strain two extinct",
    ),
    "fig4": FigurePreset(
        name="fig4",
        params=_BASIN,
        start=None,
        target_id="E3",
        tolerance=1e-2,
        description="basin geometry of the bistable exclusion/endemic pair",
    ),
    "fig5": FigurePreset(
        name="fig5",
        params=_SMALL,
        start=(0.1, 0.9, 0.0, 0.0),
        target_id="E3",
        tolerance=1e-6,
        description="small capacities: disease-free coexistence attracts",
    ),
}

FIGURE_NAMES = tuple(PRESETS)

_FIG4_BOUNDS = ((0.0, 2.0), (0.0, 3.0), (0.0, 2.5))


def _write_summary(outdir: Path, lines: list[str]) -> None:
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")


def _closest_approach(
    preset: FigurePreset, traj: Trajectory, point: np.ndarray, config: IntegrationConfig
) -> tuple[float, float]:
    """Time and max abs gap at which the run from ``preset.start`` passes
    closest to ``point``.

    Starts from the nearest accepted step and narrows the interval between
    its neighbouring steps by golden-section search, integrating afresh to
    each trial time.
    """

    def gap_at(t: float) -> float:
        run = integrate(preset.params, preset.start, replace(config, t_max=t))
        return float(np.max(np.abs(run.final_state - point)))

    i = int(np.argmin(np.max(np.abs(traj.states - point), axis=1)))
    lo = float(traj.times[max(i - 1, 0)])
    hi = float(traj.times[min(i + 1, len(traj) - 1)])
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    ga, gb = gap_at(a), gap_at(b)
    while hi - lo > 1e-6:
        if ga <= gb:
            hi, b, gb = b, a, ga
            a = hi - shrink * (hi - lo)
            ga = gap_at(a)
        else:
            lo, a, ga = a, b, gb
            b = lo + shrink * (hi - lo)
            gb = gap_at(b)
    t = 0.5 * (lo + hi)
    return t, gap_at(t)


def _reproduce_trajectory(preset: FigurePreset, outdir: Path, config: IntegrationConfig) -> dict:
    target = compute_equilibrium(preset.params, preset.target_id)
    traj = integrate(preset.params, preset.start, config)
    with open(outdir / "trajectory.csv", "w") as fh:
        write_trajectory_csv(traj, fh)
    final = traj.final_state
    gap = float(np.max(np.abs(final - target.coordinates)))
    ok = gap <= preset.tolerance

    lines = [
        f"scenario {preset.name}: {preset.description}",
        f"start state: {tuple(preset.start)}",
        f"termination: {traj.termination} at t = {traj.final_time:.6g} "
        f"({len(traj)} accepted steps)",
        "final state: (" + ", ".join(f"{v:.10g}" for v in final) + ")",
        f"expected attractor {preset.target_id}: ("
        + ", ".join(f"{v:.10g}" for v in target.coordinates)
        + ")",
        f"max abs deviation: {gap:.3e} (tolerance {preset.tolerance:g}): "
        + ("PASS" if ok else "FAIL"),
    ]
    summary = {
        "name": preset.name,
        "termination": traj.termination,
        "t_end": traj.final_time,
        "final_state": [float(v) for v in final],
        "target_id": preset.target_id,
        "target": [float(v) for v in target.coordinates],
        "max_deviation": gap,
        "tolerance_met": ok,
    }

    if preset.name == "fig3":
        ref = np.asarray(FIG3_REFERENCE_ENDPOINT)
        nonzero = ref != 0.0
        rel = np.zeros_like(ref)
        rel[nonzero] = np.abs(final[nonzero] - ref[nonzero]) / ref[nonzero]
        worst = float(np.max(rel))
        closed_vs_ref = np.zeros_like(ref)
        closed_vs_ref[nonzero] = (
            np.abs(target.coordinates[nonzero] - ref[nonzero]) / ref[nonzero]
        )
        lines.append(
            "reference endpoint: (" + ", ".join(f"{v:.10g}" for v in ref) + ")"
        )
        lines.append(
            "relative deviation from reference per nonzero component: "
            + ", ".join(f"{v:.4%}" for v in rel[nonzero])
        )
        ref_time, ref_gap = _closest_approach(preset, traj, ref, config)
        residual = float(np.max(np.abs(rhs(preset.params, ref))))
        lines.append(
            f"closest approach to reference: t = {ref_time:.6g}, "
            f"max abs deviation {ref_gap:.3e}"
        )
        lines.append(
            f"NOTE: the reference endpoint disagrees with the exact closed-form "
            f"equilibrium by up to {float(np.max(closed_vs_ref)):.2%} and is not a "
            f"rest point (max abs field {residual:.3e} there); the trajectory "
            f"reaches it at the closest approach above, long before converging, "
            f"so the reference values are a transient snapshot, not the equilibrium"
        )
        summary["reference"] = [float(v) for v in ref]
        summary["reference_time"] = ref_time
        summary["reference_gap"] = ref_gap
        summary["reference_relative_deviation"] = [float(v) for v in rel[nonzero]]
        summary["reference_max_relative_deviation"] = worst

    if preset.name == "fig5":
        verdict = classify(preset.params, "E3")
        lines.append(
            f"E3 classification: {verdict.classification}, eigenvalue real parts: "
            + ", ".join(f"{z.real:.6g}" for z in verdict.eigenvalues)
        )
        summary["e3_class"] = verdict.classification

    _write_summary(outdir, lines)
    return summary


def _reproduce_basin(
    preset: FigurePreset,
    outdir: Path,
    config: IntegrationConfig,
    resolution: int,
    n_probes: int,
) -> dict:
    t0 = time.perf_counter()
    params = preset.params
    verdicts = {eq_id: classify(params, eq_id) for eq_id in ("E1", "E3", "E4")}
    attractors = [verdicts["E1"], verdicts["E4"]]

    # Bisect exactly the corner pairs of the grid cells the boundary
    # crosses. The exclusion basin here is a small pocket near the
    # strain-free competitor corner, so fixed full-length segments would
    # waste almost all their runs on single-basin lines. The side probes
    # ride in the bisection's certificate batch.
    grid, segments, sample, model, (matches, total) = reconstruct_separatrix(
        params,
        _FIG4_BOUNDS,
        resolution,
        attractors,
        outdir,
        config=config,
        n_probes=n_probes,
        rng=np.random.default_rng(20260814),
    )

    # The saddle sits on the boundary with its strain-one component zero,
    # so the fitted graph should vanish over its in-plane position.
    saddle = verdicts["E3"].coordinates
    saddle_plane = (float(saddle[0]), float(saddle[1]))
    saddle_gap = abs(float(model.evaluate(saddle_plane)) - float(saddle[2]))

    side_fraction = matches / total
    ok = saddle_gap <= preset.tolerance and side_fraction >= 0.95 and not sample.skipped
    runtime = time.perf_counter() - t0

    lines = [
        f"scenario {preset.name}: {preset.description}",
        "stability: "
        + "; ".join(
            f"{eq_id} {v.classification} (lead Re {v.lead_real_part:.6g})"
            for eq_id, v in verdicts.items()
        ),
        f"grid: {grid.labels.size} nodes at resolution {resolution}, "
        f"undecided fraction {grid.undecided_fraction:.4f}",
        f"boundary: {len(sample.points)} points from {len(segments)} "
        f"opposite-basin cell corner pairs ({len(sample.skipped)} skipped)",
        f"surface fit residual: {model.fit_residual:.3e}",
        f"graph value over the saddle: {saddle_gap:.3e} "
        f"(saddle at {saddle_plane} with zero infected component)",
        f"side-consistency probes: {matches}/{total} = {side_fraction:.4f} "
        f"at offset {_PROBE_OFFSET:g}",
        f"verdict (saddle gap <= {preset.tolerance:g}, side probes >= 95%, "
        "no skipped segment): " + ("PASS" if ok else "FAIL"),
    ]
    _write_summary(outdir, lines)

    return {
        "name": preset.name,
        "stability": {k: v.classification for k, v in verdicts.items()},
        "grid_nodes": int(grid.labels.size),
        "undecided_fraction": grid.undecided_fraction,
        "n_boundary_points": int(len(sample.points)),
        "n_segments": len(segments),
        "n_skipped": len(sample.skipped),
        "n_rebisected": len(sample.rebisected),
        "fit_residual": model.fit_residual,
        "saddle_gap": saddle_gap,
        "side_matches": matches,
        "side_total": total,
        "side_fraction": side_fraction,
        "tolerance_met": ok,
        "runtime_seconds": runtime,
    }


def reproduce(
    name: str,
    outdir: str | Path,
    config: IntegrationConfig | None = None,
    **basin_options,
) -> dict:
    """Run one named scenario, writing its outputs under ``outdir``.

    ``basin_options`` (resolution, n_probes) only apply to the basin
    scenario. Options are checked before ``outdir`` is made: an option
    given to another scenario, a ``resolution`` that is not an int of at
    least 2, or a ``n_probes`` that is not an int of at least 1 raises
    ValueError, and an unknown option TypeError.
    """
    preset = PRESETS.get(name)
    if preset is None:
        raise ValueError(f"unknown scenario {name!r}; expected one of {FIGURE_NAMES}")
    if preset.start is None:
        basin_options = _basin_options(**basin_options)
    elif basin_options:
        raise ValueError(f"options {sorted(basin_options)} only apply to fig4")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = config or IntegrationConfig()
    if preset.start is None:
        return _reproduce_basin(preset, out, cfg, **basin_options)
    return _reproduce_trajectory(preset, out, cfg)


def _basin_options(resolution: int = 21, n_probes: int = 100) -> dict:
    """fig4's options, checked, with their defaults."""
    _check_count("resolution", resolution, 2)
    _check_count("n_probes", n_probes, 1)
    return {"resolution": resolution, "n_probes": n_probes}
