"""Command-line interface.

Subcommands wrap the library operations: simulate, equilibria, stability,
sweep, basin, separatrix, reproduce. Each takes a config file (except
reproduce, which carries its own presets and takes only --out and --tol),
writes its primary outputs as CSV/JSONL files under --out, and prints a
short summary to stdout.

Exit codes: 0 success, 2 configuration error (basin and separatrix inputs
are all checked before any run), 3 I/O error, 4 numerical failure, 5 a
reproduced scenario missed its tolerance (every requested scenario still
runs and writes its outputs first).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import basin as basin_mod
from .bifurcation import (
    NoSignChangeError,
    SUPPORTED_PAIRS,
    UnsupportedPairError,
    find_transcritical,
    sweep,
    write_sweep_csv,
)
from .config import ConfigError, RunConfig, dump_config, load_config
from .equilibria import (
    DegenerateEquilibriumError,
    EQUILIBRIUM_IDS,
    _catalog,
    catalog,
    compute_equilibrium,
    records_to_jsonl,
    thresholds,
)
from .figures import FIGURE_NAMES, reproduce
from .integrate import IntegrationConfig, StepFailureError, integrate, write_trajectory_csv
from .stability import EigenSolverError, _spectrum, classify, classify_eigenvalues, verdicts_to_jsonl

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_TOLERANCE = 5

_NUMERIC_ERRORS = (
    StepFailureError,
    EigenSolverError,
    DegenerateEquilibriumError,
    NoSignChangeError,
    UnsupportedPairError,
    basin_mod.DegenerateGeometryError,
    basin_mod.FitResidualError,
)


def _build_parser() -> argparse.ArgumentParser:
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--out", type=Path, default=Path("."), help="output directory")
    base.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override the relative integration tolerance (absolute = value/100); "
        "separatrix and fig4 bisect at no tighter than 1e-5 and certify each final "
        "bracket at this tolerance",
    )
    common = argparse.ArgumentParser(add_help=False, parents=[base])
    common.add_argument("--config", type=Path, help="INI run configuration")
    common.add_argument(
        "--dump-config",
        action="store_true",
        help="print the parsed config in canonical form and exit",
    )

    parser = argparse.ArgumentParser(
        prog="twostrain",
        description="two-competitor, two-strain model: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", parents=[common], help="integrate one trajectory")

    sub.add_parser("equilibria", parents=[common], help="write the equilibrium catalog")

    sub.add_parser("stability", parents=[common], help="write stability verdicts")

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep one parameter")
    p_sweep.add_argument("--param", required=True, help="parameter name to vary")
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--n", type=int, required=True, help="grid point count")

    p_basin = sub.add_parser("basin", parents=[common], help="classify a grid of start states")
    p_basin.add_argument("--resolution", type=int, default=21)
    p_basin.add_argument(
        "--bounds",
        default="0:2,0:3,0:2.5",
        help="slice box as lo:hi,lo:hi,lo:hi over (P, S, V); the second strain stays absent",
    )
    p_basin.add_argument(
        "--attractors",
        default=None,
        help="comma-separated equilibrium ids (default: all stable feasible ones)",
    )
    p_basin.add_argument("--match-radius", type=float, default=0.05)

    p_sep = sub.add_parser(
        "separatrix",
        parents=[common],
        help="locate and fit the basin boundary",
        description="Locate the basin boundary by bisecting the opposite-basin corner pairs of a "
        "grid, and fit a surface to it. Bisection midpoints run at a relative tolerance of at "
        "least 1e-5; each final bracket's ends are then certified at the configured tolerance, "
        "and a segment with an end that changes side is bisected again at it.",
    )
    p_sep.add_argument("--graph-axis", default="V", help="axis the boundary is a graph over")
    p_sep.add_argument(
        "--resolution",
        type=int,
        default=21,
        help="harvest grid resolution; boundary segments are the opposite-basin corner pairs of its cells",
    )
    p_sep.add_argument("--bounds", default="0:2,0:3,0:2.5")
    p_sep.add_argument("--attractors", default=None)
    p_sep.add_argument("--match-radius", type=float, default=0.05)
    p_sep.add_argument("--bisect-tol", type=float, default=1e-4)

    p_repro = sub.add_parser("reproduce", parents=[base], help="run a named scenario")
    p_repro.add_argument("figure", choices=FIGURE_NAMES + ("all",))
    return parser


def _integration(args: argparse.Namespace, base: IntegrationConfig) -> IntegrationConfig:
    """``base`` with the ``--tol`` override applied, if one is given."""
    if args.tol is None:
        return base
    if not args.tol > 0.0:
        raise ConfigError("--tol must be positive")
    try:
        return base.with_tolerance(args.tol)
    except ValueError as err:
        raise ConfigError(f"--tol {args.tol!r}: {err}") from err


def _load(args: argparse.Namespace) -> RunConfig:
    if args.config is None:
        raise ConfigError("--config is required for this command")
    run = load_config(args.config)
    return replace(run, integration=_integration(args, run.integration))


def _maybe_dump(args: argparse.Namespace, run: RunConfig) -> bool:
    if args.dump_config:
        sys.stdout.write(dump_config(run))
        return True
    return False


def _parse_bounds(text: str) -> tuple[tuple[float, float], ...]:
    try:
        parts = text.split(",")
        bounds = tuple(tuple(float(v) for v in part.split(":")) for part in parts)
    except ValueError as err:
        raise ConfigError(f"malformed --bounds {text!r}: {err}") from err
    if len(bounds) != 3 or any(len(b) != 2 for b in bounds):
        raise ConfigError(f"--bounds needs three lo:hi ranges, got {text!r}")
    return bounds


def _basin_inputs(args: argparse.Namespace, run: RunConfig):
    """Bounds and attractors of a basin command, every input checked before any run."""
    bounds = _parse_bounds(args.bounds)
    attractors = _select_attractors(run, args.attractors)
    try:
        basin_mod._check_grid(bounds, args.resolution, attractors, args.match_radius)
        if args.command == "separatrix":
            basin_mod._check_bisect_tol(args.bisect_tol)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return bounds, attractors


def _select_attractors(run: RunConfig, selection: str | None):
    if selection:
        ids = [token.strip() for token in selection.split(",") if token.strip()]
    else:
        ids = []
        t = thresholds(run.params)
        for rec in _catalog(run.params, t):
            if rec.feasible and classify_eigenvalues(_spectrum(run.params, rec, t)).startswith("stable"):
                ids.append(rec.id)
        if len(ids) < 2:
            raise ConfigError(
                f"auto-detected {len(ids)} stable feasible equilibria; "
                "pass --attractors with at least two ids"
            )
    records = []
    for eq_id in ids:
        if eq_id not in EQUILIBRIUM_IDS:
            raise ConfigError(f"unknown equilibrium id {eq_id!r} in --attractors")
        records.append((eq_id, compute_equilibrium(run.params, eq_id).coordinates))
    return records


def _cmd_simulate(args: argparse.Namespace) -> int:
    run = _load(args)
    if _maybe_dump(args, run):
        return EXIT_OK
    start = run.require_initial()
    traj = integrate(run.params, tuple(start), run.integration)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "trajectory.csv", "w") as fh:
        write_trajectory_csv(traj, fh)
    final = ", ".join(f"{v:.10g}" for v in traj.final_state)
    print(f"{traj.termination} at t = {traj.final_time:.6g}; final state: ({final})")
    print(f"wrote {args.out / 'trajectory.csv'} ({len(traj)} samples)")
    return EXIT_OK


def _cmd_equilibria(args: argparse.Namespace) -> int:
    run = _load(args)
    if _maybe_dump(args, run):
        return EXIT_OK
    records = catalog(run.params)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "catalog.jsonl").write_text(records_to_jsonl(records))
    for rec in records:
        if rec.coordinates is None:
            print(f"{rec.id}: undefined ({rec.notes})")
        else:
            coords = ", ".join(f"{v:.6g}" for v in rec.coordinates)
            tag = "feasible" if rec.feasible else "infeasible"
            if rec.marginal:
                tag += ", marginal"
            print(f"{rec.id}: ({coords}) [{tag}]")
    print(f"wrote {args.out / 'catalog.jsonl'}")
    return EXIT_OK


def _cmd_stability(args: argparse.Namespace) -> int:
    run = _load(args)
    if _maybe_dump(args, run):
        return EXIT_OK
    verdicts = []
    skipped = []
    for eq_id in EQUILIBRIUM_IDS:
        try:
            verdicts.append(classify(run.params, eq_id))
        except DegenerateEquilibriumError as err:
            skipped.append((eq_id, str(err)))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "verdicts.jsonl").write_text(verdicts_to_jsonl(verdicts))
    for v in verdicts:
        print(f"{v.id}: {v.classification} (lead Re {v.lead_real_part:.6g})")
    for eq_id, msg in skipped:
        print(f"{eq_id}: skipped ({msg})")
    print(f"wrote {args.out / 'verdicts.jsonl'}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    run = _load(args)
    if _maybe_dump(args, run):
        return EXIT_OK
    try:
        result = sweep(run.params, args.param, args.lo, args.hi, args.n)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "sweep.csv", "w") as fh:
        write_sweep_csv(result, fh)
    print(f"wrote {args.out / 'sweep.csv'} ({len(result.rows)} rows)")
    # One row per supported exchange, located over the same window.
    with open(args.out / "crossings.csv", "w") as fh:
        fh.write("eq_a,eq_b,status,critical_value,coincidence_gap,crossing_real_part\n")
        for eq_a, eq_b in SUPPORTED_PAIRS:
            try:
                point = find_transcritical(run.params, args.param, (eq_a, eq_b), args.lo, args.hi)
            except NoSignChangeError:
                fh.write(f"{eq_a},{eq_b},no_sign_change,,,\n")
                continue
            except (RuntimeError, DegenerateEquilibriumError) as err:
                print(f"{eq_a}<->{eq_b}: crossing present but not located ({err})")
                fh.write(f"{eq_a},{eq_b},failed,,,\n")
                continue
            print(
                f"{eq_a}<->{eq_b}: {args.param}* = {point.critical_value:.12g} "
                f"(coincidence gap {point.coincidence_gap:.1e}, "
                f"crossing Re {point.crossing_real_part:.1e})"
            )
            fh.write(
                f"{eq_a},{eq_b},located,{point.critical_value:.17g},"
                f"{point.coincidence_gap:.17g},{point.crossing_real_part:.17g}\n"
            )
    print(f"wrote {args.out / 'crossings.csv'}")
    return EXIT_OK


def _cmd_basin(args: argparse.Namespace) -> int:
    run = _load(args)
    if _maybe_dump(args, run):
        return EXIT_OK
    bounds, attractors = _basin_inputs(args, run)
    grid = basin_mod.classify_grid(
        run.params,
        bounds,
        args.resolution,
        attractors,
        config=run.integration,
        match_radius=args.match_radius,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "labels.csv", "w") as fh:
        basin_mod.write_grid_csv(grid, fh)
    decided = 1.0 - grid.undecided_fraction
    print(
        f"classified {grid.labels.size} nodes toward {', '.join(grid.attractor_ids)}; "
        f"{decided:.1%} decided"
    )
    print(f"wrote {args.out / 'labels.csv'}")
    return EXIT_OK


def _cmd_separatrix(args: argparse.Namespace) -> int:
    run = _load(args)
    if _maybe_dump(args, run):
        return EXIT_OK
    try:
        graph_axis = basin_mod._resolve_axis(args.graph_axis)
    except ValueError as err:
        raise ConfigError(f"--graph-axis: {err}") from err
    bounds, attractors = _basin_inputs(args, run)
    args.out.mkdir(parents=True, exist_ok=True)
    _, segments, sample, model = basin_mod.reconstruct_separatrix(
        run.params,
        bounds,
        args.resolution,
        attractors,
        args.out,
        graph_axis=graph_axis,
        bisect_tol=args.bisect_tol,
        config=run.integration,
        match_radius=args.match_radius,
    )
    print(
        f"{len(sample.points)} boundary points from {len(segments)} boundary-cell "
        f"corner pairs ({len(sample.skipped)} skipped); fit residual {model.fit_residual:.3e}"
    )
    print(
        f"wrote {args.out / 'labels.csv'}, boundary_points.csv, surface.obj, surface_lattice.csv"
    )
    return EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    config = _integration(args, IntegrationConfig())
    names = FIGURE_NAMES if args.figure == "all" else (args.figure,)
    met = 0
    for name in names:
        outdir = args.out / name if len(names) > 1 else args.out
        summary = reproduce(name, outdir, config=config)
        print(f"{name}: wrote {outdir}/summary.txt")
        if "max_deviation" in summary:
            print(f"  max deviation from {summary['target_id']}: {summary['max_deviation']:.3e}")
        if "side_fraction" in summary:
            print(
                f"  undecided {summary['undecided_fraction']:.2%}, "
                f"{summary['n_boundary_points']} boundary points, "
                f"fit residual {summary['fit_residual']:.2e}, "
                f"saddle gap {summary['saddle_gap']:.2e}, "
                f"side consistency {summary['side_fraction']:.2%}, "
                f"runtime {summary['runtime_seconds']:.1f}s"
            )
        met += summary["tolerance_met"]
        print(f"  {'ok' if summary['tolerance_met'] else 'FAIL'}")
    print(f"{met}/{len(names)} scenarios within tolerance")
    return EXIT_OK if met == len(names) else EXIT_TOLERANCE


_COMMANDS = {
    "simulate": _cmd_simulate,
    "equilibria": _cmd_equilibria,
    "stability": _cmd_stability,
    "sweep": _cmd_sweep,
    "basin": _cmd_basin,
    "separatrix": _cmd_separatrix,
    "reproduce": _cmd_reproduce,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a library warning as one ``warning: ...`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except _NUMERIC_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError as err:
        print(f"numerical failure: float overflow {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
