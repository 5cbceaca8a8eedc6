"""Batch front-end: config parsing, dispatch, serialization, baselines.

Exit codes: 0 success, 2 config error, 3 solver error, 4 regression
mismatch.  Results are JSON with the resolved config and toolkit version
embedded; wall-clock timestamps live in a separate ``meta`` block so the
payload is byte-stable for a fixed config and seed.  The environment
variable ``CPFLOW_OUTPUT_DIR`` sets the default output directory.
"""

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .channel import (
    ChannelField,
    ForceField,
    LinearizedChannelSolver,
    check_symmetry_cancellation,
    export_field_csv,
    field_h_norm,
    field_header,
    recover_pressure_gradient,
)
from .errors import ConfigError, CpflowError
from .forcing import compile_expression
from .nonlinear import (
    PicardConfig,
    advection_modes,
    contraction_ball_radius,
    measure_c1,
    measure_contraction,
    measure_kappa0,
    picard_solve,
)
from .os_solver import apriori_ratio, sigma_diagnostics, solve_os_mode
from .profiles import Profile, check_admissibility, couette, poiseuille_for_flux
from .spectral import GridFunction, build_grid, poincare_ratio
from .spectrum import neutral_search, os_spectrum

SCHEMA = "cpflow-result/1"

COMMANDS = (
    "solve-mode",
    "solve-linear",
    "solve-nonlinear",
    "spectrum",
    "neutral-search",
    "verify-estimates",
    "symmetry-check",
    "regression",
)


def _add_profile_args(sp):
    sp.add_argument("--A", type=float, default=None, help="quadratic coefficient")
    sp.add_argument("--B", type=float, default=None, help="linear coefficient")
    sp.add_argument("--C", type=float, default=None, help="constant coefficient")
    sp.add_argument(
        "--profile", choices=("poiseuille", "couette"), default=None,
        help="named profile family instead of raw coefficients",
    )
    sp.add_argument("--flux", type=float, default=4.0, help="flux of the named poiseuille profile")
    sp.add_argument("--shear", type=float, default=1.0, help="shear rate of the named couette profile")


def _add_common(sp, n_default=64):
    sp.add_argument("--config", default=None, help="flat KEY=VALUE config file; flags override")
    sp.add_argument("--N", type=int, default=n_default, help="collocation degree")
    sp.add_argument("--K", type=int, default=8, help="Fourier mode cutoff")
    sp.add_argument("--xi0", type=float, default=1.0, help="fundamental wavenumber")
    sp.add_argument("--tol", type=float, default=1e-8, help="iteration/search tolerance")
    sp.add_argument("--max-iter", type=int, default=100, help="fixed-point iteration cap")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized measurements")
    sp.add_argument("--output", default=None, help="output path (default: <command>.json)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser():
    ap = argparse.ArgumentParser(prog="cpflow", description=__doc__)
    ap.add_argument("--version", action="version", version=f"cpflow {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-mode", help="solve one forced Orr-Sommerfeld mode")
    _add_profile_args(sp)
    _add_common(sp)
    sp.add_argument("--xi", type=float, required=True, help="mode wavenumber (nonzero)")
    sp.add_argument("--h", default="sin(pi*y)", help="source expression in y")

    sp = sub.add_parser("solve-linear", help="solve the linearized channel problem")
    _add_profile_args(sp)
    _add_common(sp, n_default=48)
    sp.add_argument("--f", default="0.0*y", help="streamwise force expression in x, y")
    sp.add_argument("--g", default="0.0*y", help="wall-normal force expression in x, y")

    sp = sub.add_parser("solve-nonlinear", help="fixed-point solve of the nonlinear problem")
    _add_profile_args(sp)
    _add_common(sp, n_default=48)
    sp.add_argument("--f", default="0.0*y", help="streamwise force expression in x, y")
    sp.add_argument("--g", default="0.0*y", help="wall-normal force expression in x, y")
    sp.add_argument("--delta", type=float, default=None, help="ball radius (default from measured constants)")
    sp.add_argument("--symmetry", choices=("X1", "Y1"), default=None)

    sp = sub.add_parser("spectrum", help="resolution-filtered stability spectrum at (A, T)")
    _add_common(sp, n_default=120)
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--T", type=float, required=True)

    sp = sub.add_parser("neutral-search", help="locate the neutral crossing of the leading growth rate")
    _add_common(sp, n_default=200)
    sp.add_argument("--reA-min", type=float, default=5000.0, help="lower bracket of -3A")
    sp.add_argument("--reA-max", type=float, default=6500.0, help="upper bracket of -3A")
    sp.add_argument("--T-min", type=float, default=0.8)
    sp.add_argument("--T-max", type=float, default=1.3)
    sp.add_argument("--N-check", type=int, default=300, help="verification resolution")

    sp = sub.add_parser("verify-estimates", help="run the energy-estimate battery for a profile")
    _add_profile_args(sp)
    _add_common(sp)

    sp = sub.add_parser("symmetry-check", help="parity cancellation integrals for an even profile")
    _add_profile_args(sp)
    _add_common(sp, n_default=32)

    sp = sub.add_parser("regression", help="compare measured constants against a stored baseline")
    _add_profile_args(sp)
    _add_common(sp, n_default=48)
    sp.add_argument("--baseline", required=True, help="baseline JSON path")
    sp.add_argument("--record", action="store_true", help="write the baseline instead of comparing")

    return ap


def _apply_config_file(ap, argv):
    """Two-phase parse: the config file sets defaults, flags override."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if known.config is None:
        return
    try:
        with open(known.config) as fh:
            pairs = {}
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"malformed config line: {line!r}")
                key, val = line.split("=", 1)
                pairs[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    if command not in COMMANDS:
        raise ConfigError(f"config file given without a known command: {command!r}")
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    sp = sub.choices[command]
    typed = {}
    for action in sp._actions:
        if action.dest in pairs:
            raw = pairs.pop(action.dest)
            typed[action.dest] = action.type(raw) if action.type else raw
    if pairs:
        raise ConfigError(f"unknown config keys: {sorted(pairs)}")
    sp.set_defaults(**typed)


def resolve_profile(args):
    if args.profile == "poiseuille":
        return poiseuille_for_flux(args.flux)
    if args.profile == "couette":
        return couette(args.shear)
    if args.A is None or args.B is None or args.C is None:
        raise ConfigError("give either --profile or all of --A --B --C")
    return Profile(args.A, args.B, args.C)


def _check_numerics(args):
    for name in ("N", "K", "xi0", "tol", "max_iter"):
        v = getattr(args, name, None)
        if v is not None and v <= 0:
            raise ConfigError(f"numerics value {name} must be positive, got {v}")
    if args.N < 8:
        raise ConfigError(f"collocation degree N must be at least 8, got {args.N}")


def output_path(args, suffix=".json"):
    if args.output:
        path = args.output
    else:
        base = os.environ.get("CPFLOW_OUTPUT_DIR", ".")
        path = os.path.join(base, f"{args.command}{suffix}")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"output directory not writable: {parent}")
    return path


def _payload(args, results):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("config",)}
    return {
        "schema": SCHEMA,
        "version": __version__,
        "config": cfg,
        "results": results,
        "meta": {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()},
    }


def write_json(args, results, path=None):
    path = output_path(args) if path is None else path
    with open(path, "w") as fh:
        json.dump(_payload(args, results), fh, indent=2, sort_keys=True, default=_tolist)
        fh.write("\n")
    return path


def _tolist(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve_mode(args):
    p = resolve_profile(args)
    grid = build_grid(args.N)
    h_fn = compile_expression(args.h)
    h = GridFunction(grid, h_fn(np.zeros_like(grid.nodes), grid.nodes))
    sol = solve_os_mode(p, args.xi, h, grid)
    r_h, r_l2 = apriori_ratio(sol, h)
    results = {
        "numerics": {"N": args.N},
        "profile": p.to_dict(),
        "xi": args.xi,
        "residual_norm": sol.residual_norm,
        "lhs_energy": sol.lhs_energy,
        "rcond": sol.rcond,
        "r_hminus1": r_h,
        "r_l2": r_l2,
    }
    if check_admissibility(p).satisfies_abc:
        d = sigma_diagnostics(sol, p)
        results["sigma"] = {
            "boundary_ok": d.boundary_ok,
            "a00_value": d.a00_value,
            "poincare_ratio": d.poincare_ratio,
            "energy_lhs": d.energy_lhs,
        }
    print(f"solve-mode: residual {sol.residual_norm:.3e}, ratios ({r_h:.4g}, {r_l2:.4g})")
    return write_json(args, results)


def _force_from_args(args, grid):
    f_fn = compile_expression(args.f)
    g_fn = compile_expression(args.g)
    return ForceField.from_callables(args.xi0, args.K, grid, f_fn, g_fn)


def cmd_solve_linear(args):
    p = resolve_profile(args)
    grid = build_grid(args.N)
    force = _force_from_args(args, grid)
    solver = LinearizedChannelSolver(p, grid, args.K, args.xi0)
    fld = solver.solve(force)
    grad = recover_pressure_gradient(p, fld, force)
    header = field_header(fld, p)
    header["residual_rel"] = fld.solve_info["residual_rel"]
    header["curl_residual"] = grad.curl_residual
    base = output_path(args)
    csv_path = os.path.splitext(base)[0] + ".csv"
    export_field_csv(fld, csv_path, pressure=grad)
    results = {"numerics": {"N": args.N, "K": args.K, "xi0": args.xi0}, "header": header,
               "field_csv": os.path.basename(csv_path)}
    print(f"solve-linear: residual {header['residual_rel']:.3e}, field -> {csv_path}")
    return write_json(args, results, path=base)


def cmd_solve_nonlinear(args):
    p = resolve_profile(args)
    grid = build_grid(args.N)
    force = _force_from_args(args, grid)
    if args.delta is None:
        k0 = measure_kappa0(p, grid, args.K, args.xi0, n_samples=8, seed=args.seed)
        c1 = measure_c1(grid, args.K, args.xi0, n_pairs=8, seed=args.seed + 1)
        delta = contraction_ball_radius(k0, c1)
    else:
        delta = args.delta
    cfg = PicardConfig(delta=delta, tol=args.tol, max_iter=args.max_iter, symmetry_class=args.symmetry)
    fld, trace = picard_solve(p, force, cfg, grid, args.K, args.xi0)
    grad = recover_pressure_gradient(p, fld, force, nonlinear_modes=advection_modes(fld, fld))
    base = output_path(args)
    stem = os.path.splitext(base)[0]
    export_field_csv(fld, stem + ".csv", pressure=grad)
    with open(stem + "_trace.csv", "w") as fh:
        fh.write("iteration,increment,norm\n")
        for i, (nv, inc) in enumerate(trace.iterates):
            fh.write(f"{i},{inc:.17g},{nv:.17g}\n")
    results = {
        "numerics": {"N": args.N, "K": args.K, "xi0": args.xi0},
        "delta": delta,
        "converged": trace.converged,
        "n_iter": trace.n_iter,
        "contraction_factor": trace.contraction_factor,
        "final_residual": trace.final_residual,
        "H2_norm": field_h_norm(fld, 2),
        "curl_residual": grad.curl_residual,
    }
    print(
        f"solve-nonlinear: converged={trace.converged} after {trace.n_iter} iterations, "
        f"residual {trace.final_residual:.3e}"
    )
    return write_json(args, results, path=base)


def cmd_spectrum(args):
    grid = build_grid(args.N)
    res = os_spectrum(args.A, args.T, grid, with_vectors=False)
    base = output_path(args)
    csv_path = os.path.splitext(base)[0] + ".csv"
    with open(csv_path, "w") as fh:
        fh.write("re,im,resolved\n")
        cols = (res.raw.real, res.raw.imag, res.resolved_mask.astype(int))
        fh.write("%.17g,%.17g,%d\n" * len(res.raw) % tuple(np.column_stack(cols).ravel()))
    results = {
        "numerics": {"N": args.N},
        "A": args.A,
        "T": args.T,
        "leading": res.leading,
        "n_resolved": res.n_resolved,
        "spectrum_csv": os.path.basename(csv_path),
    }
    print(f"spectrum: leading {res.leading:.6g}, {res.n_resolved} resolved -> {csv_path}")
    return write_json(args, results, path=base)


def cmd_neutral_search(args):
    npt = neutral_search(
        (args.T_min, args.T_max),
        (args.reA_min, args.reA_max),
        tol=args.tol,
        N=args.N,
        N_check=args.N_check,
    )
    results = {
        "numerics": {"N": args.N, "N_check": args.N_check},
        "A1": npt.A1,
        "minus3A1": -3.0 * npt.A1,
        "T0": npt.T0,
        "lambda1": npt.lambda1,
        "im_lambda1_over_T0": npt.lambda1.imag / npt.T0,
        "phase_speed": -npt.lambda1.imag / (npt.T0 * (-3.0 * npt.A1)),
        "C_counter": npt.C_counter,
        "reversal_confirmed": npt.reversal_confirmed,
        "trace": [{"iterate": i, **entry} for i, entry in enumerate(npt.trace)],
    }
    print(
        f"neutral-search: -3A1={-3*npt.A1:.4f} T0={npt.T0:.6f} "
        f"Im(lambda1)={npt.lambda1.imag:.4f} reversal={npt.reversal_confirmed}"
    )
    return write_json(args, results)


def _estimate_battery(p, args):
    grid = build_grid(args.N)
    rng = np.random.default_rng(args.seed)
    checks = {}
    # Poincare equality case and lower bound
    sig = GridFunction.from_callable(grid, lambda y: np.cos(np.pi * y / 2.0))
    checks["poincare_equality"] = abs(poincare_ratio(sig) - np.pi**2 / 4.0) < 1e-8
    lows = []
    for _ in range(20):
        c = rng.normal(size=4)
        vals = (1.0 - grid.nodes**2) * np.polynomial.chebyshev.chebval(grid.nodes, c)
        lows.append(poincare_ratio(GridFunction(grid, vals)))
    checks["poincare_lower_bound"] = min(lows) >= np.pi**2 / 4.0 - 1e-8
    # manufactured solve
    phi = np.polynomial.Polynomial([1.0, 0.0, -2.0, 0.0, 1.0])
    F = np.polynomial.Polynomial([p.C, p.B, 3.0 * p.A])
    worst = 0.0
    for xi in (0.5, 1.0, 5.0):
        lin = phi.deriv(4) - 2.0 * xi**2 * phi.deriv(2) + xi**4 * phi
        ost = F * (phi.deriv(2) - xi**2 * phi) - 6.0 * p.A * phi
        h = GridFunction(grid, lin(grid.nodes) - 1j * xi * ost(grid.nodes))
        sol = solve_os_mode(p, xi, h, grid)
        worst = max(worst, float(np.abs(sol.phi.values - phi(grid.nodes)).max()))
    checks["manufactured_max_error"] = worst
    checks["manufactured_ok"] = worst < 1e-9
    # energy inequality and a priori ratios over a xi sweep
    basis = np.array([np.ones_like(grid.nodes), grid.nodes, np.sin(np.pi * grid.nodes), np.exp(grid.nodes)])
    ineq_ok = True
    a00_ok = True
    rmax = 0.0
    for xi in np.geomspace(0.1, 20.0, 12):
        hv = rng.normal(size=4) @ basis + 1j * (rng.normal(size=4) @ basis)
        h = GridFunction(grid, hv)
        sol = solve_os_mode(p, xi, h, grid)
        d = sigma_diagnostics(sol, p)
        rhs = grid.quad(hv * np.conj(d.sigma.values)).real
        scale = abs(d.energy_lhs) + abs(rhs) + 1e-300
        ineq_ok &= d.energy_lhs <= rhs + 1e-8 * scale
        a00_ok &= d.a00_value <= 1e-10 * (1.0 + abs(d.a00_value))
        r_h, r_l2 = apriori_ratio(sol, h)
        rmax = max(rmax, max(r_h, r_l2))
    checks["energy_inequality"] = bool(ineq_ok)
    checks["wall_term_sign"] = bool(a00_ok)
    checks["apriori_ratio_bound"] = rmax
    # zero source -> zero solution
    zero = solve_os_mode(p, 1.0, GridFunction(grid, np.zeros(grid.N + 1, dtype=complex)), grid)
    checks["zero_source_zero_solution"] = float(np.abs(zero.phi.values).max()) == 0.0
    return checks


def cmd_verify_estimates(args):
    p = resolve_profile(args)
    if not check_admissibility(p).satisfies_abc:
        raise ConfigError("verify-estimates needs an admissible profile")
    checks = _estimate_battery(p, args)
    flags = [v for v in checks.values() if isinstance(v, (bool, np.bool_))]
    all_green = all(flags)
    results = {"numerics": {"N": args.N}, "profile": p.to_dict(), "checks": checks,
               "all_green": bool(all_green)}
    path = write_json(args, results)
    print(f"verify-estimates: {'all green' if all_green else 'FAILED'} -> {path}")
    if not all_green:
        raise CpflowError("estimate verification failed; see report")
    return path


def cmd_symmetry_check(args):
    p = resolve_profile(args)
    if p.B != 0.0:
        raise ConfigError("symmetry-check needs an even profile (B = 0)")
    grid = build_grid(args.N)
    env = (1.0 - grid.nodes**2) ** 2
    K = args.K
    worst = 0.0
    for parity in ("cos", "sin"):
        psi = np.zeros((2 * K + 1, grid.N + 1), dtype=complex)
        if parity == "cos":
            psi[K + 1] = env / 2.0
            psi[K - 1] = env / 2.0
        else:
            psi[K + 1] = env / 2.0j
            psi[K - 1] = -env / 2.0j
        fld = ChannelField(args.xi0, K, grid, psi)
        i1, i2 = check_symmetry_cancellation(p, fld)
        scale = field_h_norm(fld, 2) ** 2 + 1e-300
        worst = max(worst, abs(i1) / scale, abs(i2) / scale)
    results = {"numerics": {"N": args.N, "K": K, "xi0": args.xi0},
               "profile": p.to_dict(), "worst_cancellation": worst,
               "ok": worst < 1e-10}
    path = write_json(args, results)
    print(f"symmetry-check: worst normalized integral {worst:.3e} -> {path}")
    if worst >= 1e-10:
        raise CpflowError("symmetry cancellation violated")
    return path


BASELINE_TOLERANCES = {
    "kappa0": 1e-6,
    "c1": 1e-6,
    "contraction_ratio": 1e-6,
    "apriori_ratio_bound": 1e-6,
    "neutral_minus3A": 1e-3,
    "neutral_T0": 1e-3,
    "neutral_im_over_T0": 1e-3,
}


def measure_baseline(args, p):
    """Measured constants at reduced, deterministic numerics."""
    grid = build_grid(args.N)
    k0 = measure_kappa0(p, grid, args.K, args.xi0, n_samples=8, seed=args.seed)
    c1 = measure_c1(grid, args.K, args.xi0, n_pairs=8, seed=args.seed + 1)
    delta = contraction_ball_radius(k0, c1)
    ratio = measure_contraction(p, None, delta, grid, args.K, args.xi0,
                                n_pairs=8, seed=args.seed + 2)
    checks = _estimate_battery(p, args)
    npt = neutral_search((0.9, 1.15), (5600.0, 6000.0), tol=1e-3, N=96, N_check=144,
                         T_tol=1e-4, agreement_rtol=5e-3)
    return {
        "kappa0": k0,
        "c1": c1,
        "contraction_ratio": ratio,
        "apriori_ratio_bound": checks["apriori_ratio_bound"],
        "neutral_minus3A": -3.0 * npt.A1,
        "neutral_T0": npt.T0,
        "neutral_im_over_T0": npt.lambda1.imag / npt.T0,
    }


def cmd_regression(args):
    p = resolve_profile(args) if (args.profile or args.A is not None) else poiseuille_for_flux(4.0)
    if not args.record and not os.path.exists(args.baseline):
        raise ConfigError(f"baseline file not found: {args.baseline} (use --record)")
    measured = measure_baseline(args, p)
    if args.record:
        with open(args.baseline, "w") as fh:
            json.dump({"schema": "cpflow-baseline/1", "version": __version__,
                       "tolerances": BASELINE_TOLERANCES, "values": measured},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"regression: baseline recorded -> {args.baseline}")
        return args.baseline
    with open(args.baseline) as fh:
        base = json.load(fh)
    failures = []
    for key, val in measured.items():
        ref = base["values"][key]
        tol = base.get("tolerances", BASELINE_TOLERANCES).get(key, 1e-6)
        if not math.isclose(val, ref, rel_tol=tol, abs_tol=tol):
            failures.append(f"{key}: measured {val!r} vs baseline {ref!r} (tol {tol})")
    write_json(args, {"numerics": {"N": args.N, "K": args.K}, "measured": measured,
                      "failures": failures})
    if failures:
        print("regression FAILED:\n  " + "\n  ".join(failures))
        sys.exit(4)
    print(f"regression: {len(measured)} entries match baseline")
    return args.baseline


HANDLERS = {
    "solve-mode": cmd_solve_mode,
    "solve-linear": cmd_solve_linear,
    "solve-nonlinear": cmd_solve_nonlinear,
    "spectrum": cmd_spectrum,
    "neutral-search": cmd_neutral_search,
    "verify-estimates": cmd_verify_estimates,
    "symmetry-check": cmd_symmetry_check,
    "regression": cmd_regression,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ap = build_parser()
        _apply_config_file(ap, argv)
        args = ap.parse_args(argv)
        _check_numerics(args)
        HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    except SystemExit:
        raise
    except CpflowError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
