"""Batch front-end: config parsing, dispatch, gating and serialization.

Each ``cmd_*`` handler returns (results, summary, failure); ``main`` alone
writes the JSON, prints the summary and turns the failure into the exit
code: 0 success, 2 config error, 3 solver error, 4 regression mismatch.
Results are JSON with the resolved config and toolkit version embedded;
wall-clock timestamps live in a separate ``meta`` block so the payload is
byte-stable for a fixed config and seed.  The environment variable
``CPFLOW_OUTPUT_DIR`` sets the default output directory.
"""

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__, verify
from .channel import (
    ForceField,
    LinearizedChannelSolver,
    export_field_csv,
    field_h_norm,
    field_header,
    recover_pressure_gradient,
)
from .errors import BaselineMismatchError, ConfigError, CpflowError
from .forcing import compile_expression
from .nonlinear import NonlinearChannelSolver, PicardConfig, advection_modes
from .os_solver import apriori_ratio, sigma_diagnostics, solve_os_mode
from .profiles import Profile, check_admissibility, couette, poiseuille_for_flux
from .spectral import GridFunction, build_grid
from .spectrum import neutral_search, os_spectrum

SCHEMA = "cpflow-result/1"


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


def _add_force_args(sp):
    sp.add_argument("--f", default="0.0*y", help="streamwise force expression in x, y")
    sp.add_argument("--g", default="0.0*y", help="wall-normal force expression in x, y")


# The shared numerics flags, and the defaults of the ones each command reads.
NUMERICS_HELP = {"N": "collocation degree", "K": "Fourier mode cutoff", "xi0": "fundamental wavenumber",
                 "tol": "iteration/search tolerance", "max_iter": "fixed-point iteration cap",
                 "seed": "seed for randomized measurements"}
NUMERICS = {
    "solve-mode": {"N": 64},
    "solve-linear": {"N": 48, "K": 8, "xi0": 1.0},
    "solve-nonlinear": {"N": 48, "K": 8, "xi0": 1.0, "tol": 1e-8, "max_iter": 100, "seed": 0},
    "spectrum": {"N": 120},
    "neutral-search": {"N": 200, "tol": 1e-6},  # 1e-8 is below the N = 300 Re lambda roundoff
    "verify-estimates": {"N": 64, "seed": 0},
    "symmetry-check": {"N": 32, "K": 8, "xi0": 1.0},
    "regression": {"N": 48, "K": 8, "xi0": 1.0, "seed": 0},
}
COMMANDS = tuple(NUMERICS)  # the eight commands, in usage order


def _command(argv):
    """The command argv starts with (top-level options all exit), or None."""
    return argv[0] if argv and argv[0] in COMMANDS else None


def build_parser(argv=()):
    """The parser, with arguments for the command argv names, or for all eight."""
    ap = argparse.ArgumentParser(prog="cpflow", description=__doc__)
    ap.add_argument("--version", action="version", version=f"cpflow {__version__}")
    command = _command(argv)
    # a parser built for one command still names all eight in its usage line
    usage_name = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True, metavar=usage_name)

    def add(name, help_text, profile=True):
        """The subparser of ``name`` with its shared arguments; None if argv names another."""
        if command not in (None, name):
            return None
        sp = sub.add_parser(name, help=help_text)
        if profile:
            _add_profile_args(sp)
        sp.add_argument("--config", default=None, help="flat KEY=VALUE config file; flags override")
        for flag, default in NUMERICS[name].items():
            sp.add_argument("--" + flag.replace("_", "-"), type=type(default), default=default,
                            help=NUMERICS_HELP[flag])
        sp.add_argument("--output", default=None, help="output path (default: <command>.json)")
        return sp

    if sp := add("solve-mode", "solve one forced Orr-Sommerfeld mode"):
        sp.add_argument("--xi", type=float, required=True, help="mode wavenumber (nonzero)")
        sp.add_argument("--h", default="sin(pi*y)", help="source expression in y")

    if sp := add("solve-linear", "solve the linearized channel problem"):
        _add_force_args(sp)

    if sp := add("solve-nonlinear", "fixed-point solve of the nonlinear problem"):
        _add_force_args(sp)
        sp.add_argument("--delta", type=float, default=None, help="ball radius (default from measured constants)")
        sp.add_argument("--symmetry", choices=("X1", "Y1"), default=None)

    if sp := add("spectrum", "resolution-filtered stability spectrum at (A, T)", profile=False):
        sp.add_argument("--A", type=float, required=True)
        sp.add_argument("--T", type=float, required=True)

    if sp := add("neutral-search", "locate the neutral crossing of the leading growth rate", profile=False):
        sp.add_argument("--reA-min", type=float, default=5000.0, help="lower bracket of -3A")
        sp.add_argument("--reA-max", type=float, default=6500.0, help="upper bracket of -3A")
        sp.add_argument("--T-min", type=float, default=0.8)
        sp.add_argument("--T-max", type=float, default=1.3)
        sp.add_argument("--N-check", type=int, default=300, help="verification resolution")

    add("verify-estimates", "run the energy-estimate battery for a profile")
    add("symmetry-check", "parity cancellation integrals for an even profile")

    if sp := add("regression", "compare measured constants against a stored baseline"):
        sp.add_argument("--baseline", required=True, help="baseline JSON path")
        sp.add_argument("--record", action="store_true", help="write the baseline instead of comparing")

    return ap


def _boolean(raw):
    """A switch's config value: true or false."""
    if raw not in ("true", "false"):
        raise ValueError("a switch takes true or false")
    return raw == "true"


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
    command = _command(argv)
    if command is None:
        raise ConfigError(f"config file needs a known command as the first word, got {argv[:1]}")
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    sp = sub.choices[command]
    typed = {}
    for action in sp._actions:
        if action.dest in pairs and action.dest not in ("help", "config"):  # not settings of a run
            raw = pairs.pop(action.dest)
            convert = _boolean if isinstance(action, argparse._StoreTrueAction) else action.type or str
            try:  # the conversion and choices check a flag's value gets
                value = convert(raw)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"not one of {list(action.choices)}")
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"config value {action.dest}={raw!r}: {exc}") from None
            typed[action.dest] = value
            action.required = False  # the file supplies it
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
    for name, v in sorted(vars(args).items()):
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"numerics value {name} must be finite, got {v}")
    names = ("xi", "T", "T_min", "T_max")
    wave = max(abs(getattr(args, "K", 0) * getattr(args, "xi0", 0.0)),
               *(abs(getattr(args, n, 0.0)) for n in names))
    if wave > sys.float_info.max**0.25:  # the mode operators take xi^4
        raise ConfigError(f"wavenumber {wave} overflows at the fourth power")
    for name in ("N", "K", "xi0", "tol", "max_iter", "T", "T_min", "T_max"):
        v = getattr(args, name, None)
        if v is not None and v <= 0:
            raise ConfigError(f"numerics value {name} must be positive, got {v}")
    if getattr(args, "xi", None) == 0.0:
        raise ConfigError("mode wavenumber xi must be nonzero")
    if args.N < 8:
        raise ConfigError(f"collocation degree N must be at least 8, got {args.N}")


def output_path(args):
    if args.output:
        path = args.output
    else:
        base = os.environ.get("CPFLOW_OUTPUT_DIR", ".")
        path = os.path.join(base, f"{args.command}.json")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"output directory not writable: {parent}")
    return path


def data_path(path, suffix=".csv"):
    """The data file written next to the JSON payload at ``path``."""
    if (data := os.path.splitext(path)[0] + suffix) == path:
        raise ConfigError(f"output {path} collides with its data file {data}; use a .json name")
    return data


def write_json(args, results, path):
    payload = {"schema": SCHEMA, "version": __version__, "results": results,
               "config": {k: v for k, v in sorted(vars(args).items()) if k != "config"},
               "meta": {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}}
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, default=_tolist, allow_nan=False)
    except ValueError as exc:  # NaN or inf in the results
        raise CpflowError(f"non-finite result, not written: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
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


def cmd_solve_mode(args, path):
    p = resolve_profile(args)
    grid = build_grid(args.N)
    h_fn = compile_expression(args.h)
    h = GridFunction(grid, h_fn(np.zeros_like(grid.nodes), grid.nodes))
    sol = solve_os_mode(p, args.xi, h, grid)
    r_h, r_l2 = apriori_ratio(sol, h)
    results = {
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
        results["sigma"] = {k: getattr(d, k)
                            for k in ("boundary_ok", "a00_value", "poincare_ratio", "energy_lhs")}
    return results, f"solve-mode: residual {sol.residual_norm:.3e}, ratios ({r_h:.4g}, {r_l2:.4g})", None


def _force_from_args(args, grid):
    f_fn, g_fn = compile_expression(args.f), compile_expression(args.g)
    return ForceField.from_callables(args.xi0, args.K, grid, f_fn, g_fn)


def cmd_solve_linear(args, path):
    csv_path = data_path(path)
    p = resolve_profile(args)
    grid = build_grid(args.N)
    force = _force_from_args(args, grid)
    solver = LinearizedChannelSolver(p, grid, args.K, args.xi0)
    fld = solver.solve(force)
    grad = recover_pressure_gradient(p, fld, force)
    header = field_header(fld, p)
    header["residual_rel"] = fld.solve_info["residual_rel"]
    header["curl_residual"] = grad.curl_residual
    export_field_csv(fld, csv_path, pressure=grad)
    results = {"header": header, "field_csv": os.path.basename(csv_path)}
    return results, f"solve-linear: residual {header['residual_rel']:.3e}, field -> {csv_path}", None


def cmd_solve_nonlinear(args, path):
    csv_path, trace_path = data_path(path), data_path(path, "_trace.csv")
    p = resolve_profile(args)
    grid = build_grid(args.N)
    force = _force_from_args(args, grid)
    if args.symmetry == "X1" and (force.f.any() or force.g.any()):
        raise ConfigError("--symmetry X1 needs a zero force: F d/dx takes forced solves out of X1")
    if args.symmetry == "Y1":  # the class the map keeps for an even profile and Y1 data
        if p.B != 0.0:
            raise ConfigError("--symmetry Y1 needs an even profile (B = 0)")
        f, g = force.f, force.g  # the nodes are symmetric: column j mirrors to column N - j
        scale = max(np.abs(f).max(), np.abs(g).max())
        if max(np.abs(f - f[:, ::-1]).max(), np.abs(g + g[:, ::-1]).max()) > 1e-12 * scale:
            raise ConfigError("--symmetry Y1 needs a y-even f and a y-odd g")
    solver = NonlinearChannelSolver(p, grid, args.K, args.xi0)
    delta = args.delta
    if delta is None:  # the radius the measured kappa0 and c1 give
        delta = verify.measured_ball(p, grid, args.K, args.xi0, args.seed, solver.linear)[2]
    cfg = PicardConfig(delta=delta, tol=args.tol, max_iter=args.max_iter, symmetry_class=args.symmetry)
    fld, trace = solver.solve(force, cfg)
    grad = recover_pressure_gradient(p, fld, force, nonlinear_modes=advection_modes(fld, fld))
    export_field_csv(fld, csv_path, pressure=grad)
    with open(trace_path, "w") as fh:
        fh.write("iteration,increment,norm\n")
        for i, (nv, inc) in enumerate(trace.iterates):
            fh.write(f"{i},{inc:.17g},{nv:.17g}\n")
    results = {k: getattr(trace, k) for k in ("converged", "n_iter", "contraction_factor", "final_residual")}
    results.update(delta=delta, H2_norm=field_h_norm(fld, 2), curl_residual=grad.curl_residual)
    summary = (f"solve-nonlinear: converged={trace.converged} after {trace.n_iter} iterations, "
               f"residual {trace.final_residual:.3e}")
    return results, summary, None


def cmd_spectrum(args, path):
    csv_path = data_path(path)
    res = os_spectrum(args.A, args.T, args.N, with_vectors=False)
    with open(csv_path, "w") as fh:
        fh.write("re,im,resolved\n")
        cols = (res.raw.real, res.raw.imag, res.resolved_mask.astype(int))
        fh.write("%.17g,%.17g,%d\n" * len(res.raw) % tuple(np.column_stack(cols).ravel()))
    results = {
        "A": args.A,
        "T": args.T,
        "leading": res.leading,
        "n_resolved": res.n_resolved,
        "spectrum_csv": os.path.basename(csv_path),
    }
    return results, f"spectrum: leading {res.leading:.6g}, {res.n_resolved} resolved -> {csv_path}", None


def cmd_neutral_search(args, path):
    npt = neutral_search((args.T_min, args.T_max), (args.reA_min, args.reA_max), tol=args.tol,
                         N=args.N, N_check=args.N_check)
    results = {
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
    summary = (f"neutral-search: -3A1={-3*npt.A1:.4f} T0={npt.T0:.6f} "
               f"Im(lambda1)={npt.lambda1.imag:.4f} reversal={npt.reversal_confirmed}")
    return results, summary, None


def cmd_verify_estimates(args, path):
    p = resolve_profile(args)
    if not check_admissibility(p).satisfies_abc:
        raise ConfigError("verify-estimates needs an admissible profile")
    checks = verify.estimate_battery(p, build_grid(args.N), args.seed)
    all_green = all(v for v in checks.values() if isinstance(v, (bool, np.bool_)))
    results = {"profile": p.to_dict(), "checks": checks, "all_green": bool(all_green)}
    failure = None if all_green else CpflowError("estimate verification failed; see report")
    return results, f"verify-estimates: {'all green' if all_green else 'FAILED'} -> {path}", failure


def cmd_symmetry_check(args, path):
    p = resolve_profile(args)
    if p.B != 0.0:
        raise ConfigError("symmetry-check needs an even profile (B = 0)")
    check = verify.symmetry_cancellation(p, build_grid(args.N), args.K, args.xi0)
    failure = None if check["ok"] else CpflowError("symmetry cancellation violated")
    summary = f"symmetry-check: worst normalized integral {check['worst_cancellation']:.3e} -> {path}"
    return {"profile": p.to_dict(), **check}, summary, failure


def _same_file(a, b):
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def cmd_regression(args, path):
    p = resolve_profile(args) if (args.profile or args.A is not None) else poiseuille_for_flux(4.0)
    if _same_file(path, args.baseline):
        raise ConfigError(f"output {path} is the baseline file; give another --output")
    base = None if args.record else verify.read_baseline(args.baseline)
    measured = verify.measure_baseline(p, args.N, args.K, args.xi0, args.seed)
    if args.record:  # the baseline is the command's only output
        verify.record_baseline(args.baseline, measured)
        return None, f"regression: baseline recorded -> {args.baseline}", None
    if failures := verify.compare_baseline(base, measured):
        summary = "regression FAILED:\n  " + "\n  ".join(failures)
        failure = BaselineMismatchError(f"{len(failures)} constants outside their tolerance")
    else:
        summary, failure = f"regression: {len(measured)} entries match baseline", None
    return {"measured": measured, "failures": failures}, summary, failure


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
        ap = build_parser(argv)
        _apply_config_file(ap, argv)
        args = ap.parse_args(argv)
        _check_numerics(args)
        path = output_path(args)
        results, summary, failure = HANDLERS[args.command](args, path)
        if results is not None:
            numerics = {k: getattr(args, k) for k in ("N", "K", "xi0", "N_check") if hasattr(args, k)}
            write_json(args, {"numerics": numerics, **results}, path)
        print(summary)
        if failure is not None:
            raise failure
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BaselineMismatchError:  # the summary named the failures
        sys.exit(4)
    except CpflowError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
