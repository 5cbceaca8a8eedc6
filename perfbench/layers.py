"""Per-layer metrics and work-count cross-checks from a traced run.

Counts (``calls``, iterations, bytes, flops, ratios) come from the first
traced pass, whose inputs depend only on the seed, so they repeat exactly.
Times (``self_s``) are mean seconds per traced pass.  A layer a workload
does not call reports 0.
"""

import statistics
from collections import Counter, defaultdict

from tracer import INFO, NAME

FACTOR = "os_solver.OSModeOperator.__init__"
MODE_SOLVE = "os_solver.OSModeOperator.solve"
ZERO_MODE = "os_solver.solve_os_zero_mode"
SOLVER_BUILD = "channel.LinearizedChannelSolver.__init__"
SOLVE_MODES = "channel.LinearizedChannelSolver.solve_modes"
PICARD_SOLVE = "nonlinear.NonlinearChannelSolver.solve"
PICARD_MAP = "nonlinear.NonlinearChannelSolver.picard_map"
LEADING = "spectrum.leading_eigenvalue"
NEUTRAL = "spectrum.neutral_search"
OS_SPECTRUM = "spectrum.os_spectrum"
CLI_COMMANDS = ("solve-linear", "spectrum", "verify-estimates", "solve-nonlinear")

# metric prefix -> span name, reported as <prefix>.calls and/or <prefix>.self_s
CALLS = {
    "spectral.build_grid": "spectral.build_grid",
    "profiles.check_admissibility": "profiles.check_admissibility",
    "os_solver.factor": FACTOR,
    "os_solver.solve": MODE_SOLVE,
    "os_solver.zero_mode": ZERO_MODE,
    "channel.solve_modes": SOLVE_MODES,
    "channel.synthesize": "channel.synthesize",
    "nonlinear.picard_map": PICARD_MAP,
    "nonlinear.advection": "nonlinear.advection_modes",
    "nonlinear.residual": "nonlinear.nonlinear_residual",
    "spectrum.os_spectrum": OS_SPECTRUM,
}
SELF_TIMES = {
    "spectral.build_grid": "spectral.build_grid",
    "os_solver.factor": FACTOR,
    "os_solver.solve": MODE_SOLVE,
    "os_solver.zero_mode": ZERO_MODE,
    "channel.solver_build": SOLVER_BUILD,
    "channel.solve_modes": SOLVE_MODES,
    "channel.synthesize": "channel.synthesize",
    "channel.field_h_norm": "channel.field_h_norm",
    "channel.x_norm": "channel.x_norm",
    "channel.pressure": "channel.recover_pressure_gradient",
    "channel.export_field_csv": "channel.export_field_csv",
    "nonlinear.advection": "nonlinear.advection_modes",
    "nonlinear.residual": "nonlinear.nonlinear_residual",
    "spectrum.leading_eigenvalue": LEADING,
    "spectrum.os_spectrum": OS_SPECTRUM,
    "spectrum.kernel_witness": "spectrum.kernel_witness",
    "cli.main": "cli.main",
    "cli.write_json": "cli.write_json",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, untraced, traced):
    """Returns ({metric: (value, unit)}, [cross-check failures])."""
    spans = tracer.spans
    selfs = tracer.self_times()
    n_passes = len(traced)

    self_sum = defaultdict(float)
    unattributed = 0.0
    for wall, _recs, (lo, hi) in traced:
        for i in range(lo, hi):
            self_sum[spans[i][NAME]] += selfs[i]
        unattributed += wall - sum(selfs[lo:hi])

    _wall, first_recs, (lo, hi) = traced[0]
    first = range(lo, hi)
    calls = Counter(spans[i][NAME] for i in first)
    infos = defaultdict(list)
    for i in first:
        if spans[i][INFO] is not None:
            infos[spans[i][NAME]].append(spans[i][INFO])

    solves = infos[PICARD_SOLVE]  # (n_iter, started without w0, converged, residual)
    resolved = infos[OS_SPECTRUM]  # (n_resolved, n_raw)
    search_evals = [spans[i][INFO] for i in first
                    if spans[i][NAME] == LEADING and tracer.has_ancestor(i, NEUTRAL)]

    m = {}
    for prefix, name in CALLS.items():
        m[f"{prefix}.calls"] = (calls[name], "count")
    for prefix, name in SELF_TIMES.items():
        m[f"{prefix}.self_s"] = (self_sum[name] / n_passes, "s")
    m["os_solver.rcond_min"] = (min(infos[FACTOR], default=0.0), "ratio")
    m["channel.synthesize.gflop"] = (sum(infos["channel.synthesize"]) / 1e9, "GFLOP")
    m["channel.export_field_csv.bytes"] = (sum(infos["channel.export_field_csv"]), "B")
    m["nonlinear.picard_iters"] = (sum(s[0] for s in solves), "count")
    m["nonlinear.converged_frac"] = (_ratio(sum(s[2] for s in solves), len(solves)), "ratio")
    m["nonlinear.residual_per_solve"] = (
        _ratio(calls["nonlinear.nonlinear_residual"], len(solves)), "calls/solve")
    for n in (200, 300):
        m[f"spectrum.leading_eigenvalue.calls.N{n}"] = (infos[LEADING].count(n), "count")
    m["spectrum.eigensolves"] = (calls[LEADING] + 2 * calls[OS_SPECTRUM], "count")
    m["spectrum.resolved_frac"] = (
        _ratio(sum(r[0] for r in resolved), sum(r[1] for r in resolved)), "ratio")
    m["spectrum.neutral_search.evals"] = (len(search_evals), "count")
    m["spectrum.neutral_search.fine_frac"] = (
        _ratio(search_evals.count(max(search_evals, default=0)), len(search_evals)), "ratio")
    for cmd in CLI_COMMANDS:
        m[f"cli.main.calls.{cmd}"] = (infos["cli.main"].count(cmd), "count")
    m["cli.bytes_written"] = (
        sum(r["counters"].get("cli.bytes_written", 0) for r in first_recs), "B")
    m["trace.overhead_s"] = (
        statistics.median(w for w, _r, _s in traced)
        - statistics.median(w for w, _r, _s in untraced), "s")
    m["trace.unattributed_s"] = (unattributed / n_passes, "s")
    return m, cross_checks(tracer, traced)


def cross_checks(tracer, traced):
    """Wrapper counts against the program's own outputs, on every traced pass.

    A wrapper that misses a by-name binding undercounts here.
    """
    spans = tracer.spans
    problems = []
    for _wall, _recs, (lo, hi) in traced:
        for i in range(lo, hi):
            name, info = spans[i][NAME], spans[i][INFO]
            if name == NEUTRAL and info is not None:
                got = tracer.descendants(i, LEADING)
                if got != info + 1:
                    problems.append(f"neutral_search: {got} leading_eigenvalue calls, "
                                    f"len(trace) + 1 = {info + 1}")
            elif name == PICARD_SOLVE and info is not None:
                want = info[0] + (1 if info[1] else 0)
                got = tracer.descendants(i, PICARD_MAP)
                if got != want:
                    problems.append(f"picard solve: {got} picard_map calls, expected {want}")
            elif name == SOLVER_BUILD and info is not None:
                k = tracer.descendants(i, FACTOR)
                if k != info:
                    problems.append(f"solver build: {k} factorizations for K = {info}")
            elif name == SOLVE_MODES:
                k = tracer.descendants(i, FACTOR)
                if k != 1:
                    problems.append(f"solve_modes: {k} factorizations, expected 1 (k = 0)")
    return problems
