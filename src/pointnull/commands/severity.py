"""severity: the severity curve and the warranted discrepancy."""

import math

# A severity grid is built as a Python list; this many points take about
# half a second and 90 MB.
_MAX_GRID_POINTS = 100_000


def run(args, cli) -> tuple[dict, dict, list]:
    problem = cli.NormalProblem(theta0=args.theta0, sigma=args.sigma, n=args.n, xbar=args.xbar)
    if args.grid_points < 1:
        raise ValueError("--grid-points must be at least 1")
    if args.grid_points > _MAX_GRID_POINTS:
        raise ValueError(f"--grid-points must be at most {_MAX_GRID_POINTS}")
    sem = problem.sem
    lo = args.grid_lo if args.grid_lo is not None else problem.xbar - 3.0 * sem
    hi = args.grid_hi if args.grid_hi is not None else problem.xbar + 3.0 * sem
    if (args.grid_lo is None and not math.isfinite(lo)) or (
        args.grid_hi is None and not math.isfinite(hi)
    ):
        raise ValueError(
            f"the default grid xbar +/- 3*sem overflows at |xbar| = {abs(problem.xbar):.6g} "
            f"(sem = {sem:.6g}); pass --grid-lo and --grid-hi"
        )
    if args.grid_points == 1:
        grid = [lo]
    else:
        # where hi - lo overflows, the points come from halved operands,
        # which is exact at that scale; a finite grid keeps its bytes
        scale = 1.0 if math.isfinite(hi - lo) else 0.5
        step = (scale * hi - scale * lo) / (args.grid_points - 1)
        grid = [(scale * lo + i * step) / scale for i in range(args.grid_points)]
        grid[-1] = hi
        if args.grid_lo is None and args.grid_hi is None and any(
            b <= a for a, b in zip(grid, grid[1:])
        ):
            raise ValueError(
                f"the default grid xbar +/- 3*sem collapses at |xbar| = {abs(problem.xbar):.6g} "
                f"(sem = {sem:.6g}); pass --grid-lo and --grid-hi"
            )
    curve = cli.severity_curve(problem, grid, args.level)
    rows = [
        {"theta1": th, "gamma": th - problem.theta0, "severity": sev}
        for th, sev in curve.points
    ]
    # footer row: the warranted point itself lies on the curve, so it is a
    # valid (theta1, gamma, severity) triple
    g = curve.warranted_gamma
    rows.append({"theta1": problem.theta0 + g, "gamma": g, "severity": args.level})
    inputs = {
        **problem._asdict(),
        "level": args.level,
        "grid_lo": lo,
        "grid_hi": hi,
        "grid_points": args.grid_points,
    }
    results = {"warranted_gamma": g, "rows": rows}
    provenance = [
        ["warranted_gamma", "closed-form"],
        ["rows", "closed-form; final row is the warranted point"],
    ]
    return inputs, results, provenance
