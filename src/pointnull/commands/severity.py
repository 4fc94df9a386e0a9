"""severity: the severity curve and the warranted discrepancy."""

import math

from ..normal import _difference, _finite

# A severity grid is built as a Python list; this many points take about
# half a second and 90 MB.
_MAX_GRID_POINTS = 100_000

# A default grid, xbar +/- 3*sem, that overflows or collapses is refused in these words.
_DEFAULT_GRID = (
    "the default grid xbar +/- 3*sem {} at |xbar| = {:.6g} (sem = {:.6g}); pass --grid-lo and --grid-hi"
)


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
        raise ValueError(_DEFAULT_GRID.format("overflows", abs(problem.xbar), sem))
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
            raise ValueError(_DEFAULT_GRID.format("collapses", abs(problem.xbar), sem))
    curve = cli.severity_curve(problem, grid, args.level)
    rows = []
    for i, (th, sev) in enumerate(curve.points):
        if math.isinf(gamma := th - problem.theta0):
            _finite(_difference(th, problem.theta0), f"gamma of row {i + 1}", "theta0", "theta1")
        rows.append({"theta1": th, "gamma": gamma, "severity": sev})
    # footer row: the warranted point itself lies on the curve, so it is a
    # valid (theta1, gamma, severity) triple
    g = curve.warranted_gamma
    rows.append({"theta1": problem.theta0 + g, "gamma": g, "severity": args.level})
    inputs = {**problem._asdict(), "level": args.level}
    inputs.update(grid_lo=lo, grid_hi=hi, grid_points=args.grid_points)
    results = {"warranted_gamma": g, "rows": rows}
    provenance = [
        ["warranted_gamma", "closed-form"],
        ["rows", "closed-form; final row is the warranted point"],
    ]
    return inputs, results, provenance
