"""binomial: the count-data point-null test."""


def run(args, cli) -> tuple[dict, dict, list]:
    problem = cli.BinomialProblem(n=args.n, x=args.x, theta0=args.theta0)
    z = cli.binomial_z(problem)
    p = cli.binomial_p_value(problem)
    bf_flat = cli.binomial_bf_flat(problem)
    provenance = [
        ["z", "normal-approximation-null-sd"],
        ["p_value", "normal-approximation-null-sd"],
        ["bf_flat", "exact-flat-prior-integral"],
    ]
    try:
        bf_laplace = cli.binomial_bf_laplace(problem)
        provenance.append(["bf_laplace", "laplace-approximation"])
    except ValueError as exc:
        bf_laplace = None
        provenance.append(["bf_laplace", f"unavailable: {exc}"])
    inputs = problem._asdict()
    results = {
        "phat": problem.phat,
        "z": z,
        "p_value": p,
        "bf_flat": bf_flat,
        "bf_laplace": bf_laplace,
    }
    return inputs, results, provenance
