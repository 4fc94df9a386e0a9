"""report: both verdicts for one problem."""


def run(args, cli) -> tuple[dict, dict, list]:
    problem = cli._problem_from_args(args)
    # report always uses the proper conjugate alternative; tau defaults to
    # sigma, which is also what --tau-equals-sigma spells out
    prior = cli.AlternativePrior.conjugate(args.tau if args.tau is not None else problem.sigma)
    weights = cli.HypothesisWeights(rho0=args.rho0)
    report = cli.evaluate_test(problem, prior, weights, args.alpha)
    inputs = {**problem._asdict(), "tau": prior.tau, "rho0": weights.rho0, "alpha": args.alpha}
    results = {
        "t": report.t,
        "p_value": report.p_value,
        "bf01": report.bf01,
        "bf01_savage_dickey": cli.savage_dickey_bf(problem, prior),
        "post_prob0": report.post_prob0,
        "reject_frequentist": report.reject_frequentist,
        "favor_null_bayes": report.favor_null_bayes,
        "paradoxical": report.paradoxical,
    }
    provenance = [
        ["p_value", "closed-form"],
        ["bf01", "conjugate-marginal-ratio"],
        ["bf01_savage_dickey", "posterior-to-prior-density-ratio"],
        ["post_prob0", "odds-identity"],
    ]
    return inputs, results, provenance
