"""score: a scoring-rule comparison of the two hypotheses."""


def _prior_from_args(args, sigma: float, cli):
    # the flag table's group already refuses --tau with --tau-equals-sigma
    scale_given = args.tau is not None or args.tau_equals_sigma
    if args.alt == "flat" and scale_given:
        raise ValueError("--alt flat conflicts with a conjugate scale flag")
    if scale_given or args.alt == "conjugate":
        if args.c is not None:
            raise ValueError("--c applies only to the flat alternative")
        return cli.AlternativePrior.conjugate(sigma if args.tau is None else args.tau)
    return cli.AlternativePrior.flat(c=1.0 if args.c is None else args.c)


def run(args, cli) -> tuple[dict, dict, list]:
    problem = cli._problem_from_args(args)
    prior = _prior_from_args(args, problem.sigma, cli)
    compare = {"log": cli.log_score_compare, "hyvarinen": cli.hyvarinen_compare}
    report = compare.get(args.rule, cli.sprenger_kl_report)(problem, prior)
    inputs = {"rule": args.rule, **problem._asdict(), "prior": prior.kind, "tau": prior.tau, "c": prior.c}
    results = {
        "s0": report.s0,
        "s1": report.s1,
        "diff": report.diff,
        "selection": report.selection,
        "select_null": report.select_null,
        "tie": report.tie,
        "c_dependent": report.c_dependent,
    }
    provenance = [["s0", "penalty-convention"], ["s1", "penalty-convention"]]
    return inputs, results, provenance
