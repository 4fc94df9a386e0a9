"""score: a scoring-rule comparison of the two hypotheses."""


def run(args, cli) -> tuple[dict, dict, list]:
    cli._load("normal", "scores")
    problem = cli._problem_from_args(args)
    prior = cli._prior_from_args(args, problem.sigma)
    compare = {"log": cli.log_score_compare, "hyvarinen": cli.hyvarinen_compare}
    report = compare.get(args.rule, cli.sprenger_kl_report)(problem, prior)
    inputs = {
        "rule": args.rule,
        "theta0": problem.theta0,
        "sigma": problem.sigma,
        "n": problem.n,
        "xbar": problem.xbar,
        "prior": prior.kind,
        "tau": prior.tau,
        "c": prior.c,
    }
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
