"""paper-check: regression over the built-in reference anchors."""


def run(args, cli) -> tuple[dict, dict, list]:
    t, n = 1.96, 16818
    bf_at = cli.bayes_factor_lindley(t, n)
    post_at = cli.posterior_prob_null(bf_at, cli.HypothesisWeights(0.5))
    stone_p = cli.binomial_p_value(cli.STONE_EXAMPLE)
    stone_bf = cli.binomial_bf_flat(cli.STONE_EXAMPLE)
    problem = cli.NormalProblem.from_t(t, n)
    prior = cli.AlternativePrior.conjugate(1.0)
    sd_dev = abs(
        cli.savage_dickey_bf(problem, prior) / cli.bayes_factor_conjugate(problem, prior) - 1.0
    )
    single, wide = cli.reinterpret_as_prior_scale(problem)
    scale_dev = abs(cli.bayes_factor_conjugate(single, wide) / cli.bayes_factor_lindley(t, n) - 1.0)
    log_bf = cli.log_bayes_factor_conjugate(problem, prior)
    log_identity_dev = abs(cli.log_score_compare(problem, prior).diff + log_bf)
    ten_to_one = cli.ParadoxQuery(t=t, weights=cli.HypothesisWeights(10.0 / 11.0))
    anchors = [
        ("crossing_equal_weights", 16818, cli.crossing_sample_size(cli.ParadoxQuery(t=t)), 0.0),
        ("crossing_ten_to_one", 164, cli.crossing_sample_size(ten_to_one), 0.0),
        ("crossing_t_zero", 360, cli.crossing_sample_size(cli.ParadoxQuery(t=0.0)), 0.0),
        ("bf_at_crossing", 19.0, bf_at, 1e-3),
        ("posterior_at_crossing", 0.95, post_at, 1e-4),
        ("p_value_at_1.96", 0.05, cli.p_value(t), 1e-4),
        ("stone_binomial_p", 0.0027, stone_p, 2e-4),
        ("stone_binomial_bf_flat", 8.115, stone_bf, 0.0 if args.demo_fail else 0.05),
        ("savage_dickey_relative_deviation", 0.0, sd_dev, 1e-10),
        ("prior_scale_relative_deviation", 0.0, scale_dev, 1e-12),
        ("log_score_identity_deviation", 0.0, log_identity_dev, 1e-12),
    ]
    rows = [
        {
            "anchor": name,
            "expected": expected,
            "got": got,
            "tolerance": tol,
            "status": "pass" if abs(got - expected) <= tol else "fail",
        }
        for name, expected, got, tol in anchors
    ]
    all_pass = all(r["status"] == "pass" for r in rows)
    inputs = {"demo_fail": args.demo_fail}
    results = {"all_pass": all_pass, "rows": rows}
    provenance = [["rows", "reference-anchor-regression"]]
    return inputs, results, provenance
