"""paradox: the crossing sample size and a table bracketing it."""


def run(args, cli) -> tuple[dict, dict, list]:
    weights = cli.HypothesisWeights(rho0=args.rho0)
    query = cli.ParadoxQuery(
        t=args.t, target_post_prob=args.target, weights=weights, alpha=args.alpha
    )
    n = cli.crossing_sample_size(query)
    marks = sorted({max(1, n // 100), max(1, n // 10), max(1, n - 1), n, 10 * n})
    rows = [
        {
            "n": m,
            "p_value": r.p_value,
            "bf01": r.bf01,
            "post_prob0": r.post_prob0,
            "paradoxical": r.paradoxical,
        }
        for m, r in cli.paradox_table(query, marks)
    ]
    inputs = {"t": args.t, "target": args.target, "rho0": args.rho0, "alpha": args.alpha}
    results = {"crossing_n": n, "required_bf": cli.required_bf(query), "rows": rows}
    provenance = [["crossing_n", "integer-bisection"], ["rows", "closed-form"]]
    return inputs, results, provenance
