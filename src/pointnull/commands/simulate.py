"""simulate: seeded Monte Carlo sweeps."""


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--n-grid needs comma-separated integers, got {text!r}") from exc


def run(args, cli) -> tuple[dict, dict, list]:
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    try:
        if args.kind == "uniformity":
            ks = cli.pvalue_uniformity_check(args.seed, args.reps, noncentrality=args.noncentrality)
            inputs = {
                "kind": args.kind,
                "seed": args.seed,
                "reps": args.reps,
                "noncentrality": args.noncentrality,
            }
            rows = [
                {"replications": args.reps, "noncentrality": args.noncentrality, "ks_distance": ks}
            ]
        else:
            sweep = cli.ConsistencyRun(
                theta_true=args.theta_true,
                theta0=args.theta0,
                sigma=args.sigma,
                n_grid=_parse_grid(args.n_grid),
                replications=args.reps,
                seed=args.seed,
            )
            inputs = {
                "kind": args.kind,
                "theta_true": sweep.theta_true,
                "theta0": sweep.theta0,
                "sigma": sweep.sigma,
                "n_grid": ",".join(str(n) for n in sweep.n_grid),
                "reps": sweep.replications,
                "seed": sweep.seed,
            }
            if args.kind == "consistency":
                summaries = cli.consistency_simulation(sweep, alpha=args.alpha)
                inputs["alpha"] = args.alpha
            else:
                if args.tau is None:
                    prior = cli.AlternativePrior.flat()
                else:
                    prior = cli.AlternativePrior.conjugate(args.tau)
                summaries = cli.score_consistency_sim(sweep, prior)
                inputs["prior"] = prior.kind
            # a row per grid point: the summary record's fields, in their order
            rows = [s._asdict() for s in summaries]
    except MemoryError as exc:
        # numpy refuses a replicate array larger than memory before filling it
        raise RuntimeError(f"--reps {args.reps} is too large: {exc}") from None
    name = "ks_distance" if args.kind == "uniformity" else "rows"
    return inputs, {"rows": rows}, [[name, f"seeded-simulation(seed={args.seed})"]]
