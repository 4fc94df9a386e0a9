"""Point-null testing calculus: p-values, Bayes factors, paradox crossing
points, post-data severity, and scoring-rule alternatives.

The library is organised around one normal-location testing problem and the
disagreement between its frequentist and Bayesian verdicts as the sample
grows. Everything needed to reproduce, explore, or stress that disagreement
is importable from this flat namespace; the ``pointnull`` console command
exposes the same calculus to the shell.

The namespace is lazy (PEP 562): ``import pointnull`` loads no submodule,
and the first use of a name imports the submodule that defines it.
"""

__version__ = "0.1.0"

# The public names of each submodule, its __all__, in the order the
# submodules build on each other. Held here, so that neither this namespace
# nor cli has to import a submodule to know what it exports.
_EXPORTS = {
    "numerics": (
        "NoCrossingError", "RngStream", "find_crossing", "log_normal_pdf", "p_value",
        "std_normal_cdf", "std_normal_quantile",
    ),
    "normal": (
        "AlternativePrior", "HypothesisWeights", "NormalProblem", "TestReport",
        "bayes_factor_conjugate", "bayes_factor_lindley", "evaluate_test",
        "log_bayes_factor_conjugate", "log_bayes_factor_lindley", "log_savage_dickey_bf",
        "posterior_prob_null", "reinterpret_as_prior_scale", "savage_dickey_bf", "t_statistic",
    ),
    "binomial": (
        "BinomialProblem", "STONE_EXAMPLE", "binomial_bf_flat", "binomial_bf_laplace",
        "binomial_p_value", "binomial_z", "log_beta", "log_binomial_bf_flat",
    ),
    "paradox": (
        "ConsistencyRun", "ConsistencySummary", "ParadoxQuery", "UnreachableTargetError",
        "consistency_simulation", "crossing_sample_size", "paradox_table",
        "pvalue_uniformity_check", "required_bf",
    ),
    "severity": (
        "SeverityCurve", "severity_at", "severity_curve", "warranted_discrepancy",
    ),
    "scores": (
        "ScoreReport", "ScoreSelectionSummary", "conjugate_posterior", "hyvarinen_compare",
        "log_score_compare", "score_consistency_sim", "sprenger_kl_report", "sprenger_kl_score",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    """Import the submodule that owns name, or is name, and bind the result."""
    from importlib import import_module

    for module, names in _EXPORTS.items():
        if name == module or name in names:
            value = import_module(f"{__name__}.{module}")
            if name != module:
                value = globals()[name] = getattr(value, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
