"""Frozen records: every problem, query and result class behaves as a frozen
value, built by one small helper instead of generated code.

Each case gives the required fields of one class, in declaration order, and
the defaults the class declares for the rest, also in order.
"""

import pytest

from pointnull._record import Record
from pointnull.binomial import BinomialProblem
from pointnull.normal import (
    EQUAL_WEIGHTS,
    AlternativePrior,
    HypothesisWeights,
    NormalProblem,
    TestReport as Report,  # renamed, so pytest does not try to collect it
)
from pointnull.paradox import ConsistencyRun, ConsistencySummary, ParadoxQuery
from pointnull.scores import ScoreReport, ScoreSelectionSummary
from pointnull.severity import SeverityCurve

CASES = [
    (NormalProblem, {"theta0": 0.0, "sigma": 1.0, "n": 100, "xbar": 0.2}, {}),
    (AlternativePrior, {"kind": "improper-flat"}, {"tau": None, "c": 1.0}),
    (HypothesisWeights, {}, {"rho0": 0.5}),
    (
        Report,
        {"t": 1.96, "p_value": 0.05, "bf01": 19.0, "post_prob0": 0.95, "alpha": 0.05},
        {},
    ),
    (BinomialProblem, {"n": 10, "x": 3, "theta0": 0.5}, {}),
    (
        ParadoxQuery,
        {"t": 1.96},
        {"target_post_prob": 0.95, "weights": EQUAL_WEIGHTS, "alpha": 0.05},
    ),
    (
        ConsistencyRun,
        {
            "theta_true": 0.0,
            "theta0": 0.0,
            "sigma": 1.0,
            "n_grid": (10, 100),
            "replications": 5,
            "seed": 1,
        },
        {},
    ),
    (
        ConsistencySummary,
        {
            "n": 10,
            "median_log_bf": 1.0,
            "median_p_value": 0.5,
            "reject_rate": 0.05,
            "bf_collapse_rate": 0.0,
            "joint_collapse_rate": 0.0,
        },
        {},
    ),
    (
        ScoreReport,
        {"rule": "log", "s0": 1.0, "s1": 2.0},
        {"c_dependent": False},
    ),
    (
        ScoreSelectionSummary,
        {"n": 10, "select_null_rate": 0.5, "select_alt_rate": 0.5, "tie_rate": 0.0},
        {},
    ),
    (SeverityCurve, {"points": ((0.0, 0.9), (0.1, 0.8)), "warranted_gamma": 0.05}, {}),
]


@pytest.mark.parametrize("cls, required, defaults", CASES, ids=lambda c: getattr(c, "__name__", ""))
def test_record_is_a_frozen_value(cls, required, defaults):
    fields = {**required, **defaults}
    record = cls(**required)

    # the defaults apply, and positional construction matches keyword construction
    for name, value in fields.items():
        assert getattr(record, name) == value, name
    assert cls(*fields.values()) == record

    # frozen: no field can be assigned or deleted
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]

    # equal fields compare and hash equal; the same fields on another class do not
    twin = cls(**fields)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    other = type("Other", (Record,), {"__annotations__": dict.fromkeys(fields, "object")})
    assert other(**fields) != record and record != other(**fields)

    # repr names every field with its value
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    for name, value in fields.items():
        assert f"{name}={value!r}" in text, name

    # a wrong or missing keyword is a TypeError
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=1)
    if required:
        missing = dict(required)
        missing.pop(next(iter(required)))
        with pytest.raises(TypeError):
            cls(**missing)


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="sigma must be positive"):
        NormalProblem(0.0, -1.0, 10, 0.0)
    with pytest.raises(ValueError, match="n must be at least 1"):
        NormalProblem.from_t(1.96, 0)
    with pytest.raises(ValueError, match="c must be positive"):
        AlternativePrior.flat(c=1e308 * 1e308)
