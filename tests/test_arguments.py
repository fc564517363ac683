"""Every public numeric argument passes one gate, modular.require_finite: a value that is not a number is a
ValidationError, one past double range or with an inf or nan part a DomainError, each naming the argument.
No such value reaches the caller as a raw OverflowError, ValueError or TypeError, or comes back non-finite."""

import inspect
import math
import re

import pytest

import thetamod
from thetamod import DomainError, S_INVERSION, ValidationError
from thetamod.modular import (
    TransformParams,
    moebius_apply,
    principal_power,
    reduce_to_fundamental_domain,
    require_finite,
    transform_params_from_matrix,
)
from thetamod.residues import (
    VerifierParams,
    circle_residue,
    eval_kernel,
    geometric_log_sum,
    log_theta1_by_residue_classes,
)
from thetamod.theta import (
    eta,
    eta_info,
    jacobi_triple_product_check,
    lattice_distance,
    log_theta1,
    theta1_product,
    theta1_series,
    theta1_series_info,
)
from thetamod.transform import (
    reduce_theta_arguments,
    reduce_z,
    theta1_fast,
    theta1_fast_info,
    transform_rhs,
    verify_eta_transformation,
    verify_transformation,
)

P = VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=3)
TAU = 0.1 + 1.1j


def _z_and_tau(f):
    return [(f, "z", lambda x: f(x, TAU)), (f, "tau", lambda x: f(0.2 + 0.1j, x))]


# (function, parameter, call with that parameter set to the value and every other argument usable)
ARGUMENTS = [
    (moebius_apply, "tau", lambda x: moebius_apply(S_INVERSION, x)),
    (principal_power, "base", lambda x: principal_power(x, 0.5)),
    (principal_power, "exponent", lambda x: principal_power(2.0, x)),
    (reduce_to_fundamental_domain, "tau", reduce_to_fundamental_domain),
    (transform_params_from_matrix, "tau", lambda x: transform_params_from_matrix(S_INVERSION, x)),
    *[row for f in (theta1_series, theta1_series_info, theta1_product, log_theta1, lattice_distance)
      for row in _z_and_tau(f)],
    (jacobi_triple_product_check, "w", lambda x: jacobi_triple_product_check(x, 0.3)),
    (jacobi_triple_product_check, "q", lambda x: jacobi_triple_product_check(0.5 + 0.5j, x)),
    (eta, "tau", eta),
    (eta_info, "tau", eta_info),
    *[row for f in (reduce_z, reduce_theta_arguments, theta1_fast, theta1_fast_info) for row in _z_and_tau(f)],
    (transform_rhs, "z", lambda x: transform_rhs(S_INVERSION, x, TAU)),
    (transform_rhs, "tau", lambda x: transform_rhs(S_INVERSION, 0.2, x)),
    (verify_transformation, "z", lambda x: verify_transformation(S_INVERSION, x, TAU)),
    (verify_transformation, "tau", lambda x: verify_transformation(S_INVERSION, 0.2, x)),
    (verify_eta_transformation, "tau", lambda x: verify_eta_transformation(S_INVERSION, x)),
    (VerifierParams, "v", lambda x: VerifierParams(h=1, k=2, H=1, v=x, z=0.2 + 0.1j, m=3)),
    (VerifierParams, "z", lambda x: VerifierParams(h=1, k=2, H=1, v=1.5, z=x, m=3)),
    (eval_kernel, "x", lambda x: eval_kernel(P, x)),
    (circle_residue, "pole", lambda x: circle_residue(lambda y: 1 / y, x, 0.3)),
    (circle_residue, "radius", lambda x: circle_residue(lambda y: 1 / y, 0j, x)),
    (geometric_log_sum, "a", lambda x: geometric_log_sum(x, 0.5, 10)),
    (geometric_log_sum, "r", lambda x: geometric_log_sum(0.5, x, 10)),
    (log_theta1_by_residue_classes, "v", lambda x: log_theta1_by_residue_classes(TransformParams(0, 0, 1, x), 0.2)),
    (log_theta1_by_residue_classes, "z", lambda x: log_theta1_by_residue_classes(TransformParams(0, 0, 1, 1.5), x)),
]
VALUES = [10**400, -10**400, complex(math.inf, 0), complex(0, math.nan), "x"]


@pytest.mark.parametrize("value", VALUES, ids=["1e400", "-1e400", "inf", "nanj", "str"])
@pytest.mark.parametrize("call, name", [(call, name) for _, name, call in ARGUMENTS],
                         ids=[f"{f.__name__} {name}" for f, name, _ in ARGUMENTS])
def test_unusable_argument_raises_a_library_error_naming_it(call, name, value):
    # not a number is a ValidationError everywhere; past double range or non-finite a DomainError, or a
    # ValidationError where a type rule refuses it first (VerifierParams' v must be real)
    with pytest.raises(ValidationError if value == "x" else (DomainError, ValidationError)) as info:
        call(value)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


def test_the_table_covers_every_public_numeric_parameter():
    # every complex or float parameter of a public function, less edge_limit_probe's t (a real-only comparison),
    # plus eval_kernel's unannotated point x and the numeric fields that VerifierParams and the class sums read
    public = {(name, p.name) for name in thetamod.__all__ if inspect.isfunction(f := getattr(thetamod, name))
              for p in inspect.signature(f).parameters.values() if re.search("complex|float", str(p.annotation))}
    fields = {("eval_kernel", "x"), ("VerifierParams", "v"), ("VerifierParams", "z"),
              ("log_theta1_by_residue_classes", "v")}
    table = [(f.__name__, name) for f, name, _ in ARGUMENTS]
    assert sorted(table) == sorted(public - {("edge_limit_probe", "t")} | fields)


@pytest.mark.parametrize(
    "value, error, message",
    [
        (10**400, DomainError, "^w must be finite, got a value past double range$"),
        (complex(math.inf, 1), DomainError, r"^w must be finite, got \(inf\+1j\)$"),
        (complex(0, math.nan), DomainError, r"^w must be finite, got nanj$"),
        ("x", ValidationError, "^w must be a number, got 'x'$"),
        (None, ValidationError, "^w must be a number, got None$"),
    ],
    ids=["past double range", "inf", "nan", "str", "None"],
)
def test_require_finite_rejects(value, error, message):
    with pytest.raises(error, match=message):
        require_finite(value, "w")


def test_require_finite_returns_a_complex_of_the_value():
    for value, expected in ((3, 3 + 0j), (-0.5, -0.5 + 0j), (1e308 - 2j, 1e308 - 2j), (2**1000, float(2**1000))):
        number = require_finite(value, "w")
        assert type(number) is complex and number == expected
