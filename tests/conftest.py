import random
from fractions import Fraction
from pathlib import Path

import pytest

from liptriv.parsing import parse_input, parse_mapping

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "liptriv" / "data"


def data_text(name: str) -> str:
    return (DATA_DIR / name).read_text()


def poly(variables, text):
    """Build a polynomial from an expression in the given ring."""
    ring = ",".join(variables)
    return parse_mapping(f"ring Q[{ring}]; map f: ({text})").components[0]


def rand_poly(rng: random.Random, variables, max_degree=4, max_terms=5):
    """Seeded random polynomial with small integer coefficients."""
    from liptriv.polycore import Polynomial

    n = len(variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * n
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exp[rng.randrange(n)] += 1
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
    return Polynomial.from_dict(tuple(variables), {e: Fraction(c) for e, c in terms.items() if c})


@pytest.fixture(scope="session")
def simple_map():
    return parse_mapping(data_text("ex_simple.map"))


@pytest.fixture(scope="session")
def bad_map():
    return parse_mapping(data_text("bad.map"))


@pytest.fixture(scope="session")
def motzkin_map():
    return parse_mapping(data_text("motzkin.map"))


@pytest.fixture(scope="session")
def cube_map():
    return parse_mapping(data_text("cube.map"))


@pytest.fixture(scope="session")
def regulous_map():
    return parse_input(data_text("regulous.map"))


@pytest.fixture(scope="session")
def motzkin_poly(motzkin_map):
    return motzkin_map.components[0]


def is_invertible(lin) -> bool:
    """A square LinearMap of full rank."""
    return lin.nrows == lin.ncols and lin.rank() == lin.nrows


def count_real_roots(p) -> int:
    """Distinct real roots of a univariate p, from the sign variations of its
    Sturm chain at minus and plus infinity: an oracle for real_roots, which
    counts by bisection."""
    from liptriv.groebner import _sign_variations, _uni_coeffs, _uni_degree, sturm_sequence

    coeffs = _uni_coeffs(p)
    if _uni_degree(coeffs) < 1:
        return 0
    chain = sturm_sequence(coeffs)

    def variations_at_infinity(positive: bool) -> int:
        leads = []
        for c in chain:
            if not c:
                continue
            lead = c[-1]
            if not positive and _uni_degree(c) % 2 == 1:
                lead = -lead
            leads.append(lead)
        return _sign_variations(leads)

    return variations_at_infinity(False) - variations_at_infinity(True)


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call of module.name, wherever it is bound.

    liptriv modules import functions by name, so the counting wrapper replaces
    the function in every loaded liptriv module that holds it.
    """
    import sys

    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "liptriv" and mod.__dict__.get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls
