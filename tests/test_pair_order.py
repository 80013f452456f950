"""The order in which buchberger forms S-polynomials, pinned on the corpus
and on two classic ideals.

Pair selection decides which reductions run, how the basis grows and where a
budget fires, so a change to how pending pairs are kept must leave this order
exactly as it is.  For each polynomial corpus map, pair_order.json holds the
lcm of every pair that reaches the S-polynomial, in order, for the critical
ideal and the Jelonek ideal of the reduced map g (its graph's basis and the
elimination of its cut) and for the fibers over the first three grid values
(each fiber's grevlex basis, which its closure takes as it is), as the
pipeline forms them.  The rational corpus map
forms none of these ideals.  Two classic ideals in four variables, under
grevlex and under a block order, add runs with more pairs pending at once.

Re-record (only for a change meant to alter the order) with
    PYTHONPATH=src python tests/test_pair_order.py
"""

import json
from pathlib import Path

import pytest

from conftest import DATA_DIR, fiber_report, poly
from liptriv import groebner
from liptriv.classifier import rational_grid
from liptriv.critical import critical_ideal
from liptriv.dependence import factor_through_projection
from liptriv.groebner import Ideal, MonomialOrder, buchberger
from liptriv.parsing import parse_mapping
from liptriv.properness import jelonek_ideal

PINNED = Path(__file__).resolve().parent / "pair_order.json"
MAPS = ("bad", "cube", "ex_simple", "motzkin")
ABCD = ("a", "b", "c", "d")
CLASSIC = {
    "katsura3": (
        "a + 2*b + 2*c + 2*d - 1",
        "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
        "2*a*b + 2*b*c + 2*c*d - b",
        "b^2 + 2*a*c + 2*b*d - c",
    ),
    "cyclic4": (
        "a + b + c + d",
        "a*b + b*c + c*d + d*a",
        "a*b*c + b*c*d + c*d*a + d*a*b",
        "a*b*c*d - 1",
    ),
}
ORDERS = {
    "grevlex": MonomialOrder.grevlex(),
    "block a,c": MonomialOrder.elimination([0, 2]),
}


def _stages(name: str):
    """(label, thunk) for each ideal of the case whose pair order is pinned."""
    if name in CLASSIC:
        ideal = Ideal.make(ABCD, [poly(ABCD, g) for g in CLASSIC[name]])
        for label, order in ORDERS.items():
            yield label, lambda order=order: buchberger(ideal, order)
        return
    f = parse_mapping((DATA_DIR / f"{name}.map").read_text())
    fact = factor_through_projection(f)
    g = fact.g
    yield "critical", lambda: critical_ideal(g)
    if fact.m == f.p:
        yield "jelonek", lambda: jelonek_ideal(g)
    for value in rational_grid(f.p, 3):
        label = "fiber " + ",".join(str(x) for x in value)
        yield label, lambda value=value: fiber_report(f, value)


def _recorder(seen: list):
    """groebner._spoly, appending to seen the lcm of the leading exponents of
    each pair it is given (the lcm whose packed word it receives)."""
    spoly = groebner._spoly

    def recording(a, b, word):
        seen.append(tuple(map(max, a[3], b[3])))
        return spoly(a, b, word)

    return recording


def pair_order(name: str, seen: list) -> dict:
    """Label -> the lcm of each S-pair formed, as 'e1 e2 ...' strings.

    seen must be the list that the installed _recorder appends to.
    """
    out = {}
    for label, stage in _stages(name):
        seen.clear()
        stage()
        out[label] = [" ".join(str(k) for k in lcm) for lcm in seen]
    return out


@pytest.mark.parametrize("name", MAPS + tuple(CLASSIC))
def test_pair_order_matches_pin(name, monkeypatch):
    seen = []
    monkeypatch.setattr(groebner, "_spoly", _recorder(seen))
    expected = json.loads(PINNED.read_text())[name]
    assert pair_order(name, seen) == expected


if __name__ == "__main__":
    seen = []
    groebner._spoly = _recorder(seen)
    orders = {name: pair_order(name, seen) for name in MAPS + tuple(CLASSIC)}
    PINNED.write_text(json.dumps(orders, indent=2, sort_keys=True) + "\n")
