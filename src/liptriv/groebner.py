"""Exact ideal engine: Buchberger, elimination, saturation, intersection,
dimension, and univariate real-root isolation by Sturm sequences.

All arithmetic is over exact rationals.  Computations carry an explicit
resource budget (basis size and total degree); exceeding it raises
BudgetExceededError rather than returning a truncated answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .polycore import Exponent, Polynomial, fresh_name, grevlex_key


class BudgetExceededError(RuntimeError):
    """A Groebner computation exceeded its configured resource budget."""

    def __init__(self, kind: str, limit: int, observed: int):
        super().__init__(f"budget exceeded: {kind} {observed} > limit {limit}")
        self.kind = kind
        self.limit = limit
        self.observed = observed


@dataclass(frozen=True)
class GroebnerBudget:
    max_basis: int = 5000
    max_degree: int = 60

    def __post_init__(self):
        # A limit below 1 fails every run, so it is a bad setting, not a
        # budget that runs out.
        if self.max_basis < 1 or self.max_degree < 1:
            raise ValueError("Groebner budget limits must be at least 1")


DEFAULT_BUDGET = GroebnerBudget()


@dataclass(frozen=True)
class MonomialOrder:
    """grevlex, lex, or an elimination block order (drop block first)."""

    kind: str = "grevlex"
    block: tuple[int, ...] = ()  # variable indices eliminated first

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def elimination(drop: Iterable[int]) -> "MonomialOrder":
        return MonomialOrder("block", tuple(sorted(set(drop))))

    def key_function(self, nvars: int) -> Callable[[Exponent], object]:
        if self.kind == "grevlex":
            return grevlex_key
        if self.kind == "lex":
            return lambda e: e
        if self.kind == "block":
            drop = self.block
            keep = tuple(i for i in range(nvars) if i not in set(drop))

            def key(e: Exponent):
                return (
                    grevlex_key(tuple(e[i] for i in drop)),
                    grevlex_key(tuple(e[i] for i in keep)),
                )

            return key
        raise ValueError(f"unknown order kind {self.kind!r}")


@dataclass(frozen=True)
class Ideal:
    """Finitely generated ideal in Q[vars]."""

    vars: tuple[str, ...]
    generators: tuple[Polynomial, ...]

    @staticmethod
    def make(variables: Sequence[str], gens: Iterable[Polynomial]) -> "Ideal":
        vs = tuple(variables)
        fixed = []
        for g in gens:
            if g.vars != vs:
                raise ValueError("generator in a different ring")
            if not g.is_zero():
                fixed.append(g)
        return Ideal(vs, tuple(fixed))

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def has_unit_generator(self) -> bool:
        """A nonzero constant generator: V(I) is empty (iff, for a reduced basis)."""
        return any(g.is_constant() and not g.is_zero() for g in self.generators)

    def vanishes_at(self, c: Sequence[Fraction]) -> bool:
        """Every generator vanishes at c (true for the zero ideal)."""
        return all(g.eval_exact(list(c)) == 0 for g in self.generators)


@dataclass(frozen=True)
class GroebnerBasis:
    vars: tuple[str, ...]
    order: MonomialOrder
    basis: tuple[Polynomial, ...]  # reduced, monic, sorted by leading term

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()

    def leading_exponents(self) -> list[Exponent]:
        keyf = self.order.key_function(len(self.vars))
        return [max((e for e, _ in g.terms), key=keyf) for g in self.basis]

    def dimension(self) -> int:
        """Krull dimension of V(I) over the algebraic closure; -1 for the unit ideal.

        For a grevlex basis: the size of the largest variable subset S such
        that no leading monomial is supported inside S.
        """
        n = len(self.vars)
        if self.is_unit():
            return -1
        supports = []
        for e in self.leading_exponents():
            supports.append(frozenset(i for i, k in enumerate(e) if k))
        best = 0
        for mask in range(1 << n):
            subset = frozenset(i for i in range(n) if mask >> i & 1)
            if len(subset) <= best:
                continue
            if all(not s <= subset for s in supports):
                best = len(subset)
        return best


# -- dict-based core ---------------------------------------------------------


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def _lcm_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _add_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


class _KeyMemo(dict):
    """Exponent -> order key, each key computed once.  A monomial's key never
    changes, so one memo serves a whole Buchberger run."""

    def __init__(self, keyf: Callable[[Exponent], object]):
        super().__init__()
        self.keyf = keyf

    def __missing__(self, e: Exponent):
        key = self[e] = self.keyf(e)
        return key


def _order_key(order: MonomialOrder, nvars: int) -> Callable[[Exponent], object]:
    return _KeyMemo(order.key_function(nvars)).__getitem__


def _lead(d: dict, keyf) -> Exponent:
    return max(d, key=keyf)


def _normalize_content(d: dict) -> dict:
    """Scale by a positive rational so coefficients are coprime integers."""
    from math import gcd

    if not d:
        return d
    num = 0
    den = 1
    for c in d.values():
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    scale = Fraction(den, num)
    if scale == 1:
        return d
    return {e: c * scale for e, c in d.items()}


def _reduce_full(
    p: dict,
    basis: list[tuple[Exponent, Fraction, dict]],
    keyf,
    max_degree: int,
) -> dict:
    """Full multivariate division remainder of p by the basis (deterministic)."""
    work = dict(p)
    remainder: dict = {}
    while work:
        mono = _lead(work, keyf)
        if sum(mono) > max_degree:
            raise BudgetExceededError("degree", max_degree, sum(mono))
        coeff = work[mono]
        hit = None
        for lead, lc, gd in basis:
            if _divides(lead, mono):
                hit = (lead, lc, gd)
                break
        if hit is None:
            remainder[mono] = coeff
            del work[mono]
            continue
        lead, lc, gd = hit
        shift = _sub_exp(mono, lead)
        factor = coeff / lc
        for e, c in gd.items():
            ne = _add_exp(e, shift)
            s = work.get(ne, Fraction(0)) - factor * c
            if s:
                work[ne] = s
            else:
                work.pop(ne, None)
    return remainder


def _prepare(g: Polynomial) -> dict:
    return dict(g.terms)


def _entry(gd: dict, keyf) -> tuple[Exponent, Fraction, dict]:
    lead = _lead(gd, keyf)
    return (lead, gd[lead], gd)


def _spoly(
    a: tuple[Exponent, Fraction, dict], b: tuple[Exponent, Fraction, dict], lcm: Exponent
) -> dict:
    """S-polynomial (lcm/lt(a)) * a - (lcm/lt(b)) * b of two basis entries."""
    lead_a, lc_a, da = a
    lead_b, lc_b, db = b
    out: dict = {}
    shift = _sub_exp(lcm, lead_a)
    for e, c in da.items():
        ne = _add_exp(e, shift)
        out[ne] = out.get(ne, Fraction(0)) + c / lc_a
    shift = _sub_exp(lcm, lead_b)
    for e, c in db.items():
        ne = _add_exp(e, shift)
        s = out.get(ne, Fraction(0)) - c / lc_b
        if s:
            out[ne] = s
        else:
            out.pop(ne, None)
    return out


def buchberger(
    ideal: Ideal,
    order: MonomialOrder | None = None,
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    Pair selection follows the normal strategy (minimal lcm degree, then the
    order, then the pair's indices) from a heap, and skips pairs by the
    coprimality and chain criteria.  Every intermediate result is
    content-normalized to keep coefficients small.
    """
    order = order or MonomialOrder.grevlex()
    keyf = _order_key(order, len(ideal.vars))

    basis: list[tuple[Exponent, Fraction, dict]] = []
    for g in ideal.generators:
        gd = _normalize_content(_prepare(g))
        if gd:
            basis.append(_entry(gd, keyf))
    basis.sort(key=lambda t: keyf(t[0]))

    # Each pair is pushed once and popped once; pending holds the pairs not
    # yet popped, for the chain criterion.
    pending: dict[tuple[int, int], Exponent] = {}
    heap: list = []

    def push(i: int, j: int) -> None:
        lcm = pending[(i, j)] = _lcm_exp(basis[i][0], basis[j][0])
        heapq.heappush(heap, (sum(lcm), keyf(lcm), (i, j), lcm))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)

    while heap:
        _, _, (i, j), lcm = heapq.heappop(heap)
        del pending[(i, j)]
        # First criterion: coprime leading monomials.
        if lcm == _add_exp(basis[i][0], basis[j][0]):
            continue
        # Chain criterion: some k with lt_k | lcm and both cross pairs done.
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not _divides(basis[k][0], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue

        spoly = _spoly(basis[i], basis[j], lcm)
        remainder = _reduce_full(spoly, basis, keyf, budget.max_degree)
        if not remainder:
            continue
        remainder = _normalize_content(remainder)
        new_index = len(basis)
        if new_index + 1 > budget.max_basis:
            raise BudgetExceededError("basis size", budget.max_basis, new_index + 1)
        entry = _entry(remainder, keyf)
        if sum(entry[0]) > budget.max_degree:
            raise BudgetExceededError("degree", budget.max_degree, sum(entry[0]))
        basis.append(entry)
        for k in range(new_index):
            push(k, new_index)

    return _reduce_basis(ideal.vars, order, basis, keyf, budget)


def _reduce_basis(
    vars_: tuple[str, ...],
    order: MonomialOrder,
    basis: list[tuple[Exponent, Fraction, dict]],
    keyf,
    budget: GroebnerBudget,
) -> GroebnerBasis:
    # Minimal basis: drop entries whose leading term another one divides.
    minimal: list[tuple[Exponent, Fraction, dict]] = []
    for entry in sorted(basis, key=lambda t: keyf(t[0])):
        if not any(_divides(other[0], entry[0]) for other in minimal):
            minimal.append(entry)
    # Inter-reduce tails and normalize to monic.
    reduced: list[tuple[object, Polynomial]] = []
    for idx, (lead, lc, gd) in enumerate(minimal):
        others = [minimal[k] for k in range(len(minimal)) if k != idx]
        tail = _reduce_full(gd, others, keyf, budget.max_degree)
        if not tail:
            continue
        lead2 = _lead(tail, keyf)
        inv = 1 / tail[lead2]
        poly = Polynomial.from_dict(vars_, {e: c * inv for e, c in tail.items()})
        reduced.append((keyf(lead2), poly))
    reduced.sort(key=lambda t: t[0])
    return GroebnerBasis(vars_, order, tuple(poly for _, poly in reduced))


# -- elimination, saturation, intersection -----------------------------------


def eliminate(
    ideal: Ideal,
    drop: Iterable[str],
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> Ideal:
    """Generators of the ideal intersected with Q[remaining variables]."""
    drop_names = list(drop)
    index = {name: i for i, name in enumerate(ideal.vars)}
    for name in drop_names:
        if name not in index:
            raise ValueError(f"unknown variable {name!r}")
    drop_idx = sorted(index[name] for name in drop_names)
    keep_idx = [i for i in range(len(ideal.vars)) if i not in set(drop_idx)]
    keep_vars = tuple(ideal.vars[i] for i in keep_idx)

    if ideal.is_zero_ideal():
        return Ideal(keep_vars, ())

    order = MonomialOrder.elimination(drop_idx)
    gb = buchberger(ideal, order, budget)
    kept = []
    for g in gb.basis:
        if any(g.uses_var(i) for i in drop_idx):
            continue
        kept.append(g.drop_vars(drop_idx))
    return Ideal(keep_vars, tuple(kept))


def saturate(
    ideal: Ideal,
    h: Polynomial,
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> Ideal:
    """I : h^infinity via the extra-variable trick (adjoin 1 - y*h, eliminate y)."""
    if h.vars != ideal.vars:
        raise ValueError("ring mismatch")
    if h.is_zero():
        raise ValueError("cannot saturate by zero")
    if ideal.is_zero_ideal():
        return ideal
    aux = fresh_name("y_sat", ideal.vars)
    vs = ideal.vars + (aux,)
    gens = [g.embed(vs) for g in ideal.generators]
    y = Polynomial.variable(vs, len(vs) - 1)
    gens.append(Polynomial.constant(vs, 1) - y * h.embed(vs))
    extended = Ideal(vs, tuple(gens))
    result = eliminate(extended, [aux], budget)
    return Ideal(ideal.vars, result.generators)


def intersect(a: Ideal, b: Ideal, budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """Ideal intersection via u*I + (1-u)*J and elimination of u."""
    if a.vars != b.vars:
        raise ValueError("ring mismatch")
    if a.is_zero_ideal() or b.is_zero_ideal():
        return Ideal(a.vars, ())
    aux = fresh_name("u_int", a.vars)
    vs = a.vars + (aux,)
    u = Polynomial.variable(vs, len(vs) - 1)
    one = Polynomial.constant(vs, 1)
    gens = [u * g.embed(vs) for g in a.generators]
    gens += [(one - u) * g.embed(vs) for g in b.generators]
    result = eliminate(Ideal(vs, tuple(gens)), [aux], budget)
    return Ideal(a.vars, result.generators)


# -- dimension ----------------------------------------------------------------


def dimension(ideal: Ideal, budget: GroebnerBudget = DEFAULT_BUDGET) -> int:
    """Krull dimension of V(I) over the algebraic closure; -1 for the unit ideal."""
    if ideal.is_zero_ideal():
        return len(ideal.vars)
    if ideal.has_unit_generator():
        return -1
    return buchberger(ideal, MonomialOrder.grevlex(), budget).dimension()


# -- univariate helpers and Sturm-sequence root isolation ----------------------


def _uni_coeffs(p: Polynomial) -> list[Fraction]:
    """Dense coefficient list, constant term first; requires one variable."""
    if p.nvars != 1:
        raise ValueError("polynomial is not univariate")
    if p.is_zero():
        return []
    out = [Fraction(0)] * (p.degree + 1)
    for e, c in p.terms:
        out[e[0]] = c
    return out


def _uni_degree(c: list[Fraction]) -> int:
    return len(c) - 1


def _uni_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _uni_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = a[:]
    db, lb = _uni_degree(b), b[-1]
    quo = [Fraction(0)] * max(len(a) - db, 1)
    while a and _uni_degree(a) >= db:
        shift = _uni_degree(a) - db
        factor = a[-1] / lb
        quo[shift] = factor
        for i in range(len(b)):
            a[i + shift] -= factor * b[i]
        _uni_trim(a)
    return _uni_trim(quo), a


def _uni_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _uni_divmod(a, b)[1]
        if b:
            inv = 1 / b[-1]
            b = [x * inv for x in b]
    if a:
        inv = 1 / a[-1]
        a = [x * inv for x in a]
    return a


def _uni_derivative(c: list[Fraction]) -> list[Fraction]:
    return [c[i] * i for i in range(1, len(c))]


def _uni_eval(c: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def sturm_sequence(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """Sturm chain of the squarefree part of the given polynomial."""
    square_free = coeffs
    if _uni_degree(coeffs) >= 1:
        g = _uni_gcd(coeffs, _uni_derivative(coeffs))
        if _uni_degree(g) >= 1:
            square_free, _ = _uni_divmod(coeffs, g)
    chain = [square_free, _uni_derivative(square_free)]
    while chain[-1]:
        nxt = [-x for x in _uni_divmod(chain[-2], chain[-1])[1]]
        chain.append(nxt)
    chain.pop()
    return chain


def _sign_variations(values: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain: list[list[Fraction]], x: Fraction) -> int:
    return _sign_variations([_uni_eval(c, x) for c in chain])


# Width below which real_roots stops refining an isolating interval.
_ROOT_WIDTH = Fraction(1, 64)


def real_roots(p: Polynomial) -> list[tuple[Fraction, Fraction]]:
    """Isolating rational intervals, one per distinct real root.

    Degenerate intervals [r, r] flag exact (bisection-reachable) rational
    roots; open intervals (lo, hi) contain exactly one root in their interior.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    coeffs = _uni_coeffs(p)
    if _uni_degree(coeffs) < 1:
        return []
    chain = sturm_sequence(coeffs)
    sf = chain[0]
    lead = abs(sf[-1])
    bound = Fraction(1) + max(abs(c) for c in sf) / lead
    lo, hi = -bound, bound

    raw: list[tuple[Fraction, Fraction]] = []

    def isolate(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        count = va - vb
        if count == 0:
            return
        if count == 1:
            if _uni_eval(sf, b) == 0:
                raw.append((b, b))
            else:
                raw.append((a, b))
            return
        mid = (a + b) / 2
        vm = _variations_at(chain, mid)
        isolate(a, mid, va, vm)
        isolate(mid, b, vm, vb)

    isolate(lo, hi, _variations_at(chain, lo), _variations_at(chain, hi))

    results: list[tuple[Fraction, Fraction]] = []
    for a, b in raw:
        if a == b:
            results.append((a, b))
            continue
        va = _variations_at(chain, a)
        while b - a > _ROOT_WIDTH:
            mid = (a + b) / 2
            if _uni_eval(sf, mid) == 0:
                a = b = mid
                break
            vm = _variations_at(chain, mid)
            if va - vm >= 1:
                b = mid
            else:
                a, va = mid, vm
        results.append((a, b))
    results.sort(key=lambda iv: iv[0])
    return results
