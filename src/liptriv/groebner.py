"""Exact ideal engine: Buchberger, elimination, saturation, intersection,
dimension, and univariate real-root isolation by Sturm sequences.

All arithmetic is exact: Buchberger runs on integer coefficients, and
polynomials cross the module boundary with `Fraction` coefficients.
Computations carry an explicit resource budget (basis size and total
degree); exceeding it raises BudgetExceededError rather than returning a
truncated answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .polycore import Exponent, PolyMap, Polynomial, check_value, fresh_name


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
    """grevlex, or an elimination block order: the block's variables first,
    grevlex within each block.  The empty block is grevlex."""

    block: tuple[int, ...] = ()  # variable indices eliminated first

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder()

    @staticmethod
    def elimination(drop: Iterable[int]) -> "MonomialOrder":
        return MonomialOrder(tuple(sorted(set(drop))))


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

    @staticmethod
    def fiber(f: PolyMap, c: Sequence[Fraction]) -> "Ideal":
        """(f_i - c_i) in f's ring; a component identically c_i gives no generator."""
        check_value(c, f.p)
        return Ideal.make(f.vars, [comp - ci for comp, ci in zip(f.components, c)])

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

    def leading_exponents(self) -> list[Exponent]:
        packing = _Packing(self.order, len(self.vars), max((g.degree for g in self.basis), default=0))
        return [max((e for e, _ in g.terms), key=packing.pack) for g in self.basis]


# -- integer core ------------------------------------------------------------
#
# A Buchberger run keeps each polynomial as a dict from a packed monomial (an
# int, see _Packing) to an integer coefficient.  Basis entries are primitive
# with a positive leading coefficient, and every intermediate is a positive
# integer multiple of the one exact rational arithmetic would give, so leading
# monomials, zero reductions, pair order and budget trips are the same.


class _Packing:
    """The monomials of one run as ints whose integer order is the run's order.

    Each block of the order (one for grevlex; the eliminated variables, then
    the rest, for an elimination order) is a degree field followed by its
    variables in reversed order, each stored as bias - e, so comparing words
    compares each block's grevlex_key in turn.  A last field holds the total
    degree.  Every field has a guard bit that stays clear for monomials of
    total degree up to 2 * degree.  The word is affine in the exponent, so a
    product of monomials is a sum of words less pack((0, ..., 0)).
    """

    def __init__(self, order: MonomialOrder, nvars: int, degree: int):
        width = (2 * degree).bit_length() + 1
        self.mask = (1 << width) - 1
        self.bias = bias = self.mask >> 1
        drop = order.block
        blocks = [tuple(i for i in range(nvars) if i not in drop)]
        if drop:
            blocks.append(drop)
        self.weights = [1] * nvars  # the total degree field, at shift 0
        self.shifts = [0] * nvars
        self.base = var_guard = 0
        shift = width
        for block in blocks:  # the least significant block first
            for i in block:
                self.weights[i] -= 1 << shift
                self.shifts[i] = shift
                self.base += bias << shift
                var_guard |= 1 << shift + width - 1
                shift += width
            for i in block:
                self.weights[i] += 1 << shift
            shift += width
        self.var_guard = var_guard
        self.guard = sum(1 << s - 1 for s in range(width, shift + 1, width))

    def pack(self, e: Iterable[int]) -> int:
        return self.base + sum(map(mul, e, self.weights))

    def unpack(self, word: int) -> Exponent:
        bias, mask = self.bias, self.mask
        return tuple([bias - (word >> s & mask) for s in self.shifts])

    def divides(self, a: int, b: int) -> bool:
        """The monomial a divides b: no variable field of a is below b's."""
        return (a | self.guard) - b & self.var_guard == self.var_guard


def _integer_terms(p: Polynomial, packing: _Packing) -> dict:
    """p times the lcm of its denominators, on packed monomials."""
    den = lcm(*(c.denominator for _, c in p.terms))
    return {packing.pack(e): c.numerator * (den // c.denominator) for e, c in p.terms}


def _entry(terms: dict, packing: _Packing) -> tuple:
    """(lead word, lead coefficient, terms, lead exponent) of the primitive
    multiple of terms with a positive leading coefficient."""
    lead = max(terms)
    content = gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    if content != 1:
        terms = {k: c // content for k, c in terms.items()}
    return (lead, terms[lead], terms, packing.unpack(lead))


def _reduce_full(p: dict, basis: list[tuple], packing: _Packing, max_degree: int) -> dict:
    """Full multivariate division remainder of p by the basis (deterministic):
    a positive integer multiple of the exact rational remainder.

    Before each step the working polynomial and the remainder are scaled by
    lc / gcd(coefficient, lc), so that the step is integral.
    """
    guard, var_guard, mask = packing.guard, packing.var_guard, packing.mask
    divisors = [(entry[0] | guard, entry) for entry in basis]
    work = dict(p)
    remainder: dict = {}
    while work:
        mono = max(work)
        if mono & mask > max_degree:
            raise BudgetExceededError("degree", max_degree, mono & mask)
        coeff = work[mono]
        for top, (lead, lc, terms, _) in divisors:
            if top - mono & var_guard == var_guard:
                break
        else:
            remainder[mono] = coeff
            del work[mono]
            continue
        g = gcd(coeff, lc)
        if g != lc:
            m = lc // g
            work = {k: c * m for k, c in work.items()}
            remainder = {k: c * m for k, c in remainder.items()}
        factor = coeff // g
        shift = mono - lead
        for e, c in terms.items():
            ne = e + shift
            s = work.get(ne, 0) - factor * c
            if s:
                work[ne] = s
            else:
                del work[ne]
    return remainder


def _spoly(a: tuple, b: tuple, word: int) -> dict:
    """S-polynomial (lc_b/g) * (lcm/lt(a)) * a - (lc_a/g) * (lcm/lt(b)) * b of
    two basis entries, g = gcd(lc_a, lc_b), with word the packed lcm of their
    leading monomials: a positive multiple of the monic one."""
    lead_a, lc_a, terms_a, _ = a
    lead_b, lc_b, terms_b, _ = b
    g = gcd(lc_a, lc_b)
    fa, fb = lc_b // g, lc_a // g
    shift = word - lead_a
    out = {e + shift: c * fa for e, c in terms_a.items()}
    shift = word - lead_b
    for e, c in terms_b.items():
        ne = e + shift
        s = out.get(ne, 0) - c * fb
        if s:
            out[ne] = s
        else:
            del out[ne]
    return out


def buchberger(
    ideal: Ideal,
    order: MonomialOrder | None = None,
    budget: GroebnerBudget = DEFAULT_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    Pair selection follows the normal strategy (minimal lcm degree, then the
    order, then the pair's indices) from a heap, and skips pairs by the
    coprimality and chain criteria.  Coefficients are integers, and every new
    basis entry is made primitive to keep them small.
    """
    order = order or MonomialOrder.grevlex()
    # Every term a run forms has total degree at most twice this: basis terms
    # are input terms or passed the degree check when popped.
    degree = max([budget.max_degree] + [g.degree for g in ideal.generators])
    packing = _Packing(order, len(ideal.vars), degree)
    basis = [_entry(_integer_terms(g, packing), packing) for g in ideal.generators if not g.is_zero()]
    basis.sort(key=lambda t: t[0])

    # Each pair is pushed once and popped once; pending holds the pairs not
    # yet popped, for the chain criterion.  A pair's key is the degree and
    # the word of the lcm of its leading monomials.
    pending: set[tuple[int, int]] = set()
    heap: list = []
    mask = packing.mask

    def push(i: int, j: int) -> None:
        pending.add((i, j))
        word = packing.pack(map(max, basis[i][3], basis[j][3]))
        heapq.heappush(heap, (word & mask, word, (i, j)))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)

    while heap:
        lcm_degree, word, (i, j) = heapq.heappop(heap)
        pending.remove((i, j))
        # First criterion: coprime leading monomials.
        if lcm_degree == (basis[i][0] & mask) + (basis[j][0] & mask):
            continue
        # Chain criterion: some k with lt_k | lcm and both cross pairs done.
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not packing.divides(basis[k][0], word):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue

        remainder = _reduce_full(_spoly(basis[i], basis[j], word), basis, packing, budget.max_degree)
        if not remainder:
            continue
        new_index = len(basis)
        if new_index + 1 > budget.max_basis:
            raise BudgetExceededError("basis size", budget.max_basis, new_index + 1)
        # Every term of the remainder passed the degree check.
        basis.append(_entry(remainder, packing))
        for k in range(new_index):
            push(k, new_index)

    return _reduce_basis(ideal.vars, order, basis, packing, budget)


def _reduce_basis(
    vars_: tuple[str, ...],
    order: MonomialOrder,
    basis: list[tuple],
    packing: _Packing,
    budget: GroebnerBudget,
) -> GroebnerBasis:
    # Minimal basis: drop entries whose leading term another one divides.
    # Sorted by leading term, an entry's divisors come before it.
    minimal: list[tuple] = []
    for entry in sorted(basis, key=lambda t: t[0]):
        if not any(packing.divides(other[0], entry[0]) for other in minimal):
            minimal.append(entry)
    # Inter-reduce tails and normalize to monic; no other leading term
    # divides an entry's own, so it stays the leading term.
    polys = []
    for idx, (lead, _, terms, _) in enumerate(minimal):
        tail = _reduce_full(terms, minimal[:idx] + minimal[idx + 1 :], packing, budget.max_degree)
        lc = tail[lead]
        polys.append(Polynomial.from_dict(vars_, {packing.unpack(k): Fraction(c, lc) for k, c in tail.items()}))
    return GroebnerBasis(vars_, order, tuple(polys))


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

    order = MonomialOrder.elimination(drop_idx)
    gb = buchberger(ideal, order, budget)
    kept = [g.drop_vars(drop_idx) for g in gb.basis if not any(g.uses_var(i) for i in drop_idx)]
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
    aux = fresh_name("u_int", a.vars)
    vs = a.vars + (aux,)
    u = Polynomial.variable(vs, len(vs) - 1)
    one = Polynomial.constant(vs, 1)
    gens = [u * g.embed(vs) for g in a.generators]
    gens += [(one - u) * g.embed(vs) for g in b.generators]
    result = eliminate(Ideal(vs, tuple(gens)), [aux], budget)
    return Ideal(a.vars, result.generators)


# -- dimension ----------------------------------------------------------------


def dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of V(I) over the algebraic closure, read off I's
    reduced grevlex basis; -1 for the unit ideal, whose basis is (1).

    It is the size of the largest variable subset S such that no leading
    monomial is supported inside S.  A branch search takes the support with
    the fewest variables still free to leave S and branches on which of them
    leaves first, the earlier ones staying in S: the branches are disjoint,
    so there are at most 2^n leaves.
    """
    n = len(gb.vars)
    if gb.basis and gb.basis[0].is_constant():
        # A reduced basis holding a constant is (1).
        return -1
    supports = [frozenset(i for i, k in enumerate(e) if k) for e in gb.leading_exponents()]
    best = 0
    # (variables out of S, variables kept in S)
    stack = [(frozenset(), frozenset())]
    while stack:
        out, kept = stack.pop()
        if n - len(out) <= best:
            continue
        unmet = [s - kept for s in supports if not s & out]
        if not unmet:
            best = n - len(out)
            continue
        choice = sorted(min(unmet, key=len))
        branches = [(out | {v}, kept.union(choice[:i])) for i, v in enumerate(choice)]
        stack += reversed(branches)  # the first variable's branch is popped first
    return best


# -- univariate helpers and Sturm-sequence root isolation ----------------------


def _uni_coeffs(p: Polynomial) -> list[Fraction]:
    """Dense coefficient list, constant term first; requires one variable."""
    if p.nvars != 1:
        raise ValueError("polynomial is not univariate")
    out = [Fraction(0)] * (p.degree + 1)  # [] for zero, of degree -1
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
    # A constant's derivative is zero, so the gcd is 1 and the constant stays.
    square_free = coeffs
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


# Width at or below which real_roots stops refining an isolating interval.
_ROOT_WIDTH = Fraction(1, 64)


def real_roots(p: Polynomial) -> list[tuple[Fraction, Fraction]]:
    """Isolating rational intervals, one per distinct real root, left to right.

    Degenerate intervals [r, r] flag exact (bisection-reachable) rational
    roots; open intervals (lo, hi) contain exactly one root in their interior.
    One bisection isolates and refines: an interval (a, b] holding one root
    is kept once it is at most _ROOT_WIDTH wide.  It runs on an explicit
    stack, since a root bound past 2^990 needs more halvings than Python's
    recursion limit allows.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    # A nonzero constant's chain is itself: no sign change anywhere, no root.
    chain = sturm_sequence(_uni_coeffs(p))
    sf = chain[0]
    bound = 1 + max(abs(c) for c in sf) / abs(sf[-1])
    results: list[tuple[Fraction, Fraction]] = []
    # (a, b, variations at a, variations at b): va - vb roots lie in (a, b].
    stack = [(-bound, bound, _variations_at(chain, -bound), _variations_at(chain, bound))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            if _uni_eval(sf, b) == 0:
                a = b  # the root is b itself
            if b - a <= _ROOT_WIDTH:
                results.append((a, b))
                continue
        mid = (a + b) / 2
        vm = _variations_at(chain, mid)
        stack += [(mid, b, vm, vb), (a, mid, va, vm)]  # the left half is popped first
    return results
