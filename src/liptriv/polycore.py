"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a ring given by an ordered tuple of variable names and
stores its terms as a tuple of (exponent, coefficient) pairs sorted by a fixed
global monomial comparison (graded reverse lexicographic, leading term first).
Coefficients are `fractions.Fraction`, so equality of polynomials is exact and
two equal polynomials have identical term tuples.

The zero polynomial has an empty term tuple and total degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import inf, isfinite, lcm, sqrt
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Exponent = tuple[int, ...]

# Per-variable exponent cap; exceeding it raises instead of wrapping around.
MAX_EXPONENT = 2**31 - 1


def as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def float_or_inf(c: Fraction) -> float:
    """float(c), or a signed inf past the float range; an underflow gives 0.0."""
    try:
        return float(c)
    except OverflowError:
        return inf if c > 0 else -inf


def grevlex_key(exp: Exponent):
    """Sort key realizing grevlex: max(key) is the grevlex-leading monomial."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _check_exponent(exp: Exponent) -> None:
    for e in exp:
        if e > MAX_EXPONENT:
            raise OverflowError(f"exponent {e} exceeds cap {MAX_EXPONENT}")


def _canon(term_map: Mapping[Exponent, Fraction]) -> tuple:
    items = [(e, c) for e, c in term_map.items() if c != 0]
    items.sort(key=lambda it: grevlex_key(it[0]), reverse=True)
    return tuple(items)


@dataclass(frozen=True)
class Polynomial:
    """Immutable polynomial with exact rational coefficients."""

    vars: tuple[str, ...]
    terms: tuple[tuple[Exponent, Fraction], ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_dict(variables: Sequence[str], term_map: Mapping[Exponent, Scalar]) -> "Polynomial":
        vs = tuple(variables)
        fixed = {}
        for exp, c in term_map.items():
            e = tuple(int(x) for x in exp)
            if len(e) != len(vs):
                raise ValueError("exponent length does not match variable count")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent")
            _check_exponent(e)
            c = as_fraction(c)
            if c != 0:
                fixed[e] = fixed[e] + c if e in fixed else c
        return Polynomial(vs, _canon(fixed))

    @staticmethod
    def zero(variables: Sequence[str]) -> "Polynomial":
        return Polynomial(tuple(variables), ())

    @staticmethod
    def constant(variables: Sequence[str], c: Scalar) -> "Polynomial":
        vs = tuple(variables)
        c = as_fraction(c)
        if c == 0:
            return Polynomial(vs, ())
        return Polynomial(vs, (((0,) * len(vs), c),))

    @staticmethod
    def variable(variables: Sequence[str], index: int) -> "Polynomial":
        vs = tuple(variables)
        if not 0 <= index < len(vs):
            raise IndexError(f"variable index {index} out of range")
        exp = tuple(1 if i == index else 0 for i in range(len(vs)))
        return Polynomial(vs, ((exp, Fraction(1)),))

    # -- structure ----------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _ in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (the zero polynomial gives 0)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[0][1]

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def coefficient(self, exp: Exponent) -> Fraction:
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise ValueError(f"ring mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        self._require_same_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            s = acc.get(e, Fraction(0)) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return Polynomial(self.vars, _canon(acc))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        acc: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = tuple(x + y for x, y in zip(ea, eb))
                _check_exponent(e)
                s = acc.get(e, Fraction(0)) + ca * cb
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return Polynomial(self.vars, _canon(acc))

    # -- calculus ------------------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to the index-th variable."""
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range")
        acc: dict[Exponent, Fraction] = {}
        for e, c in self.terms:
            k = e[index]
            if k == 0:
                continue
            ne = tuple(x - 1 if i == index else x for i, x in enumerate(e))
            acc[ne] = acc.get(ne, Fraction(0)) + c * k
        return Polynomial(self.vars, _canon(acc))

    def uses_var(self, index: int) -> bool:
        return any(e[index] for e, _ in self.terms)

    def drop_vars(self, indices: Iterable[int]) -> "Polynomial":
        """Set the indexed variables to zero, in the ring without them: the
        terms free of them, their exponents left out."""
        drop = set(indices)
        keep = [i for i in range(self.nvars) if i not in drop]
        kept = {tuple(e[i] for i in keep): c for e, c in self.terms if not any(e[i] for i in drop)}
        return Polynomial(tuple(self.vars[i] for i in keep), _canon(kept))

    def embed(self, variables: Sequence[str]) -> "Polynomial":
        """Reinterpret in a larger ring containing all current variables."""
        vs = tuple(variables)
        index = {name: i for i, name in enumerate(vs)}
        try:
            where = [index[name] for name in self.vars]
        except KeyError as exc:
            raise ValueError(f"target ring misses variable {exc.args[0]!r}") from None
        zero = (0,) * len(vs)
        acc = {}
        for e, c in self.terms:
            ne = list(zero)
            for i, k in enumerate(e):
                ne[where[i]] = k
            acc[tuple(ne)] = c
        return Polynomial(vs, _canon(acc))

    # -- homogenization and leading form --------------------------------------

    def homogenize(self, hom_var: str) -> "Polynomial":
        """Homogenize to the polynomial's own degree; the new variable is appended."""
        if hom_var in self.vars:
            raise ValueError(f"variable {hom_var!r} already in ring")
        d = self.degree
        vs = self.vars + (hom_var,)
        return Polynomial(vs, _canon({e + (d - sum(e),): c for e, c in self.terms}))

    # -- evaluation ------------------------------------------------------------

    def eval_exact(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("dimension mismatch")
        pt = [as_fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms:
            term = c
            for x, k in zip(pt, e):
                if k:
                    term *= x**k
            total += term
        return total

    @cached_property
    def _scaled(self) -> tuple[int, int, tuple]:
        """(D, d, terms) for `eval_at_floats`: D the lcm of the coefficients'
        denominators, d the total degree (0 for the zero polynomial), and per
        term D * c as an integer, its exponent and d minus its degree."""
        den = lcm(*(c.denominator for _, c in self.terms))
        d = max(self.degree, 0)
        return den, d, tuple((c.numerator * (den // c.denominator), e, d - sum(e)) for e, c in self.terms)

    def eval_at_floats(self, point: Sequence[float]) -> Fraction:
        """eval_exact at a point of finite floats, in integers.

        A float is a dyadic rational, so with 2^s the largest denominator
        of the coordinates each is n_i / 2^s with n_i an integer, and
        D * q(x) * 2^(s*d) is the integer sum of D * c_e * n^e * 2^(s*(d - |e|));
        one `Fraction` at the end divides it out.  The value is exactly
        eval_exact's, without a `Fraction` operation per term.
        """
        if len(point) != self.nvars:
            raise ValueError("dimension mismatch")
        den, d, terms = self._scaled
        ratios = [float(x).as_integer_ratio() for x in point]
        s = max(b.bit_length() for _, b in ratios) - 1
        nums = [a << (s - b.bit_length() + 1) for a, b in ratios]
        total = 0
        for coeff, exp, gap in terms:
            for x, k in zip(nums, exp):
                if k:
                    coeff *= x**k
            total += coeff << (s * gap)
        return Fraction(total, den << (s * d))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from .parsing import print_polynomial

        return f"<{print_polynomial(self)}>"


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form over Q by Gauss-Jordan elimination, and its pivot columns.

    The RREF of a matrix is unique, so every kernel and subspace read
    off it is independent of how the elimination runs.  A row update
    touches only the pivot row's nonzero columns: `a - f * 0` is `a`.
    """
    work = [[as_fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        inv = 1 / work[piv][col]
        top = [x * inv for x in work[piv]]
        work[piv] = work[r]
        work[r] = top
        support = [j for j, b in enumerate(top) if b]
        for i, row in enumerate(work):
            f = row[col]
            if f and i != r:
                for j in support:
                    row[j] -= f * top[j]
        pivots.append(col)
    return work[: len(pivots)], pivots


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, one vector per free column, in RREF shape."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -reduced[i][j]
        basis.append(tuple(vec))
    return basis


@dataclass(frozen=True)
class PolyMap:
    """Polynomial mapping K^n -> K^p with a shared domain ring."""

    vars: tuple[str, ...]
    components: tuple[Polynomial, ...]
    name: str = "f"

    def __post_init__(self):
        if not self.components:
            raise ValueError("a mapping needs at least one component")
        if not self.vars:
            raise ValueError("a mapping needs at least one variable")
        for comp in self.components:
            if comp.vars != self.vars:
                raise ValueError("components live in different rings")

    @property
    def n(self) -> int:
        return len(self.vars)

    @property
    def p(self) -> int:
        return len(self.components)

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.components)

    @cached_property
    def kernel(self) -> "FloatKernel":
        """The components and their partials, compiled once per mapping.  A
        cached property writes `__dict__` directly, so a frozen dataclass takes
        it, and equality and hash still read only the fields."""
        return FloatKernel(self.components)


def check_value(c: Sequence, p: int) -> None:
    """Reject a value of a p-component mapping that does not have p coordinates,
    or a float coordinate that is not finite.  An exact coordinate is not
    checked: `isfinite` of a huge `Fraction` overflows, and every one is finite."""
    if len(c) != p:
        raise ValueError("value must have one coordinate per component")
    if any(isinstance(x, float) and not isfinite(x) for x in c):
        raise ValueError("value coordinates must be finite")


def _listing(names: Iterable[str]) -> str:
    return "[" + ", ".join(names) + "]"


# Operands per generated statement: CPython's compiler recurses once per `+`
# or `*` of a chain and gives up at about 3,000, so a longer chain goes on in
# the next.
_CHAIN = 256


def _chain(target: str, op: str, operands: Sequence[str]) -> list[str]:
    """Statements setting target to the operands joined by op, left to right."""
    return [
        f"{target} = " + f" {op} ".join(([target] if k else []) + list(operands[k:k + _CHAIN]))
        for k in range(0, len(operands), _CHAIN)
    ]


def _add(target: str, terms: Iterable[str]) -> list[str]:
    """Statements setting target to the terms added left to right from 0.0."""
    return _chain(target, "+", ["0.0", *terms])


def _indent(lines: Iterable[str]) -> list[str]:
    return ["    " + line for line in lines]


class FloatKernel:
    """Polynomials, their Jacobian and three loops compiled to float code.

    The probes evaluate a handful of polynomials millions of times at
    n <= 3 variables, inside a descent loop, where interpreted loop code,
    per-call overhead and numpy's per-call cost all cost more than the
    arithmetic.  The kernel therefore generates straight-line Python and
    `compile()`s it, each function on its first use: a caller of `value` and
    `jacobian` alone never pays for the loops.  For points of length n:

    - `value(x)`: the list of polynomial values;
    - `jacobian(x)`: rows of partial derivatives, one row per polynomial;
    - `sphere_descent(x, radius, c, max_iter) -> (fx, x)`: one restart of the
      properness probe's descent of |g - c|^2 on the sphere |x| = radius.
      Each step takes the gradient (skipping components whose residual is
      0.0), its tangent part t, and an Armijo backtracking of at most 60
      trials from `alpha = min(0.1*radius/|t|, 4*last)`, where `last` is the
      step last accepted in the same call; a trial steps `y = x - alpha*t`
      and retracts to `radius * y / |y|`.  After a rejected trial of finite
      f the next alpha is the minimizer of the quadratic through (0, fx)
      with slope -|t|^2 and through (alpha, f),
      `q = |t|^2 * alpha^2 / (2 * (f - fx + |t|^2 * alpha))`, clipped to
      [0.1*alpha, 0.5*alpha] (Nocedal and Wright, 2006, section 3.5); a
      non-finite f, or a q that is not finite or has no positive
      denominator, halves alpha.  It stops on a non-finite gradient, a
      tangent norm <= 1e-300 or non-finite, a failed line search,
      fx <= 1e-300, no progress, or after max_iter steps.  No progress
      means that the accepted trial's f is not below fx in floats: the
      Armijo decrease has fallen below fx's rounding, so a restart settled
      at a positive minimum ends there, at that accepted point;
    - `sphere_extreme(x, radius, sign, max_iter) -> (fx, x)`, for a kernel of
      one polynomial q: one restart of the descent of sign * q on the same
      sphere, so sign -1 climbs q.  Its steps, line search and stops are
      `sphere_descent`'s, with gradient sign * dq, except that it has no
      fx <= 1e-300 stop, since sign * q can be negative;
    - `fiber_project(z, target, radius, tol, steps) -> z`, for a kernel of
      one polynomial q: at most `steps` Gauss-Newton steps toward
      {q = target}.  Each step solves the one equation J . s = r, r = q(z) -
      target, as the minimum-norm step: with m the largest |J_j| and
      u = J / m, s = r / m / sum(u_j^2) times u, so no square overflows or
      underflows; a zero row gives the zero step.  Then z - s is retracted
      to the sphere of `radius` when its norm is past it (radius inf: no
      ball).  It stops on a non-finite residual, sqrt(r * r) < tol, a
      non-finite row or a non-finite step, or after `steps` steps.

    The descent warm-starts its line search: each step's first trial is
    capped at 4x the step last accepted in the same call, so a descent
    whose steps shrink does not backtrack down from the cold size again at
    every step, and a rejected trial interpolates rather than halves, so
    most steps take one or two trials.  The factor 4, the clip 0.1 and 0.5
    and the 60 trials are fixed, not settings.

    Every function is assembled from the same per-point blocks.  At a point
    with coordinates P0..P{n-1} the power block computes each `Pi ** k` a
    term uses once (`** 1` included: it maps a NaN to a NaN of another sign),
    and the value and partial blocks share those powers: a value of up to
    256 terms is one assignment `vPi = 0.0 + C[m] * P0_2 * P1_1 + ...`, and
    a partial `dPi_j` likewise.

    Bit-identity contract: the generated code does the float operations of
    plain term-by-term summation (each term `float(c)`, a signed inf past
    the float range, times its powers in variable order, added to 0.0 in
    term order: `eval_float` in `tests/conftest.py`) and of the interpreted
    reference loops (`reference_sphere_descent` in
    `tests/test_float_kernel.py`, `reference_fiber_project` in
    `tests/conftest.py`), in their order, so every value, gradient, step
    and stop is bit-identical to theirs.  Every sum,
    of terms or of a step's squares and products, is written out the same
    way, `s = 0.0 + a + b + ...`: left to right, as `sum` adds floats on
    Python 3.11 (whose `0 + a` turns a -0.0 into 0.0, hence the leading
    0.0).  So no call or list is made per sum, and no Python version's
    `sum` rounding (3.12+ compensates) reaches the bits.  A sum of more than
    256 addends goes on as `s = s + ...` in the next statement, the same
    additions in the same order: CPython's compiler gives up on a chain of
    about 3,000, and a polynomial within the parser's caps can have
    thousands of terms.  A term of more than 256 factors is likewise
    multiplied out first, `w = C[m] * ...` and then `w = w * ...`, in
    variable order, so a monomial in thousands of variables compiles; the
    Jacobian of such a map is still out of reach, its source growing as
    n^2.  Points are
    used as given, not converted: the probes pass Python floats, so a power
    past the float range raises OverflowError, which drops that probe's
    start, while a product or sum past it is a quiet inf.  `source(name)` names only positional
    locals, integer exponents and indices into the coefficient tuple C,
    never a variable name or coefficient text of the input.
    """

    def __init__(self, polys: Sequence[Polynomial]):
        polys = tuple(polys)
        if not polys or not polys[0].vars:
            raise ValueError("a kernel needs at least one polynomial and one variable")
        if any(q.vars != polys[0].vars for q in polys):
            raise ValueError("polynomials live in different rings")
        n = self.n = polys[0].nvars
        self.p = len(polys)
        coeffs: list[float] = []

        def terms(poly: Polynomial) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
            """Per term: its index into C and its (variable, exponent) powers."""
            out = []
            for exp, c in poly.terms:
                out.append((len(coeffs), tuple((i, k) for i, k in enumerate(exp) if k)))
                coeffs.append(float_or_inf(c))
            return out

        def powers(tables) -> list[tuple[int, int]]:
            return sorted({pw for table in tables for _, pws in table for pw in pws})

        self._values = [terms(q) for q in polys]
        self._partials = [[terms(q.partial(j)) for j in range(n)] for q in polys]
        self._coeffs = tuple(coeffs)
        self._value_powers = powers(self._values)
        self._partial_powers = powers(table for row in self._partials for table in row)

    # -- compiled functions, each on first use ----------------------------------

    @cached_property
    def value(self):
        return self._compile("value")

    @cached_property
    def jacobian(self):
        return self._compile("jacobian")

    @cached_property
    def sphere_descent(self):
        return self._compile("sphere_descent")

    @cached_property
    def sphere_extreme(self):
        return self._compile("sphere_extreme")

    @cached_property
    def fiber_project(self):
        return self._compile("fiber_project")

    def _compile(self, name: str):
        namespace = {
            "C": self._coeffs, "abs": abs, "inf": inf, "isfinite": isfinite, "max": max, "min": min,
            "sqrt": sqrt,
        }
        exec(compile(self.source(name), f"<liptriv float kernel {name}>", "exec"), namespace)
        return namespace[name]

    def source(self, name: str) -> str:
        """The generated source of one function: value, jacobian, sphere_descent,
        sphere_extreme or fiber_project."""
        header, body = {
            "value": self._value_code, "jacobian": self._jacobian_code,
            "sphere_descent": self._sphere_descent_code,
            "sphere_extreme": self._sphere_extreme_code, "fiber_project": self._fiber_project_code,
        }[name]()
        return "\n".join([header] + _indent(body)) + "\n"

    # -- per-point blocks ----------------------------------------------------------

    def _coords(self, P: str) -> list[str]:
        return [f"{P}{i}" for i in range(self.n)]

    def _state(self, P: str) -> list[str]:
        """The names the value block defines at point P, coordinates included."""
        return (
            self._coords(P)
            + [f"{P}{i}_{k}" for i, k in self._value_powers]
            + [f"v{P}{i}" for i in range(self.p)]
        )

    @staticmethod
    def _accumulate(target: str, terms, P: str) -> list[str]:
        """Statements adding the terms at P into target; a term of more than
        `_CHAIN` factors is first multiplied out into its own local w<index>."""
        lines, products = [], []
        for index, (m, pws) in enumerate(terms):
            factors = [f"C[{m}]", *(f"{P}{i}_{k}" for i, k in pws)]
            if len(factors) > _CHAIN:
                lines += _chain(f"w{index}", "*", factors)
                factors = [f"w{index}"]
            products.append(" * ".join(factors))
        return lines + _add(target, products)

    def _value_block(self, P: str) -> list[str]:
        lines = [f"{P}{i}_{k} = {P}{i} ** {k}" for i, k in self._value_powers]
        for i, table in enumerate(self._values):
            lines += self._accumulate(f"v{P}{i}", table, P)
        return lines

    def _partial_block(self, P: str, known=()) -> list[str]:
        """Partials at P; the powers in `known` were computed by its value block."""
        lines = [f"{P}{i}_{k} = {P}{i} ** {k}" for i, k in self._partial_powers if (i, k) not in known]
        for i, row in enumerate(self._partials):
            for j, table in enumerate(row):
                lines += self._accumulate(f"d{P}{i}_{j}", table, P)
        return lines

    # -- the five functions -----------------------------------------------------

    def _value_code(self):
        body = [f"{_listing(self._coords('x'))} = x", *self._value_block("x")]
        body.append(f"return {_listing(f'vx{i}' for i in range(self.p))}")
        return "def value(x):", body

    def _jacobian_code(self):
        rows = [_listing(f"dx{i}_{j}" for j in range(self.n)) for i in range(self.p)]
        body = [f"{_listing(self._coords('x'))} = x", *self._partial_block("x")]
        body.append(f"return {_listing(rows)}")
        return "def jacobian(x):", body

    def _sphere_loop(self, setup, objective, gradient, stop):
        """The body of a sphere descent: `objective(target, P)` sets target to
        the objective at P, `gradient` sets g0..g{n-1} at x from the value
        and partial blocks, and `stop` is the test after an accepted step."""
        n = self.n
        xs, zs = self._coords("x"), self._coords("z")
        ts, ys, gs = ([f"{a}{j}" for j in range(n)] for a in "tyg")

        step = self._partial_block("x", self._value_powers) + gradient
        step += [f"if not ({' and '.join(f'isfinite({g})' for g in gs)}):", "    break"]
        step += [*_add("dot", (f"{g} * {x}" for g, x in zip(gs, xs))), "dot = dot / r2"]
        step += [f"{t} = {g} - dot * {x}" for t, g, x in zip(ts, gs, xs)]
        step += [*_add("tt", (f"{t} * {t}" for t in ts)), "tnorm = sqrt(tt)"]
        step += ["if tnorm <= 1e-300 or not isfinite(tnorm):", "    break"]
        step.append("alpha = min(0.1 * radius / tnorm, 4.0 * last)")
        trial = [f"{y} = {x} - alpha * {t}" for y, x, t in zip(ys, xs, ts)]
        trial += [*_add("tn", (f"{y} * {y}" for y in ys)), "tn = sqrt(tn)"]
        trial += [f"{z} = radius * {y} / tn" for z, y in zip(zs, ys)]
        trial += self._value_block("z") + objective("f", "z")
        trial += ["if isfinite(f) and f <= fx - 1e-4 * alpha * tnorm * tnorm:", "    break"]
        trial += ["den = f - fx + tt * alpha"]
        trial += ["q = tt * alpha * alpha / (2.0 * den) if isfinite(f) and den > 0.0 else inf"]
        trial += ["alpha = min(max(q, 0.1 * alpha), 0.5 * alpha) if isfinite(q) else 0.5 * alpha"]
        step += ["for _ in range(60):", *_indent(trial), "else:", "    break", "last = alpha"]
        step += [f"{a} = {b}" for a, b in zip(self._state("x"), self._state("z"))]
        step += ["progress = f < fx", "fx = f", f"if {stop}:", "    break"]

        body = [f"{_listing(xs)} = x", *setup, "r2 = radius * radius", "last = inf"]
        body += self._value_block("x") + objective("fx", "x")
        body += ["for _ in range(max_iter):", *_indent(step), f"return fx, {_listing(xs)}"]
        return body

    def _sphere_descent_code(self):
        p = self.p
        gs = [f"g{j}" for j in range(self.n)]

        def objective(target: str, P: str) -> list[str]:
            lines = [f"{target} = 0.0"]
            for i in range(p):
                lines += [f"r = v{P}{i} - c{i}", f"{target} += r * r"]
            return lines

        gradient = [f"{g} = 0.0" for g in gs]
        for i in range(p):
            gradient += [f"ri2 = 2.0 * (vx{i} - c{i})", "if ri2 != 0.0:"]
            gradient += [f"    {g} += ri2 * dx{i}_{j}" for j, g in enumerate(gs)]
        setup = [f"{_listing(f'c{i}' for i in range(p))} = c"]
        body = self._sphere_loop(setup, objective, gradient, "fx <= 1e-300 or not progress")
        return "def sphere_descent(x, radius, c, max_iter):", body

    def _sphere_extreme_code(self):
        if self.p != 1:
            raise ValueError("sphere_extreme needs a kernel of one polynomial")

        def objective(target: str, P: str) -> list[str]:
            return [f"{target} = sign * v{P}0"]

        gradient = [f"g{j} = sign * dx0_{j}" for j in range(self.n)]
        body = self._sphere_loop([], objective, gradient, "not progress")
        return "def sphere_extreme(x, radius, sign, max_iter):", body

    def _fiber_project_code(self):
        if self.p != 1:
            raise ValueError("fiber_project needs a kernel of one polynomial")
        zs, ys, ss, us = ([f"{a}{j}" for j in range(self.n)] for a in "zysu")
        ds = [f"dz0_{j}" for j in range(self.n)]
        biggest = f"max({', '.join(f'abs({d})' for d in ds)})" if self.n > 1 else f"abs({ds[0]})"

        step = self._value_block("z") + ["r = vz0 - target"]
        step += ["if not isfinite(r) or sqrt(r * r) < tol:", "    break"]
        step += self._partial_block("z", self._value_powers)
        step += [f"if not ({' and '.join(f'isfinite({d})' for d in ds)}):", "    break"]
        step += [f"m = {biggest}", "if m == 0.0:", *_indent(f"{s} = 0.0" for s in ss), "else:"]
        solve = [f"{u} = {d} / m" for u, d in zip(us, ds)]
        solve += [*_add("scale", (f"{u} * {u}" for u in us)), "scale = r / m / scale"]
        solve += [f"{s} = scale * {u}" for s, u in zip(ss, us)]
        solve += [f"if not ({' and '.join(f'isfinite({s})' for s in ss)}):", "    break"]
        step += _indent(solve)
        step += [f"{y} = {z} - {s}" for y, z, s in zip(ys, zs, ss)]
        step += [*_add("norm", (f"{y} * {y}" for y in ys)), "norm = sqrt(norm)"]
        step += ["if norm <= radius or norm == 0.0:", *_indent(f"{z} = {y}" for z, y in zip(zs, ys))]
        step += ["else:", *_indent(f"{z} = radius * {y} / norm" for z, y in zip(zs, ys))]

        body = [f"{_listing(zs)} = z", "for _ in range(steps):", *_indent(step)]
        body.append(f"return {_listing(zs)}")
        return "def fiber_project(z, target, radius, tol, steps):", body


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """A variable name not colliding with any taken name."""
    used = set(taken)
    if base not in used:
        return base
    i = 0
    while f"{base}_{i}" in used:
        i += 1
    return f"{base}_{i}"
