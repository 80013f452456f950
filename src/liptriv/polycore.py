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
from fractions import Fraction
from math import sqrt
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Exponent = tuple[int, ...]

# Per-variable exponent cap; exceeding it raises instead of wrapping around.
MAX_EXPONENT = 2**31 - 1

# IEEE double unit roundoff, used for the float-evaluation error bound.
_EPS = 2.0**-53


def as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


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
                fixed[e] = fixed.get(e, Fraction(0)) + c
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

    def monomials(self) -> list[Exponent]:
        return [e for e, _ in self.terms]

    def term_dict(self) -> dict[Exponent, Fraction]:
        return dict(self.terms)

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

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return Polynomial.zero(self.vars)
            return Polynomial(self.vars, tuple((e, k * c) for e, k in self.terms))
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

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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

    # -- substitution ---------------------------------------------------------

    def subs(self, variables: Sequence[str], images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute a polynomial of the target ring for every variable."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        vs = tuple(variables)
        for q in images:
            if q.vars != vs:
                raise ValueError("images live in different rings")
        one = Polynomial.constant(vs, 1)
        # Power tables keep repeated exponents cheap.
        powers: list[dict[int, Polynomial]] = [{0: one} for _ in range(self.nvars)]
        result = Polynomial.zero(vs)
        for e, c in self.terms:
            term = Polynomial.constant(vs, c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                tab = powers[i]
                if k not in tab:
                    top = max(tab)
                    acc = tab[top]
                    for j in range(top + 1, k + 1):
                        acc = acc * images[i]
                        tab[j] = acc
                term = term * tab[k]
            result = result + term
        return result

    def substitute_value(self, index: int, value: "Polynomial | Scalar") -> "Polynomial":
        """Replace one variable by a constant or a polynomial of the same ring."""
        if isinstance(value, (int, Fraction)):
            value = Polynomial.constant(self.vars, value)
        self._require_same_ring(value)
        images = [
            value if i == index else Polynomial.variable(self.vars, i)
            for i in range(self.nvars)
        ]
        return self.subs(self.vars, images)

    def uses_var(self, index: int) -> bool:
        return any(e[index] for e, _ in self.terms)

    def drop_vars(self, indices: Iterable[int]) -> "Polynomial":
        """Remove variables the polynomial does not involve."""
        drop = sorted(set(indices))
        for i in drop:
            if self.uses_var(i):
                raise ValueError(f"polynomial involves variable {self.vars[i]!r}")
        keep = [i for i in range(self.nvars) if i not in drop]
        vs = tuple(self.vars[i] for i in keep)
        return Polynomial(vs, _canon({tuple(e[i] for i in keep): c for e, c in self.terms}))

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

    def homogenize(self, target_degree: int, hom_var: str = "x0") -> "Polynomial":
        """Homogenize to the given degree; the new variable is prepended."""
        d = self.degree
        if d < 0:
            d = 0
        if target_degree < d:
            raise ValueError(f"target degree {target_degree} below degree {d}")
        if hom_var in self.vars:
            raise ValueError(f"variable {hom_var!r} already in ring")
        vs = (hom_var,) + self.vars
        acc = {}
        for e, c in self.terms:
            acc[(target_degree - sum(e),) + e] = c
        return Polynomial(vs, _canon(acc))

    def dehomogenize(self, index: int = 0) -> "Polynomial":
        """Set the index-th variable to 1 and remove it from the ring."""
        keep = [i for i in range(self.nvars) if i != index]
        vs = tuple(self.vars[i] for i in keep)
        acc: dict[Exponent, Fraction] = {}
        for e, c in self.terms:
            ne = tuple(e[i] for i in keep)
            s = acc.get(ne, Fraction(0)) + c
            if s:
                acc[ne] = s
            else:
                acc.pop(ne, None)
        return Polynomial(vs, _canon(acc))

    def leading_form(self) -> "Polynomial":
        """Sum of the top-total-degree terms."""
        if not self.terms:
            raise ValueError("leading form of the zero polynomial")
        d = self.degree
        return Polynomial(self.vars, tuple((e, c) for e, c in self.terms if sum(e) == d))

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = sum(self.terms[0][0])
        return all(sum(e) == d for e, _ in self.terms)

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

    def eval_float(self, point: Sequence[float]) -> float:
        """Direct term summation at IEEE double precision (probe path)."""
        if len(point) != self.nvars:
            raise ValueError("dimension mismatch")
        total = 0.0
        for e, c in self.terms:
            term = float(c)
            for x, k in zip(point, e):
                if k:
                    term *= float(x) ** k
            total += term
        return total

    def eval_float_with_error(self, point: Sequence[float]) -> tuple[float, float]:
        """Float value plus the relative error bound n_terms * eps * |p|(|x|)."""
        value = self.eval_float(point)
        magnitude = 0.0
        for e, c in self.terms:
            term = abs(float(c))
            for x, k in zip(point, e):
                if k:
                    term *= abs(float(x)) ** k
            magnitude += term
        return value, len(self.terms) * _EPS * magnitude

    # -- misc -------------------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for zero."""
        if not self.terms:
            return Fraction(0)
        from math import gcd

        num = 0
        den = 1
        for _, c in self.terms:
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive_part(self) -> "Polynomial":
        c = self.content()
        if c in (0, 1):
            return self
        return self * (1 / c)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from .parsing import print_polynomial

        return f"<{print_polynomial(self)}>"


@dataclass(frozen=True)
class LinearMap:
    """Exact rational matrix, mapping K^cols -> K^rows by left multiplication."""

    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "LinearMap":
        fixed = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        if fixed and any(len(r) != len(fixed[0]) for r in fixed):
            raise ValueError("ragged matrix")
        return LinearMap(fixed)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Scalar]]) -> "LinearMap":
        if not cols:
            raise ValueError("no columns")
        height = len(cols[0])
        return LinearMap.from_rows(
            [[cols[j][i] for j in range(len(cols))] for i in range(height)]
        )

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def apply(self, vec: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        v = [as_fraction(x) for x in vec]
        return tuple(sum((r[j] * v[j] for j in range(self.ncols)), Fraction(0)) for r in self.rows)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self o inner, applying inner first."""
        if inner.nrows != self.ncols:
            raise ValueError("dimension mismatch")
        return LinearMap.from_rows(
            [
                [
                    sum((self.rows[i][k] * inner.rows[k][j] for k in range(self.ncols)), Fraction(0))
                    for j in range(inner.ncols)
                ]
                for i in range(self.nrows)
            ]
        )

    def rank(self) -> int:
        m = [list(r) for r in self.rows]
        rank = 0
        for col in range(self.ncols):
            piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = 1 / m[rank][col]
            m[rank] = [x * inv for x in m[rank]]
            for i in range(len(m)):
                if i != rank and m[i][col] != 0:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
            rank += 1
        return rank

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def is_surjective(self) -> bool:
        return self.rank() == self.nrows

    def inverse(self) -> "LinearMap":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        m = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = next((i for i in range(col, n) if m[i][col] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            m[col], m[piv] = m[piv], m[col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for i in range(n):
                if i != col and m[i][col] != 0:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[col])]
        return LinearMap.from_rows([row[n:] for row in m])


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

    @staticmethod
    def make(variables: Sequence[str], components: Sequence[Polynomial], name: str = "f") -> "PolyMap":
        return PolyMap(tuple(variables), tuple(components), name)

    @property
    def n(self) -> int:
        return len(self.vars)

    @property
    def p(self) -> int:
        return len(self.components)

    def degrees(self) -> tuple[int, ...]:
        return tuple(c.degree for c in self.components)

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.components)

    def evaluate(self, point: Sequence[Scalar]) -> tuple[Fraction, ...]:
        return tuple(c.eval_exact(point) for c in self.components)

    def evaluate_float(self, point: Sequence[float]) -> tuple[float, ...]:
        return tuple(c.eval_float(point) for c in self.components)

    def directional_derivative(self, v: Sequence[Scalar]) -> "PolyMap":
        """Component-wise sum_j v_j * d/dx_j, exact in the same ring."""
        if len(v) != self.n:
            raise ValueError("dimension mismatch")
        vf = [as_fraction(x) for x in v]
        comps = []
        for comp in self.components:
            acc = Polynomial.zero(self.vars)
            for j, vj in enumerate(vf):
                if vj:
                    acc = acc + comp.partial(j) * vj
            comps.append(acc)
        return PolyMap(self.vars, tuple(comps), self.name)

    def compose_linear(self, lin: LinearMap, new_vars: Sequence[str] | None = None) -> "PolyMap":
        """Exact substitution x -> L x, for L mapping K^k into the domain."""
        if lin.nrows != self.n:
            raise ValueError("dimension mismatch")
        k = lin.ncols
        if new_vars is None:
            vs = self.vars if k == self.n else tuple(f"u{i + 1}" for i in range(k))
        else:
            vs = tuple(new_vars)
            if len(vs) != k:
                raise ValueError("need one name per new variable")
        images = []
        for i in range(self.n):
            acc = Polynomial.zero(vs)
            for j in range(k):
                if lin.rows[i][j]:
                    acc = acc + Polynomial.variable(vs, j) * lin.rows[i][j]
            images.append(acc)
        return PolyMap(vs, tuple(c.subs(vs, images) for c in self.components), self.name)


class FloatKernel:
    """Polynomials, their Jacobian and a sphere trial compiled to float code.

    The probes evaluate a handful of polynomials millions of times at
    n <= 3 variables, where per-term interpretation and numpy's per-call cost
    both dominate the arithmetic.  The constructor therefore generates
    straight-line Python once and `compile()`s it.  The generated code does
    exactly the float operations of `Polynomial.eval_float`, in its order:
    `term = coeff; term *= x_i ** k` for each variable in turn (`x ** 1`
    included: it maps a NaN to a NaN of another sign), then `total += term`
    from left to right starting at 0.0.  Results are bit-identical to the
    interpreted loops they replace.  Points are used as given, not converted:
    a numpy scalar overflows to inf where a Python float raises OverflowError.

    The source names only x0..x{n-1}, integer exponents and indices into the
    coefficient tuple C, never a variable name or coefficient text of the
    input.  It defines, for points of length n:

    - `value(x)`: the list of polynomial values;
    - `jacobian(x)`: rows of partial derivatives, one row per polynomial;
    - `sphere_trial(x, t, alpha, radius, c)`: one backtracking trial on the
      sphere of radius `radius`.  It steps `y = x - alpha*t`, retracts with
      `radius * y / tn`, `tn = sqrt(sum(y_i*y_i))`, and returns
      `(sum of (value_i - c_i)^2, retracted point)`.
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

        def accumulate(target: str, poly: Polynomial) -> list[str]:
            lines = [f"{target} = 0.0"]
            for exp, c in poly.terms:
                factors = [f"C[{len(coeffs)}]"]
                coeffs.append(float(c))
                factors += [f"x{i} ** {k}" for i, k in enumerate(exp) if k]
                lines.append(f"{target} += {' * '.join(factors)}")
            return lines

        def listing(names) -> str:
            return "[" + ", ".join(names) + "]"

        def function(header: str, body: list[str]) -> list[str]:
            return [header] + ["    " + line for line in body]

        xs = [f"x{i}" for i in range(n)]
        ys = [f"y{i}" for i in range(n)]
        vs = [f"v{i}" for i in range(self.p)]
        ds = [[f"d{i}_{j}" for j in range(n)] for i in range(self.p)]
        value_body = [line for v, q in zip(vs, polys) for line in accumulate(v, q)]
        jac_body = [
            line
            for row, q in zip(ds, polys)
            for j, d in enumerate(row)
            for line in accumulate(d, q.partial(j))
        ]
        trial_body = [
            f"{listing(xs)} = x",
            f"{listing(f't{i}' for i in range(n))} = t",
            f"{listing(f'c{i}' for i in range(self.p))} = c",
        ]
        trial_body += [f"y{i} = x{i} - alpha * t{i}" for i in range(n)]
        # sum(), like the loop this replaced: Python 3.12+ compensates its
        # rounding, so a chain of + would match it only on older versions.
        trial_body.append(f"tn = sqrt(sum({listing(f'{y} * {y}' for y in ys)}))")
        trial_body += [f"x{i} = radius * y{i} / tn" for i in range(n)]
        trial_body += value_body + ["f = 0.0"]
        for i in range(self.p):
            trial_body += [f"r = v{i} - c{i}", "f += r * r"]
        trial_body.append(f"return f, {listing(xs)}")

        self.source = "\n".join(
            function("def value(x):", [f"{listing(xs)} = x"] + value_body + [f"return {listing(vs)}"])
            + function(
                "def jacobian(x):",
                [f"{listing(xs)} = x"] + jac_body + [f"return {listing(map(listing, ds))}"],
            )
            + function("def sphere_trial(x, t, alpha, radius, c):", trial_body)
        ) + "\n"
        namespace = {"C": tuple(coeffs), "sqrt": sqrt, "sum": sum}
        exec(compile(self.source, "<liptriv float kernel>", "exec"), namespace)
        self.value = namespace["value"]
        self.jacobian = namespace["jacobian"]
        self.sphere_trial = namespace["sphere_trial"]


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """A variable name not colliding with any taken name."""
    used = set(taken)
    if base not in used:
        return base
    i = 0
    while f"{base}_{i}" in used:
        i += 1
    return f"{base}_{i}"
