"""Dense univariate polynomials over the rationals, with certified real-root
isolation.

`Polynomial` is a coefficient record with evaluation and no arithmetic.
All algebra (gcds, square-free parts, exact quotients, Sturm remainders)
runs on primitive integer vectors: coefficient lists cleared of their
denominators and divided by their content.

The isolation routine combines three exact ingredients:

* the square-free part f / gcd(f, f') is the one gcd each isolation takes.
  The gcd runs on primitive integer vectors: each remainder is a
  pseudo-remainder (multiplier |lc|**(delta+1), positive) divided by its
  content, a positive multiple of the remainder over the rationals, and
  each quotient by a primitive divisor is exact in integers by Gauss's
  lemma. These integer routines are the package's only gcd and square-free
  code;
* rational roots are found by the rational-root theorem on the square-free
  integer vector and returned as degenerate (point) intervals: each
  candidate num/den is tested in integers, by homogenized Horner after cheap
  divisibility filters at x = 1 and x = -1, and each root found is divided
  out by (den*x - num) with the same exact integer division;
* the remaining (irrational) roots, those of the integer quotient, are
  bracketed by Sturm-count bisection, so the interval count is provably
  exhaustive. The Sturm chain is the same primitive remainder sequence that
  the gcd takes, each remainder negated, so every division in this module
  runs on integer vectors.

Each root's multiplicity parity, which tells a technique switch (odd: the
cost difference changes sign) from a tangency (even), is read from its
certificate by homogenized Horner on p's own integer vector: whether p
changes sign across a bracket, and at an exact root the order of the first
derivative of p that does not vanish there (`_vanishing_order`).

Every interval produced contains exactly one distinct real root of the input
polynomial and has rational, non-root endpoints (except the degenerate exact
case lo == hi). Brackets are bisected on an integer vector: p's own at an
odd-multiplicity root; a square-free part is computed only to bisect an
even-multiplicity root (`_bisection_poly`). Each midpoint's sign is read by
homogenized Horner, as den**n * f(num/den) with den > 0, so every bisection
step takes the same half as it would over the rationals. Two loops do it:

* `_narrow` halves while a predicate on the bracket holds: away from excluded
  points here, and against domain edges and other brackets in `switching`
  (a few halvings each);
* `refine_root`, the one caller that stops on a width, counts its halvings
  first, as the least k with (hi - lo) / 2**k < tol by one integer division,
  and then bisects integer numerators over the single denominator
  lcm * 2**k. It visits the same dyadic midpoints as a Fraction bisection,
  returns a midpoint that is a root exactly, and builds one Fraction, the
  final midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Callable, Iterable, Optional, Sequence

from .errors import ZeroPolynomialError

ODD = "odd"
EVEN = "even"


class Polynomial:
    """Coefficient record over Fraction; index k holds the x**k coefficient.

    The zero polynomial is the empty sequence and reports degree None.
    Trailing zero coefficients are stripped on construction, so equality is
    structural equality of normalized coefficient tuples. It offers
    evaluation and no arithmetic: callers form sums and products on
    coefficient lists and build the polynomial from the result.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


def _primitive_ints(v: list[int]) -> list[int]:
    """v divided by its content (a positive integer); the zero vector stays."""
    g = _int_gcd(*v)
    return v if g <= 1 else [c // g for c in v]


def _int_vector(p: Polynomial) -> list[int]:
    """The primitive integer vector of p: p times a positive rational."""
    den = _int_lcm(*(c.denominator for c in p.coeffs))
    return _primitive_ints([c.numerator * (den // c.denominator) for c in p.coeffs])


def _derivative_ints(v: Sequence[int]) -> list[int]:
    return [k * v[k] for k in range(1, len(v))]


def _subtract_ints(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for j, c in enumerate(b):
        out[j] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """|lc(b)|**(deg a - deg b + 1) * a mod b, in integers.

    Each step scales the running remainder by |lc(b)| and cancels its top
    coefficient, so the result is a positive multiple of the remainder of a
    by b over the rationals.
    """
    rem = list(a)
    lead = b[-1]
    scale = abs(lead)
    n = len(b) - 1
    for shift in range(len(a) - len(b), -1, -1):
        top = rem.pop()
        if lead < 0:
            top = -top
        rem = [scale * c for c in rem]
        if top:
            for j in range(n):
                rem[shift + j] -= top * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd of two integer vectors by the primitive remainder sequence
    (Collins 1967; Brown & Traub 1971): primitive, with a positive leading
    coefficient; the zero vector when both are zero.

    Every remainder is a pseudo-remainder divided by its content, hence a
    positive multiple of the remainder that Euclid's algorithm over the
    rationals would take at the same step.
    """
    a, b = _primitive_ints(a), _primitive_ints(b)
    while b:
        a, b = b, _primitive_ints(_pseudo_remainder(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for integer vectors, b primitive and dividing a over the
    rationals: the quotient has integer coefficients by Gauss's lemma, so
    long division takes only exact integer steps."""
    rem = list(a)
    lead = b[-1]
    n = len(b) - 1
    quo = [0] * max(len(a) - n, 0)
    for shift in range(len(quo) - 1, -1, -1):
        q = rem.pop() // lead
        quo[shift] = q
        if q:
            for j in range(n):
                rem[shift + j] -= q * b[j]
    return quo


def _squarefree_ints(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a nonzero integer vector f; the gcd is primitive,
    so the quotient is integral."""
    if len(f) == 1:
        return f
    return _exact_quotient(f, _primitive_gcd(f, _derivative_ints(f)))


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    """The Sturm sequence of p, each member primitive in integers.

    It is the primitive remainder sequence that `_primitive_gcd` takes, with
    each remainder negated: a positive multiple of the classic sequence's
    member at the same step, so it has the same sign at every point.
    """
    f = _int_vector(p)
    chain = [f]
    d = _primitive_ints(_derivative_ints(f))
    if d:
        chain.append(d)
        while rem := _pseudo_remainder(chain[-2], chain[-1]):
            chain.append(_primitive_ints([-c for c in rem]))
    return [Polynomial(v) for v in chain]


def sign_variations(values: Sequence[Fraction]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(coeffs: Sequence) -> Fraction:
    """Cauchy's bound: every real root r of the polynomial with these
    coefficients, constant term first and the last one nonzero, as integers
    or Fractions, satisfies |r| < bound."""
    if len(coeffs) < 2:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in coeffs[:-1])) / abs(coeffs[-1])


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _divides(a: int, b: int) -> bool:
    return b == 0 if a == 0 else b % a == 0


def _values_at_unit_points(coeffs: Sequence[int]) -> tuple[int, int]:
    """f(1) and f(-1)."""
    return sum(coeffs), sum(c if j % 2 == 0 else -c for j, c in enumerate(coeffs))


def _scaled_value(coeffs: Sequence[int], num: int, den: int) -> int:
    """den**n * f(num/den) for the integer polynomial f of degree n: the
    homogenized Horner sum of c_j * num**j * den**(n - j)."""
    acc = 0
    power = 1
    for c in reversed(coeffs):
        acc = acc * num + c * power
        power *= den
    return acc


def _sign_at(f: Sequence[int], x: Fraction) -> int:
    """A value with the sign of f(x): den**n * f(num/den), as den > 0."""
    return _scaled_value(f, x.numerator, x.denominator)


def _rational_roots_of_squarefree(
    f: Sequence[int],
) -> tuple[list[Fraction], list[int]]:
    """All rational roots of a square-free primitive integer vector f, each
    simple, with the integer quotient of f by their linear factors.

    A root num/den in lowest terms has num dividing the constant term and den
    the leading one, and (den*x - num) divides f over the integers, so
    den - num divides f(1) and den + num divides f(-1); a candidate passing
    both is tested by the homogenized integer Horner sum and divided out
    exactly.
    """
    coeffs = list(f)
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs[0] == 0:
            coeffs.pop(0)
    dens = _divisors(coeffs[-1])
    f1, fm1 = _values_at_unit_points(coeffs)
    for num in _divisors(coeffs[0]):
        if len(coeffs) == 1:
            break
        for den in dens:
            if _int_gcd(num, den) != 1:
                continue
            for r in (num, -num):
                if not (_divides(den - r, f1) and _divides(den + r, fm1)):
                    continue
                if _scaled_value(coeffs, r, den) == 0:
                    roots.append(Fraction(r, den))
                    coeffs = _exact_quotient(coeffs, [-r, den])
                    f1, fm1 = _values_at_unit_points(coeffs)
    return sorted(roots), coeffs


@dataclass(frozen=True)
class RootInterval:
    """Certificate for one distinct real root.

    lo == hi marks an exact rational root; otherwise the root lies strictly
    inside (lo, hi) and is the only root of the source polynomial there.
    """

    lo: Fraction
    hi: Fraction
    parity: str  # ODD or EVEN multiplicity

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _narrow(
    f: Sequence[int], a: Fraction, b: Fraction, more: Callable[[Fraction, Fraction], bool]
) -> tuple[Fraction, Fraction]:
    """Bisect the bracket [a, b], across which the integer vector f changes
    sign, keeping the half where the sign changes, for as long as more(a, b)
    holds.

    A midpoint that is a root of f comes back as (m, m). f is evaluated
    only once the bracket needs a halving.
    """
    if not more(a, b):
        return a, b
    a_negative = _sign_at(f, a) < 0
    while True:
        m = (a + b) / 2
        fm = _sign_at(f, m)
        if fm == 0:
            return m, m
        if (fm < 0) == a_negative:
            a = m
        else:
            b = m
        if not more(a, b):
            return a, b


def _vanishing_order(f: Sequence[int], x: Fraction) -> tuple[int, int]:
    """(k, s) for a nonzero integer vector f: k is the order of the first
    derivative of f that does not vanish at x (the multiplicity of a root
    x), and s a value with that derivative's sign at x."""
    k = 0
    while (s := _sign_at(f, x)) == 0:
        f = _derivative_ints(f)
        k += 1
    return k, s


def _changes_sign(f: Sequence[int], a: Fraction, b: Fraction) -> bool:
    fa, fb = _sign_at(f, a), _sign_at(f, b)
    return (fa < 0 < fb) or (fb < 0 < fa)


def _bisection_poly(f: list[int], a: Fraction, b: Fraction) -> list[int]:
    """The integer vector to bisect a root bracket of f on: f itself when it
    changes sign across [a, b], else (an even root) its square-free part,
    which always does."""
    if not f:
        raise ZeroPolynomialError("cannot bisect on the zero polynomial")
    if _changes_sign(f, a, b):
        return f
    sf = _squarefree_ints(f)
    if not _changes_sign(sf, a, b):
        raise ValueError("interval is not an isolating interval for p")
    return sf


def _isolate_irrational(
    q: list[int], lo: Fraction, hi: Fraction, excluded: Sequence[Fraction]
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint sign-change brackets for every root of the integer vector q
    in (lo, hi).

    q must be square-free with no rational roots in the range.
    """
    if len(q) < 2 or hi <= lo:
        return []
    chain = sturm_chain(Polynomial(q))
    cache: dict[Fraction, int] = {}

    def var(point: Fraction) -> int:
        if point not in cache:
            cache[point] = sign_variations([g(point) for g in chain])
        return cache[point]

    out = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = var(a) - var(b)
        if n == 0:
            continue
        if n == 1:  # q has no rational roots, so no midpoint is a root
            out.append(_narrow(q, a, b, lambda a, b: any(a <= e <= b for e in excluded)))
            continue
        m = (a + b) / 2
        if _sign_at(q, m) == 0:
            raise AssertionError(f"bisection midpoint {m} is a root of q")
        stack.append((a, m))
        stack.append((m, b))
    out.sort()
    return out


def _isolate(
    p: Polynomial, lo: Fraction, hi: Optional[Fraction]
) -> list[RootInterval]:
    """All distinct real roots of p in the closed domain [lo, hi], sorted.

    hi=None means unbounded above (a Cauchy bound caps the search).
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    lo = Fraction(lo)
    if hi is not None:
        hi = Fraction(hi)

    f = _int_vector(p)
    sf = _squarefree_ints(f)

    def in_domain(r: Fraction) -> bool:
        return r >= lo and (hi is None or r <= hi)

    rational, quotient = _rational_roots_of_squarefree(sf)

    bound = hi if hi is not None else max(lo + 1, _cauchy_bound(quotient))
    brackets = _isolate_irrational(quotient, lo, bound, rational)

    def certified(a: Fraction, b: Fraction) -> RootInterval:
        """The root at a == b, or in the bracket (a, b), with the parity of
        its multiplicity in p: the order of the first derivative of p not
        vanishing at the exact root, or whether p changes sign across the
        bracket, which holds no other root of p and has non-root ends."""
        odd = _vanishing_order(f, a)[0] % 2 if a == b else _changes_sign(f, a, b)
        return RootInterval(a, b, ODD if odd else EVEN)

    found = [certified(r, r) for r in rational if in_domain(r)]
    found += [certified(a, b) for a, b in brackets]
    found.sort(key=lambda iv: (iv.lo, iv.hi))
    return found


def isolate_real_roots(
    p: Polynomial, lo: Fraction = Fraction(1), hi: Optional[Fraction] = None
) -> list[RootInterval]:
    """All distinct real roots of p in the half-open domain [lo, hi).

    hi=None means unbounded above (a Cauchy bound caps the search). Exact
    rational roots come back as point intervals; irrationals as sign-change
    brackets. Parity is the multiplicity parity in p itself.
    """
    found = _isolate(p, lo, hi)
    if found and hi is not None and found[-1].lo == hi:
        found.pop()  # an exact root at hi, the only kind of root that can sit there
    return found


def isolate_roots_closed(
    p: Polynomial, lo: Fraction, hi: Fraction
) -> list[RootInterval]:
    """Distinct real roots in the closed interval [lo, hi]."""
    return _isolate(p, lo, Fraction(hi))


def refine_root(interval: RootInterval, p: Polynomial, tol: Fraction) -> Fraction:
    """Rational approximation within tol of the root certified by `interval`:
    the midpoint of the first bisected bracket narrower than tol.

    Exact roots are returned unchanged. A bracket is bisected on p's integer
    vector when p changes sign across it (odd multiplicity), otherwise on the
    square-free part's, which changes sign at every real root.
    """
    if interval.is_exact:
        return interval.lo
    tol = tol if type(tol) is Fraction else Fraction(tol)
    if tol.numerator <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = interval.lo, interval.hi
    s = _bisection_poly(_int_vector(p), lo, hi)
    # k is the least count with (hi - lo) / 2**k < tol. The bracket is
    # carried as numerators a, b over den = lcm * 2**k, so every midpoint
    # (a + b) >> 1 is exact and its sign is that of den**n * s(m / den).
    lcm = _int_lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (lcm // lo.denominator)
    b = hi.numerator * (lcm // hi.denominator)
    k = max((b - a) * tol.denominator // (tol.numerator * lcm), 0).bit_length()
    a, b, den = a << k, b << k, lcm << k
    a_negative = _scaled_value(s, a, den) < 0
    for _ in range(k):
        m = (a + b) >> 1
        fm = _scaled_value(s, m, den)
        if fm == 0:
            return Fraction(m, den)
        if (fm < 0) == a_negative:
            a = m
        else:
            b = m
    return Fraction(a + b, den << 1)
