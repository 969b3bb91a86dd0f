"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from scratch on stdlib integers and
fractions, without touching the package's own isolation or dominance code:
dense sign scans with finite differences, plain bisection, products of
coefficient lists by convolution, the
rational-root theorem with every candidate evaluated as a fraction, Euclid's
gcd, Yun's decomposition and the classic Sturm sequence by long division
over the rationals, bracket bisection with a Fraction evaluation at every
midpoint, direct cheapest-technique evaluation, a grid scan of a dominance
map against it and the grid cells where the cheapest technique changes, an
exact-grid re-check of the factor-price collapse, the floating-point
log-spaced price grid, and Python's own int-to-str conversion with its
digit limit lifted.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction


def scan_sign_roots(coeffs, lo, hi, denom=1024, refine_iters=40):
    """Dense sign-scan over a uniform grid plus bisection refinement.

    coeffs are integers (constant term first). Returns a sorted list of
    ("exact", r) entries for roots landing precisely on grid points and
    ("bracket", a, b) entries (width 2**-refine_iters of a cell) for sign
    changes. Covers [lo, hi] inclusive; even-multiplicity roots that never
    touch a grid point are invisible to a sign scan by construction.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    degree = len(coeffs) - 1
    scale = [c * denom ** (degree - j) for j, c in enumerate(coeffs)]

    def value_at(m: int) -> int:  # P(m/denom) * denom**degree
        acc = 0
        for s in reversed(scale):
            acc = acc * m + s
        return acc

    base = lo.numerator * denom // lo.denominator
    assert Fraction(base, denom) == lo, "lo must be representable on the grid"
    steps = int((hi - lo) * denom)

    # forward-difference table lets each further grid value cost d additions
    window = [value_at(base + k) for k in range(degree + 1)]
    state = []
    row = window[:]
    state.append(row[0])
    for _ in range(degree):
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        state.append(row[0])

    signs = []
    for k in range(steps + 1):
        signs.append(0 if state[0] == 0 else (1 if state[0] > 0 else -1))
        for i in range(degree):
            state[i] += state[i + 1]

    def refine(a: Fraction, b: Fraction):
        fa = _poly_eval(coeffs, a)
        for _ in range(refine_iters):
            m = (a + b) / 2
            fm = _poly_eval(coeffs, m)
            if fm == 0:
                return ("exact", m)
            if (fa < 0) != (fm < 0):
                b = m
            else:
                a, fa = m, fm
        return ("bracket", a, b)

    found = []
    prev_sign = signs[0]
    prev_k = 0
    if prev_sign == 0:
        found.append(("exact", lo))
    for k in range(1, steps + 1):
        s = signs[k]
        point = lo + Fraction(k, denom)
        if s == 0:
            found.append(("exact", point))
            prev_sign, prev_k = 0, k
            continue
        if prev_sign != 0 and s != prev_sign:
            found.append(refine(lo + Fraction(prev_k, denom), point))
        prev_sign, prev_k = s, k
    return found


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def int_product(factors):
    """Coefficients (constant term first) of a product of coefficient lists,
    by schoolbook convolution; integer lists give an integer vector."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def rational_roots(int_coeffs) -> list[Fraction]:
    """Distinct rational roots of an integer polynomial (constant term
    first), sorted, by the rational-root theorem evaluated in fractions.

    Zero is a root when the constant term vanishes; the other candidates are
    every +-num/den with num dividing the lowest nonzero coefficient and den
    the leading one, each evaluated as a Fraction.
    """
    coeffs = list(int_coeffs)
    roots = set()
    while coeffs and coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return sorted(roots)

    def divisors(n: int) -> list[int]:
        n = abs(n)
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return sorted(set(small + [n // d for d in small]))

    candidates = {
        Fraction(sign * num, den)
        for num in divisors(coeffs[0])
        for den in divisors(coeffs[-1])
        for sign in (1, -1)
    }
    roots.update(c for c in candidates if _poly_eval(coeffs, c) == 0)
    return sorted(roots)


def _strip(coeffs) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _monic(coeffs) -> list[Fraction]:
    return [c / coeffs[-1] for c in coeffs]


def _fraction_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Long division of coefficient lists over the rationals."""
    rem = _strip(a)
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = f
        for j, c in enumerate(b):
            rem[shift + j] -= f * c
        rem = _strip(rem)
    return _strip(quo), rem


def _fraction_derivative(coeffs) -> list[Fraction]:
    return _strip(k * c for k, c in enumerate(coeffs) if k > 0)


def _fraction_sub(a, b) -> list[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _strip(x - y for x, y in zip(a, b))


def fraction_gcd(a, b) -> list[Fraction]:
    """Monic gcd of two coefficient lists (constant term first) by Euclid's
    algorithm over the rationals; [] when both are zero."""
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    return _monic(a) if a else []


def fraction_yun(coeffs) -> tuple[list[Fraction], list[tuple[list[Fraction], int]]]:
    """Yun's square-free decomposition over the rationals of a nonzero
    coefficient list: the monic square-free part p / gcd(p, p') and the
    monic factors [(f_k, k)] with p proportional to prod f_k**k."""
    f = _monic(_strip(coeffs))
    if len(f) == 1:
        return f, []
    df = _fraction_derivative(f)
    g = fraction_gcd(f, df)
    c = _fraction_divmod(f, g)[0]
    d = _fraction_sub(_fraction_divmod(df, g)[0], _fraction_derivative(c))
    sf, out, k = c, [], 1
    while len(c) > 1:
        a = fraction_gcd(c, d)
        if len(a) > 1:
            out.append((a, k))
        c = _fraction_divmod(c, a)[0]
        d = _fraction_sub(_fraction_divmod(d, a)[0], _fraction_derivative(c))
        k += 1
    return sf, out


def fraction_sturm_chain(coeffs) -> list[list[Fraction]]:
    """The classic Sturm sequence of a coefficient list (constant term
    first): p, p', then each next member is minus the remainder of the
    member before last by the last, by long division over the rationals,
    until that remainder is zero."""
    chain = [_strip(coeffs)]
    d = _fraction_derivative(chain[0])
    if d:
        chain.append(d)
        while rem := _fraction_divmod(chain[-2], chain[-1])[1]:
            chain.append([-c for c in rem])
    return chain


def fraction_sturm_count(coeffs, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b) of a nonzero coefficient list, neither
    end a root, by Sturm's theorem on `fraction_sturm_chain`."""

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (_poly_eval(q, x) for q in fraction_sturm_chain(coeffs)) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(a) - variations(b)


def fraction_narrow(coeffs, a: Fraction, b: Fraction, more) -> tuple[Fraction, Fraction]:
    """Bisect [a, b], across which the polynomial (coefficient list, constant
    term first) changes sign, evaluating it as a Fraction at every midpoint;
    keep the half where the sign changes while more(a, b) holds. A midpoint
    that is a root comes back as (m, m)."""
    a_negative = _poly_eval(coeffs, a) < 0
    while more(a, b):
        m = (a + b) / 2
        value = _poly_eval(coeffs, m)
        if value == 0:
            return m, m
        if (value < 0) == a_negative:
            a = m
        else:
            b = m
    return a, b


def oracle_root_value(entry) -> Fraction:
    if entry[0] == "exact":
        return entry[1]
    return (entry[1] + entry[2]) / 2


def bisect_root(func, lo: Fraction, hi: Fraction, tol: Fraction) -> Fraction:
    """Plain bisection for a sign change of `func` on [lo, hi]."""
    flo = func(lo)
    assert flo != 0 and func(hi) != 0 and (flo < 0) != (func(hi) < 0)
    while hi - lo >= tol:
        mid = (lo + hi) / 2
        fm = func(mid)
        if fm == 0:
            return mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def cheapest_at(labors: dict, wage: Fraction, interest: Fraction) -> tuple[set, Fraction]:
    """Direct evaluation of sum_t w (1+i)**t L_t per technique: the argmin
    set and the minimum cost."""
    x = 1 + Fraction(interest)
    costs = {}
    for name, labor in labors.items():
        costs[name] = sum(
            (Fraction(wage) * x**t * l for t, l in enumerate(labor, start=1)),
            Fraction(0),
        )
    best = min(costs.values())
    return {n for n, c in costs.items() if c == best}, best


def cheapest_names(labors: dict, wage: Fraction, interest: Fraction) -> set:
    """The argmin set of `cheapest_at`."""
    return cheapest_at(labors, wage, interest)[0]


def grid_mismatches(
    labors, wage, segments, boundaries, lo, hi, points=300, guard=Fraction(1, 10**6)
):
    """Cheapest-technique scan of a dominance map on an exact uniform grid.

    labors maps technique names to dated-labor vectors, segments lists
    (lo, hi, winner) in map order and boundaries the approximate boundary
    rates. At each of the points + 1 evenly spaced rates on [lo, hi] that is
    farther than `guard` from every boundary, the first segment whose span
    widened by `guard` holds the rate must name a cheapest technique; the
    count of rates where none does (or no segment holds the rate) is
    returned.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    mismatches = 0
    for k in range(points + 1):
        i = lo + (hi - lo) * Fraction(k, points)
        if any(abs(i - Fraction(g)) <= guard for g in boundaries):
            continue
        owner = next(
            (w for a, b, w in segments if Fraction(a) - guard <= i <= Fraction(b) + guard),
            None,
        )
        if owner not in cheapest_names(labors, wage, i):
            mismatches += 1
    return mismatches


def cheapest_changes(labors, wage, lo, hi, points=300) -> list:
    """The grid cells (a, b) across which the sole cheapest technique changes.

    At each of the points + 1 evenly spaced rates on [lo, hi] the cheapest
    set comes from `cheapest_names`; rates where it holds more than one name
    are passed over, so a cell runs from one rate with a sole cheapest
    technique to the next such rate, and it is returned when the two names
    differ. A dominance map has a boundary in every returned cell.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    cells = []
    last = None  # (rate, name) of the last rate with a sole cheapest technique
    for k in range(points + 1):
        i = lo + (hi - lo) * Fraction(k, points)
        names = cheapest_names(labors, wage, i)
        if len(names) != 1:
            continue
        (name,) = names
        if last is not None and last[1] != name:
            cells.append((last[0], i))
        last = (i, name)
    return cells


def _exact_root(value: int, k: int):
    """The integer k-th root of a nonnegative int by bisection, or None if
    value is not a perfect k-th power."""
    low, high = 0, value + 1
    while high - low > 1:
        mid = (low + high) // 2
        if mid**k <= value:
            low = mid
        else:
            high = mid
    return low if low**k == value else None


def factor_grid(lo=0, hi=2, points=41):
    """`points` evenly spaced exact factors x = 1 + i for i in [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    return [1 + lo + (hi - lo) * Fraction(k, points - 1) for k in range(points)]


def factor_space_violations(labors, group_lags, complement_lag, lo=0, hi=2, points=41):
    """Re-check the single switch in factor-price space on an exact grid.

    labors are two raw dated-labor vectors (lag 1 first), group_lags the
    aggregated lags and complement_lag the lag whose rental normalizes the
    group price F. Prices follow the structural definitions directly: the
    input applied t periods back is priced at x**t with x = 1 + i (the wage
    cancels from both ratios). At `points` evenly spaced exact rates on
    [lo, hi] this recomputes F/rental and the cost ratio (the technique
    using the group over the other one) and checks

    - collapse: ratio * (other's complement labor) == F/rental;
    - single-valuedness: equal relative prices carry equal ratios;
    - strict monotonicity: the ratio rises with the relative price;
    - equal-price pairs: when the group is two lags s < u placed
      symmetrically around the complement lag c (a = c - s = u - c) and
      (L_s / L_u) has a rational a-th root P, every grid rate x has the
      partner P / x with the same relative price, which must carry the
      same ratio.

    Returns one message per failed check; an empty list means the grid
    agrees with the single-switch claim.
    """
    group = sorted(group_lags)
    vectors = [[Fraction(v) for v in labor] for labor in labors]

    def at(vec, t):
        return vec[t - 1] if t <= len(vec) else Fraction(0)

    owner_pos = 0 if any(at(vectors[0], t) > 0 for t in group) else 1
    owner, other = vectors[owner_pos], vectors[1 - owner_pos]
    bundle = {t: at(owner, t) for t in group}
    other_coeff = at(other, complement_lag)

    def cost(vec, x):
        return sum((v * x**t for t, v in enumerate(vec, start=1)), Fraction(0))

    def relative_price(x):
        group_price = sum((q * x**t for t, q in bundle.items()), Fraction(0))
        return group_price / x**complement_lag

    def ratio(x):
        return cost(owner, x) / cost(other, x)

    xs = factor_grid(lo, hi, points)
    curve = [(relative_price(x), ratio(x), x) for x in xs]
    found = []
    for rel, r, x in curve:
        if r * other_coeff != rel:
            found.append(f"collapse fails at interest {x - 1}")
    curve.sort()
    for (rel_a, r_a, x_a), (rel_b, r_b, x_b) in zip(curve, curve[1:]):
        if rel_a == rel_b and r_a != r_b:
            found.append(f"two ratios at relative price {rel_a}")
        elif rel_a != rel_b and not r_a < r_b:
            found.append(f"ratio not increasing from interest {x_a - 1} to {x_b - 1}")

    for x, partner in equal_price_pairs(bundle, complement_lag, xs):
        if relative_price(x) != relative_price(partner):
            found.append(f"pair ({x - 1}, {partner - 1}) has unequal relative prices")
        elif ratio(x) != ratio(partner):
            found.append(f"pair ({x - 1}, {partner - 1}) has unequal ratios")
    return found


def equal_price_pairs(bundle, complement_lag, xs):
    """Partners x' = P / x of grid factors x with the same relative price.

    Empty unless the bundle holds two lags symmetric around complement_lag
    and the ratio of their coefficients has a rational root of that offset.
    Partners outside [min(xs), max(xs)] and fixed points x == x' are skipped.
    """
    if len(bundle) != 2:
        return []
    (s, low), (u, high) = sorted(bundle.items())
    a = complement_lag - s
    if a <= 0 or u - complement_lag != a or low <= 0 or high <= 0:
        return []
    q = Fraction(low) / Fraction(high)
    num, den = _exact_root(q.numerator, a), _exact_root(q.denominator, a)
    if num is None or den is None:
        return []
    product = Fraction(num, den)
    pairs = []
    for x in xs:
        partner = product / x
        if min(xs) <= partner <= max(xs) and partner != x:
            pairs.append((x, partner))
    return pairs


def log_grid(points, lo, hi):
    """The price grid by its floating-point definition: 10**(log10 lo + idx
    * (log10 hi - log10 lo) / (points - 1)), rounded to four decimals, with
    repeated values dropped."""
    points = max(points, 2)
    lo_f, hi_f = float(lo), float(hi)
    out = []
    for idx in range(points):
        exponent = math.log10(lo_f) + idx * (math.log10(hi_f) - math.log10(lo_f)) / (
            points - 1
        )
        approx = Fraction(round(10**exponent * 10_000), 10_000)
        if approx <= 0:
            approx = Fraction(1, 10_000)
        if not out or approx > out[-1]:
            out.append(approx)
    return out


@contextlib.contextmanager
def no_int_str_limit():
    """Lift the interpreter's int-to-str digit limit inside the block, so
    `str` converts an int of any size; the limit is put back afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit to lift
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
