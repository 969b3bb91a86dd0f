import random
from collections import Counter
from fractions import Fraction as F
from itertools import zip_longest
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _fraction_derivative,
    _fraction_divmod,
    _poly_eval,
    bisect_root,
    descartes_domain_variations,
    fraction_gcd,
    fraction_narrow,
    fraction_sturm_chain,
    fraction_sturm_count,
    fraction_yun,
    int_product,
    oracle_root_value,
    rational_roots,
    roots_with_multiplicity,
    scan_sign_roots,
)
import reswitch.polynomial as polynomial
from reswitch import (
    EVEN,
    ODD,
    Polynomial,
    RootInterval,
    ZeroPolynomialError,
    isolate_real_roots,
    isolate_roots_closed,
    refine_root,
)
from reswitch.polynomial import (
    _cauchy_bound,
    _domain_variations,
    _int_vector,
    _primitive_gcd,
    _squarefree_ints,
    _taylor_shift,
    _vanishing_order,
    sturm_chain,
)
from reswitch.switching import _clip_bracket


def poly(*coeffs):
    return Polynomial(coeffs)


def poly_product(*factors):
    """The Polynomial whose coefficients are the product of the coefficient
    lists."""
    return Polynomial(int_product(factors))


def monic(coeffs):
    """A coefficient list divided by its leading coefficient, in Fractions."""
    return [F(c) / coeffs[-1] for c in coeffs]


def oracle_parity(factors, iv):
    """The multiplicity parity of the root that iv certifies, read from the
    factors [(f_k, k)] of `fraction_yun`: each f_k is square-free, so the
    root's f_k is the one factor that vanishes at the exact root, or that
    changes sign across the bracket."""
    if iv.is_exact:
        (k,) = [k for f, k in factors if _poly_eval(f, iv.lo) == 0]
    else:
        (k,) = [k for f, k in factors if _poly_eval(f, iv.lo) * _poly_eval(f, iv.hi) < 0]
    return ODD if k % 2 else EVEN


class TestArithmetic:
    def test_eval_examples(self):
        assert poly(0, 0, 7)(F(5, 2)) == F(175, 4)
        assert poly(0, 6, 0, 2)(F(1)) == 8
        assert Polynomial()(F(17, 3)) == 0

    def test_degree_and_zero(self):
        assert Polynomial().degree is None
        assert poly(5).degree == 0
        assert poly(0, 1).degree == 1
        assert poly(1, 0, 0).degree == 0  # trailing zeros stripped

    @given(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=5),
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=5),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
    )
    @settings(max_examples=120)
    def test_eval_is_additive_and_multiplicative(self, cs, ds, x):
        p, q = Polynomial(cs), Polynomial(ds)
        assert p(x) == _poly_eval(cs, x) and q(x) == _poly_eval(ds, x)
        total = [a + b for a, b in zip_longest(cs, ds, fillvalue=0)]
        assert Polynomial(total)(x) == p(x) + q(x)
        assert poly_product(cs, ds)(x) == p(x) * q(x)


class TestStructure:
    def test_gcd(self):
        p = poly_product([-2, 1], [-3, 1], [1, 1])
        q = poly_product([-2, 1], [5, 1])
        assert _primitive_gcd(_int_vector(p), _int_vector(q)) == [-2, 1]
        assert fraction_gcd(p.coeffs, q.coeffs) == [-2, 1]

    def test_squarefree_decomposition(self):
        p = poly_product([0, 1], [-2, 1], [-2, 1])  # x (x-2)^2
        sf = _squarefree_ints(_int_vector(p))
        assert sf == [0, -2, 1]  # x (x-2)
        factors = [([0, 1], 1), ([-2, 1], 2)]
        assert fraction_yun(p.coeffs) == (sf, factors)
        roots = isolate_roots_closed(p, F(-1), F(3))
        assert [(r.lo, r.parity) for r in roots] == [(0, ODD), (2, EVEN)]
        assert [r.parity for r in roots] == [oracle_parity(factors, r) for r in roots]

    def test_isolation_takes_one_gcd_on_squarefree_input(self, monkeypatch):
        # the square-free part's gcd runs on integer vectors, by the
        # primitive remainder sequence
        calls = []
        original = polynomial._primitive_gcd

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(polynomial, "_primitive_gcd", counting)
        roots = isolate_real_roots(poly(-2, 0, 0, 1), F(-3), F(3))  # x^3 - 2
        assert len(roots) == 1 and not roots[0].is_exact
        assert len(calls) == 1

    def test_isolation_takes_one_gcd_on_repeated_factors(self, monkeypatch):
        # parities come from the certificates, so repeated factors cost no
        # gcd beyond the square-free part's
        calls = []
        original = polynomial._primitive_gcd

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(polynomial, "_primitive_gcd", counting)
        # (x - 1)^3 (x^3 - 2)^2 (2x + 3)^4
        p = poly_product(*[[-1, 1]] * 3, *[[-2, 0, 0, 1]] * 2, *[[3, 2]] * 4)
        roots = isolate_roots_closed(p, F(-3), F(3))
        assert [(r.is_exact, r.parity) for r in roots] == [
            (True, EVEN), (True, ODD), (False, EVEN)
        ]
        assert len(calls) == 1

    def test_sturm_chain_runs_on_the_integer_remainder_sequence(self, monkeypatch):
        # the chain's remainders are the same integer pseudo-remainders that
        # the gcd takes; no rational long division
        calls = []
        original = polynomial._pseudo_remainder

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(polynomial, "_pseudo_remainder", counting)
        chain = sturm_chain(poly(6, 0, -5, 0, 1))  # (x^2 - 2)(x^2 - 3)
        assert [q.degree for q in chain] == [4, 3, 2, 1, 0]
        assert len(calls) == 4

    def test_yun_square_free_part_matches_gcd_quotient(self):
        # the integer square-free part against the gcd quotient and the
        # fraction Yun oracle's; each root's parity against the oracle's
        # multiplicities
        rng = random.Random(31)
        parities = Counter()
        for _ in range(40):
            factors = [[rng.randint(-4, 4), rng.randint(1, 3)] for _ in range(3)]
            scale = [rng.choice((-3, 2, 5, F(1, 2)))]
            p = poly_product(scale, *factors, rng.choice(factors))
            f = _int_vector(p)
            g = fraction_gcd(p.coeffs, _fraction_derivative(p.coeffs))
            quotient, _ = _fraction_divmod(p.coeffs, g)
            sf, factors = fraction_yun(p.coeffs)
            assert monic(_squarefree_ints(f)) == sf == monic(quotient)
            product = [1]
            for a, k in factors:
                product = int_product([product] + [a] * k)
            assert monic(product) == monic(p.coeffs)
            bound = _cauchy_bound(f)
            for iv in isolate_roots_closed(p, -bound, bound):
                assert iv.is_exact and iv.parity == oracle_parity(factors, iv)
                parities[iv.parity] += 1
        assert parities[ODD] >= 40 and parities[EVEN] >= 30, parities

    def test_cauchy_bound_contains_roots(self):
        p = poly(-6, 11, -6, 1)
        assert _cauchy_bound(p.coeffs) > 3


class TestIsolation:
    def test_cost_difference_roots(self):
        d = poly(0, -6, 7, -2)  # -2x^3 + 7x^2 - 6x, roots 0, 3/2, 2
        roots = isolate_real_roots(d, F(1), None)
        assert [(r.lo, r.hi) for r in roots] == [(F(3, 2), F(3, 2)), (F(2), F(2))]
        assert all(r.parity == ODD for r in roots)

    def test_linear(self):
        roots = isolate_real_roots(poly(-1, 1), F(0), None)
        assert [(r.lo, r.hi) for r in roots] == [(F(1), F(1))]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            isolate_real_roots(Polynomial(), F(0), None)

    def test_domain_is_half_open(self):
        p = poly_product([-2, 1], [-3, 1])
        assert len(isolate_real_roots(p, F(2), F(3))) == 1  # root at 3 excluded
        assert len(isolate_real_roots(p, F(2), F(7, 2))) == 2

    def test_closed_interval_reports_parity_at_hi(self):
        p = poly_product([-1, 1], [-2, 1], [-2, 1])  # (x-1)(x-2)^2
        roots = isolate_roots_closed(p, F(0), F(2))
        assert [(r.lo, r.hi, r.parity) for r in roots] == [
            (F(1), F(1), ODD),
            (F(2), F(2), EVEN),
        ]
        assert [r.lo for r in isolate_real_roots(p, F(0), F(2))] == [F(1)]

    def test_even_parity_flagged(self):
        p = poly_product([0, 1], [-2, 1], [-2, 1])
        roots = isolate_real_roots(p, F(-1), None)
        by_value = {r.lo: r.parity for r in roots}
        assert by_value[F(0)] == ODD
        assert by_value[F(2)] == EVEN

    def test_irrational_roots_bracketed(self):
        p = poly(-2, 0, 1)  # x^2 - 2
        roots = isolate_real_roots(p, F(0), None)
        assert len(roots) == 1
        r = roots[0]
        assert not r.is_exact and r.parity == ODD
        assert p(r.lo) * p(r.hi) < 0

    def test_random_degree_five_matches_sign_scan(self):
        rng = random.Random(505)
        checked = 0
        while checked < 40:
            coeffs = [rng.randint(-9, 9) for _ in range(5)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
            p = Polynomial(coeffs)
            if len(fraction_gcd(coeffs, _fraction_derivative(coeffs))) != 1:
                continue  # sign scans cannot see even-multiplicity roots
            checked += 1
            expected = scan_sign_roots(coeffs, F(-8), F(8), denom=1024)
            expected = [e for e in expected if oracle_root_value(e) < 8]
            got = isolate_real_roots(p, F(-8), F(8))
            assert len(got) == len(expected)
            for iv, entry in zip(got, expected):
                target = oracle_root_value(entry)
                approx = refine_root(iv, p, F(1, 2**40))
                assert abs(approx - target) < F(1, 1024)

    @given(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=2,
            max_size=7,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sturm_count_matches_interval_count(self, cs):
        p = Polynomial(cs)
        if p.is_zero or p.degree == 0:
            return
        sf = Polynomial(fraction_yun(p.coeffs)[0])
        lo, hi = F(-20), F(20)
        if sf(lo) == 0 or sf(hi) == 0:
            return
        assert fraction_sturm_count(sf.coeffs, lo, hi) == len(isolate_real_roots(p, lo, hi))


def planted_factors(rng, const, lead):
    """Distinct irreducible integer factors of a polynomial whose square-free
    product has constant term +-const (or 0, with a zero root) and leading
    coefficient lead, with the rational roots they plant.

    Linear factors den*x - num take roots from 0, +-1 and +-num/den with
    num | const and den | lead; an irreducible quadratic with irrational (or
    no) real roots takes up the rest of both ends, and sometimes x**2 - m
    joins it.
    """
    pool = [F(0), F(1), F(-1)] + [
        F(sign * num, den)
        for num in (2, 3, 4, 5, 7, 9, 11, 13, 16)
        for den in (2, 3, 5, 7, 8, 9)
        for sign in (1, -1)
    ]
    factors, roots = [], []
    for r in rng.sample(pool, rng.randint(1, 4)):
        num, den = r.numerator, r.denominator
        if r in roots or (num and const % abs(num)) or lead % den:
            continue
        roots.append(r)
        factors.append([-num, den])
        const //= abs(num) or 1
        lead //= den
    while True:
        b = rng.randint(-4 * (const + lead), 4 * (const + lead))
        c = rng.choice((const, -const))
        disc = b * b - 4 * lead * c
        if gcd(gcd(lead, b), c) == 1 and (disc < 0 or isqrt(disc) ** 2 != disc):
            factors.append([c, b, lead])
            break
    if rng.random() < 0.3:
        factors.append([-rng.choice((2, 3, 5, 6, 7)), 0, 1])
    return factors, sorted(roots)


class TestRationalRoots:
    ENDS = ((720720, 5040), (5040, 720720), (5040, 5040), (360, 840), (720, 120), (12, 1))

    def test_exact_roots_match_fraction_oracle(self):
        rng = random.Random(720720)
        repeated = 0
        for trial in range(36):
            const, lead = self.ENDS[trial % len(self.ENDS)]
            factors, planted = planted_factors(rng, const, lead)
            sf = int_product(factors)
            assert abs(sf[-1]) == lead
            powers = [1] * len(factors)
            powers[rng.randrange(len(factors))] = rng.choice((1, 2, 3))
            repeated += max(powers) > 1
            p = Polynomial(int_product(f for f, k in zip(factors, powers) for _ in range(k)))
            lo = -1 - max(abs(c) for c in p.coeffs)
            exact = [iv.lo for iv in isolate_real_roots(p, lo, None) if iv.is_exact]
            assert exact == rational_roots(sf) == planted
        assert repeated >= 12

    def test_candidates_tested_in_integers(self, monkeypatch):
        # 5040 x^2 - 130001 x + 720720 times (2x - 3)(x + 1): 2 * 5040 and
        # 3 * 720720 at the ends, so thousands of candidates, no fractions
        f = int_product([[-3, 2], [1, 1], [720720, -130001, 5040]])
        calls = []
        original = Polynomial.__call__

        def counting(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(Polynomial, "__call__", counting)
        roots, quotient = polynomial._rational_roots_of_squarefree(f)
        assert calls == []
        assert roots == rational_roots(f) == [F(-1), F(3, 2)]
        assert quotient == [720720, -130001, 5040]

    def test_candidates_coprime_and_filtered_at_unit_points(self, monkeypatch):
        # every candidate num/den reaching the Horner test is in lowest terms,
        # and den - num divides f(1) and den + num divides f(-1)
        rng = random.Random(5040)
        tested = []
        original = polynomial._scaled_value

        def checking(coeffs, num, den):
            f1 = sum(coeffs)
            fm1 = sum(c * (-1) ** j for j, c in enumerate(coeffs))
            assert gcd(num, den) == 1
            assert (f1 == 0) if den == num else f1 % (den - num) == 0
            assert (fm1 == 0) if den == -num else fm1 % (den + num) == 0
            tested.append((num, den))
            return original(coeffs, num, den)

        monkeypatch.setattr(polynomial, "_scaled_value", checking)
        for trial in range(10):
            factors, planted = planted_factors(rng, *self.ENDS[trial % len(self.ENDS)])
            roots, _ = polynomial._rational_roots_of_squarefree(int_product(factors))
            assert roots == planted
        assert tested


class TestIntegerAlgebra:
    """The gcd and the square-free part run on primitive integer vectors;
    they must equal Euclid's gcd and Yun's square-free part over the
    rationals up to a positive scale, and each isolated root's parity the
    multiplicity that Yun's decomposition gives it."""

    KINDS = ("rational", "irrational", "complex", "cubic")

    @staticmethod
    def factor(rng):
        kind = rng.choice(TestIntegerAlgebra.KINDS)
        if kind == "rational":  # one rational root, often fractional coefficients
            lead = F(rng.choice((1, -1, 2, 3)), rng.randint(1, 3))
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)), lead]
        elif kind == "irrational":
            coeffs = [-rng.choice((2, 3, 5, 6, 7)), 0, 1]
        elif kind == "complex":
            coeffs = [rng.randint(1, 6), rng.randint(-2, 2), 1]
        else:
            coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
            coeffs.append(rng.randint(1, 4))
        return kind, coeffs

    def product(self, rng, shared, seen):
        roll = rng.random()
        if roll < 0.05:
            seen["zero"] += 1
            return []
        scale = F(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 1, 2, 7)))
        if roll < 0.1:
            seen["constant"] += 1
            return [scale]
        out = [scale]
        for kind, f in shared + [self.factor(rng) for _ in range(rng.randint(0, 2))]:
            power = rng.choice((1, 1, 2, 3))
            seen[kind] += 1
            seen[{1: "simple", 2: "squared", 3: "cubed"}[power]] += 1
            for _ in range(power):
                out = int_product([out, f])
        seen["negative_lead"] += out[-1] < 0
        seen["fraction"] += any(F(c).denominator != 1 for c in out)
        return out

    def test_gcd_and_yun_match_fraction_oracle(self):
        rng = random.Random(1967)
        seen = Counter()
        for _ in range(320):
            shared = [self.factor(rng) for _ in range(rng.randint(0, 2))]
            p, q = self.product(rng, shared, seen), self.product(rng, shared, seen)
            f = _int_vector(Polynomial(p))
            g = _primitive_gcd(f, _int_vector(Polynomial(q)))
            assert monic(g) == fraction_gcd(p, q)
            assert g == [] or g[-1] > 0 and gcd(*g) == 1
            if not f:
                continue
            sf, factors = fraction_yun(p)
            assert monic(_squarefree_ints(f)) == sf
            if len(f) == 1:
                assert factors == []
                continue
            bound = _cauchy_bound(f)
            for iv in isolate_roots_closed(Polynomial(p), -bound, bound):
                assert iv.parity == oracle_parity(factors, iv)
                seen[("exact " if iv.is_exact else "bracket ") + iv.parity] += 1
        kinds = ("zero", "constant", "negative_lead", "fraction", "squared", "cubed")
        parities = ("exact odd", "exact even", "bracket odd", "bracket even")
        for kind in kinds + self.KINDS + parities:
            assert seen[kind] >= 20, (kind, seen)

    def test_sturm_chain_matches_fraction_oracle(self):
        # each member a positive rational multiple of the classic Sturm
        # sequence's, so every sign count is the same
        rng = random.Random(1971)
        seen = Counter()
        for _ in range(320):
            shared = [self.factor(rng) for _ in range(rng.randint(0, 1))]
            p = self.product(rng, shared, seen)
            seen[f"degree {len(p) - 1}"] += 1
            chain = sturm_chain(Polynomial(p))
            reference = fraction_sturm_chain(p)
            assert len(chain) == len(reference)
            for member, ref in zip(chain, reference):
                assert len(member.coeffs) == len(ref)
                if not ref:
                    continue
                ratio = member.coeffs[-1] / ref[-1]
                assert ratio > 0
                assert list(member.coeffs) == [ratio * c for c in ref]
        kinds = ("constant", "degree 1", "negative_lead", "fraction", "squared", "cubed")
        for kind in kinds + self.KINDS:
            assert seen[kind] >= 10, (kind, seen)

    def test_gcd_with_zero(self):
        assert _primitive_gcd([], []) == [] == fraction_gcd([], [])
        assert _primitive_gcd([4, -2], []) == [-2, 1] == fraction_gcd([4, -2], [])
        assert _primitive_gcd([], _int_vector(poly(F(-3, 2)))) == [1] == fraction_gcd([], [F(-3, 2)])


class TestRefinement:
    def test_sqrt3_to_tolerance(self):
        p = poly(-6, 0, 2)  # 2x^2 - 6
        (root,) = isolate_real_roots(p, F(0), None)
        approx = refine_root(root, p, F(1, 10**6))
        target = bisect_root(lambda x: 2 * x * x - 6, F(1), F(2), F(1, 10**12))
        assert abs(approx - target) <= F(1, 10**6)
        tight = refine_root(root, p, F(1, 10**9))
        assert f"{float(tight):.6f}" == "1.732051"

    def test_exact_root_returned_unchanged(self):
        r = RootInterval(F(3, 2), F(3, 2), ODD)
        assert refine_root(r, poly(0, -6, 7, -2), F(1, 10)) == F(3, 2)

    def test_sqrt2_against_bisection_oracle(self):
        p = poly(-2, 0, 1)
        (root,) = isolate_real_roots(p, F(1), F(2))
        approx = refine_root(root, p, F(1, 10**4))
        target = bisect_root(lambda x: x * x - 2, F(1), F(2), F(1, 10**9))
        assert abs(approx - target) <= F(1, 10**4)

    def test_even_root_refinable(self):
        p = poly_product([0, 1], [-2, 1], [-2, 1])
        roots = isolate_real_roots(p, F(1), None)
        (double,) = [r for r in roots if r.parity == EVEN]
        if not double.is_exact:  # rational extraction returns it exactly
            assert refine_root(double, p, F(1, 100)) == pytest.approx(2)
        else:
            assert refine_root(double, p, F(1, 100)) == 2

    def test_odd_bracket_refined_without_gcd(self, monkeypatch):
        p = poly(-2, 0, 1)  # x^2 - 2
        (root,) = isolate_real_roots(p, F(1), F(2))
        calls = []

        def counting(original):
            def wrapper(a, b):
                calls.append((a, b))
                return original(a, b)

            return wrapper

        monkeypatch.setattr(polynomial, "_primitive_gcd", counting(_primitive_gcd))
        refine_root(root, p, F(1, 10**9))
        assert calls == []

    def test_refinement_matches_bisection_oracle(self):
        # p = c * q**k * r with q a quadratic with two real roots; at an
        # irrational root of q the oracle bisects q itself, which changes
        # sign like any square-free multiple of it across an isolating bracket
        rng = random.Random(404)
        odd = even = 0
        for _ in range(60):
            q = poly(-rng.choice((2, 3, 5, 6, 7, 11)), rng.randint(-2, 2), 1)
            k = rng.choice((1, 2, 3))
            rest = [[rng.choice((-3, 1, 2))], [rng.randint(-4, 4), 1]]
            p = poly_product(*rest, *[q.coeffs] * k)
            tol = F(1, rng.choice((10**3, 10**9, 2**40)))
            for iv in isolate_real_roots(p, F(-10), F(10)):
                if iv.is_exact or q(iv.lo) * q(iv.hi) >= 0:
                    continue  # exact, or a root of the linear factor
                expected = bisect_root(q, iv.lo, iv.hi, tol)
                assert refine_root(iv, p, tol) == expected
                assert iv.parity == (ODD if k % 2 else EVEN)
                odd += k % 2
                even += 1 - k % 2
        assert odd >= 20 and even >= 10

    def test_sign_change_across_odd_interval(self):
        # round-trip invariant: odd certificates always show a sign change
        p = poly_product([0, -6, 7, -2], [-5, 0, 1])
        for r in isolate_real_roots(p, F(-10), F(10)):
            if r.parity == ODD and not r.is_exact:
                assert p(r.lo) * p(r.hi) < 0


class TestIntegerBisection:
    """_narrow bisects primitive integer vectors, reading each midpoint's sign
    by homogenized Horner; every bracket it returns, and so every refine_root
    and _clip_bracket result, must equal bisection with a Fraction evaluation
    at every midpoint."""

    @staticmethod
    def random_poly(rng):
        out = [F(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 7)))]
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:  # a dyadic root, which a midpoint can hit
                f = [-rng.randint(-40, 40), 2 ** rng.randint(0, 3)]
            else:
                f = TestIntegerAlgebra.factor(rng)[1]
            for _ in range(rng.choice((1, 1, 2, 3))):
                out = int_product([out, f])
        return out

    def test_bisection_matches_fraction_oracle(self):
        rng = random.Random(1979)
        seen = Counter()
        for _ in range(320):
            coeffs = self.random_poly(rng)
            p = Polynomial(coeffs)
            sf = fraction_yun(coeffs)[0]
            for iv in isolate_real_roots(p, F(-10), F(10)):
                if iv.is_exact:
                    # an exact root never straddles a domain edge: it is
                    # kept as it is inside [xlo, xhi], either edge included,
                    # and dropped outside
                    x = iv.lo
                    for xlo, xhi, kept in (
                        (x - 1, x + 1, True), (x, x + 1, True), (x - 1, x, True),
                        (x + F(1, 3), x + 1, False), (x - 1, x - F(1, 3), False),
                    ):
                        got = _clip_bracket(_int_vector(p), iv, xlo, xhi)
                        assert got == (iv if kept else None)
                        seen["clip_exact_kept" if kept else "clip_exact_dropped"] += 1
                    continue
                lo, hi = iv.lo, iv.hi
                odd = p(lo) * p(hi) < 0
                s = coeffs if odd else sf
                seen["odd" if odd else "even"] += 1
                f = polynomial._bisection_poly(_int_vector(p), lo, hi)

                tol = F(1, rng.choice((10**3, 10**9, 2**40)))
                a, b = fraction_narrow(s, lo, hi, lambda a, b: b - a >= tol)
                assert refine_root(iv, p, tol) == (a + b) / 2

                # rational points to narrow away from, as isolation does
                points = [lo + (hi - lo) * F(rng.randint(1, 13), 14) for _ in range(2)]

                def away(a, b):
                    return any(a <= e <= b for e in points)

                assert polynomial._narrow(f, lo, hi, away) == fraction_narrow(s, lo, hi, away)

                xlo = lo + (hi - lo) * F(rng.randint(-3, 9), 7)
                xhi = xlo + (hi - lo) * F(rng.randint(0, 9), 7)

                def straddles(a, b):
                    return not (b < xlo or a > xhi or (xlo <= a and b <= xhi))

                a, b = lo, hi
                if straddles(a, b):
                    a, b = fraction_narrow(s, a, b, straddles)
                    seen["clip_narrowed"] += 1
                inside = not (b < xlo or a > xhi)
                seen["clip_kept" if inside else "clip_dropped"] += 1
                expected = RootInterval(a, b, iv.parity) if inside else None
                assert _clip_bracket(_int_vector(p), iv, xlo, xhi) == expected

            # unit grid brackets, some of them holding a dyadic root that a
            # midpoint hits exactly
            f = polynomial._int_vector(p)
            for k in range(-10, 10):
                lo, hi = F(k), F(k + 1)
                if p(lo) * p(hi) >= 0:
                    continue
                got = polynomial._narrow(f, lo, hi, lambda a, b: b - a >= F(1, 2**20))
                assert got == fraction_narrow(coeffs, lo, hi, lambda a, b: b - a >= F(1, 2**20))
                seen["midpoint_root" if got[0] == got[1] else "grid"] += 1
        minimum = {"odd": 150, "even": 50, "clip_narrowed": 150, "clip_kept": 60,
                   "clip_dropped": 130, "clip_exact_kept": 400, "clip_exact_dropped": 260,
                   "midpoint_root": 30, "grid": 130}
        for kind, count in minimum.items():
            assert seen[kind] >= count, (kind, seen)

    # (coefficients, bracket) with one root inside; `refine_root` counts its
    # halvings in integers, so each case pins one edge of that count
    REFINE_CASES = {
        "negative": ([-2, 0, 1], F(-2), F(-1)),  # -sqrt(2)
        "across_zero": ([-3, 0, 0, 1], F(-2), F(2)),  # 3**(1/3)
        "inside_unit": ([-1, 0, 10], F(1, 4), F(1, 2)),  # 1/sqrt(10)
        "inside_unit_coprime_ends": ([-1, 0, 7], F(1, 3), F(3, 7)),  # 1/sqrt(7)
        "midpoint_root": ([-3, 4, -3, 4], F(0), F(1)),  # (4x - 3)(x^2 + 1)
        "negative_midpoint_root": ([5, 8, 5, 8], F(-1), F(0)),  # (8x + 5)(x^2 + 1)
        "even_root": ([9, 0, -6, 0, 1], F(1), F(2)),  # (x^2 - 3)^2
        "even_root_negative": ([25, 0, -10, 0, 1], F(-3), F(-2)),  # (x^2 - 5)^2
        "width_equals_third": ([-2, 0, 1], F(4, 3), F(5, 3)),
        "width_equals_1e-9": ([-2, 0, 1], F(1414213562, 10**9), F(1414213563, 10**9)),
        "narrower_than_every_tol": (
            [-2, 0, 1], F(14142135623730, 10**13), F(14142135623731, 10**13)
        ),
    }

    @pytest.mark.parametrize(
        "tol", [F(1, 3), F(1, 10**9), F(1, 10**12)], ids=["third", "1e-9", "1e-12"]
    )
    def test_refine_matches_fraction_oracle_on_edge_brackets(self, tol):
        seen = Counter()
        for kind, (coeffs, lo, hi) in self.REFINE_CASES.items():
            p = Polynomial(coeffs)
            odd = p(lo) * p(hi) < 0
            s = coeffs if odd else fraction_yun(coeffs)[0]
            a, b = fraction_narrow(s, lo, hi, lambda a, b: b - a >= tol)
            iv = RootInterval(lo, hi, ODD if odd else EVEN)
            assert refine_root(iv, p, tol) == (a + b) / 2, kind
            seen["zero_halvings" if (a, b) == (lo, hi) else "halved"] += 1
            seen["midpoint_root" if a == b else "bracket"] += 1
            seen["odd" if odd else "even"] += 1
        assert seen["zero_halvings"] >= 1 and seen["midpoint_root"] >= 1, seen
        assert seen["even"] == 2 and seen["halved"] >= 7, seen

    def test_narrow_evaluates_nothing_when_no_halving_is_needed(self, monkeypatch):
        # the predicate is read before the sign at the left end, so a
        # bracket that needs no halving costs no evaluation
        calls = []
        original = polynomial._scaled_value

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(polynomial, "_scaled_value", counting)
        f = [-2, 0, 1]  # x^2 - 2
        for lo, hi in ((F(1), F(2)), (F(-2), F(-1)), (F(7, 5), F(3, 2))):
            assert polynomial._narrow(f, lo, hi, lambda a, b: a <= -3) == (lo, hi)
            assert polynomial._narrow(f, lo, hi, lambda a, b: b - a > 1) == (lo, hi)
        assert calls == []
        assert polynomial._narrow(f, F(1), F(2), lambda a, b: b - a > F(1, 4)) == (
            F(5, 4), F(3, 2)
        )
        assert len(calls) == 1 + 2  # the left end, then two midpoints

    def test_odd_bracket_refined_without_fraction_evaluation(self, monkeypatch):
        p = poly_product([-2, 0, 1], [-3, 1])  # (x^2 - 2)(x - 3)
        (root,) = isolate_real_roots(p, F(1), F(2))
        calls = []
        original = Polynomial.__call__

        def counting(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(Polynomial, "__call__", counting)
        assert refine_root(root, p, F(1, 10**9)) == bisect_root(
            lambda x: x * x - 2, root.lo, root.hi, F(1, 10**9)
        )
        assert calls == []


class TestVanishingOrder:
    def test_order_and_sign_at_roots_of_each_multiplicity(self):
        # p = scale * (den x - num)^m * (x - 5/2) * (x^2 + 1): the first
        # derivative not vanishing at num/den is the m-th, whose sign the
        # Fraction oracle reads
        signs = set()
        for m in range(1, 7):
            for root in (F(0), F(2), F(-3, 2), F(7, 3)):
                for scale in (1, -2):
                    factors = [[scale], [-5, 2], [1, 0, 1]]
                    factors += [[-root.numerator, root.denominator]] * m
                    f = int_product(factors)
                    k, sign = _vanishing_order(f, root)
                    derivative = f
                    for _ in range(m):
                        assert _poly_eval(derivative, root) == 0
                        derivative = _fraction_derivative(derivative)
                    assert k == m
                    assert (sign > 0) == (_poly_eval(derivative, root) > 0) != (sign < 0)
                    signs.add((m, sign > 0))
        assert len(signs) == 12
        # off the roots, the order is 0 and the sign is f's own
        assert _vanishing_order([-2, 0, 1], F(3, 2)) == (0, 1)
        assert _vanishing_order([-2, 0, 1], F(1)) == (0, -1)


class TestSympyOracle:
    """Every certificate of `isolate_real_roots` and `isolate_roots_closed`
    against sympy, an independent implementation: the exact roots and their
    multiplicities from `Poly.sqf_list` and `ground_roots`, and each
    irrational root from `intervals` of its square-free factor with the
    rational roots divided out."""

    @staticmethod
    def product(rng, seen):
        """A seeded product of linear factors (zero, negative and fractional
        roots), x^2 - m and a root-free quadratic, each to a power 1-5, times
        a scale of either sign, often fractional."""
        scale = F(rng.choice((1, -1, 3, -2)), rng.choice((1, 2, 5)))
        out, degree = [scale], 0
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("zero", "rational", "rational", "irrational", "irrational", "complex"))
            if kind == "zero":
                f = [0, 1]
            elif kind == "rational":
                f = [F(rng.randint(-7, 7), rng.choice((1, 2, 3))), 1]
            elif kind == "irrational":
                f = [-rng.choice((2, 3, 5, 7)), 0, rng.choice((1, 2, 3))]
            else:
                f = [rng.randint(1, 4), rng.randint(-1, 1), 2]
            power = rng.randint(1, 5)
            if degree + power * (len(f) - 1) > 16:
                continue
            degree += power * (len(f) - 1)
            seen[kind] += 1
            seen[f"power {power}"] += 1
            seen["negative_root"] += kind == "rational" and f[0] > 0
            for _ in range(power):
                out = int_product([out, f])
        seen["negative_lead"] += out[-1] < 0
        seen["fraction"] += any(F(c).denominator != 1 for c in out)
        return out

    @staticmethod
    def sympy_roots(sympy, coeffs):
        """({exact root: multiplicity}, [(a, b, k, g)]) from sympy: each
        irrational root lies strictly inside (a, b) and is the only root
        there of g, a square-free factor with no rational roots, of
        multiplicity k."""
        x = sympy.Symbol("x")
        poly = sympy.Poly(
            [sympy.Rational(F(c).numerator, F(c).denominator) for c in reversed(coeffs)],
            x,
            domain=sympy.QQ,
        )
        exact, irrational = {}, []
        for g, k in poly.sqf_list()[1]:
            for r in g.ground_roots():
                exact[F(int(r.p), int(r.q))] = k
                g = g.exquo(sympy.Poly(x - r, x, domain=sympy.QQ))
            for (a, b), _ in g.intervals():
                irrational.append((F(int(a.p), int(a.q)), F(int(b.p), int(b.q)), k, g))
        return exact, irrational

    @staticmethod
    def locate(g, a, b, brackets):
        """The index of the bracket (c, d) holding the root of g in (a, b),
        or None: (a, b) is bisected on g until it lies inside one bracket or
        outside them all; every end is rational, so never the root."""
        for _ in range(400):
            for j, (c, d) in enumerate(brackets):
                if c < a and b < d:
                    return j
            if all(b <= c or d <= a for c, d in brackets):
                return None
            m = (a + b) / 2
            if (g.eval(m) > 0) == (g.eval(a) > 0):
                a = m
            else:
                b = m
        raise AssertionError("bisection did not settle")

    def test_certificates_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2019)
        seen = Counter()
        for trial in range(240):
            coeffs = self.product(rng, seen)
            p = Polynomial(coeffs)
            if p.degree == 0:
                continue
            exact, irrational = self.sympy_roots(sympy, coeffs)
            bound = _cauchy_bound(p.coeffs)
            rationals = sorted(exact)
            lo = rng.choice([-bound, F(rng.randint(-8, 8), 2)] + rationals)
            hi = rng.choice(
                [lo + bound, lo + F(rng.randint(1, 8), 2)] + [r for r in rationals if r > lo]
            )
            closed = trial % 2 == 0
            if closed:
                found = isolate_roots_closed(p, lo, hi)
            else:
                hi = None if trial % 6 == 1 else hi
                found = isolate_real_roots(p, lo, hi)
            top = bound if hi is None else hi

            def in_domain(r):
                return lo <= r and (r <= top if closed or hi is None else r < top)

            got_exact = [(iv.lo, iv.parity) for iv in found if iv.is_exact]
            want_exact = [(r, ODD if exact[r] % 2 else EVEN) for r in rationals if in_domain(r)]
            assert got_exact == want_exact
            brackets = [iv for iv in found if not iv.is_exact]
            ends = [(iv.lo, iv.hi) for iv in brackets]
            hits = Counter()
            for a, b, k, g in irrational:
                j = self.locate(g, a, b, ends)
                assert (j is None) == (self.locate(g, a, b, [(lo, top)]) is None)
                if j is not None:
                    hits[j] += 1
                    assert brackets[j].parity == (ODD if k % 2 else EVEN)
            assert hits == Counter(range(len(brackets)))  # one root in each bracket
            for iv in found:
                seen[("exact " if iv.is_exact else "bracket ") + iv.parity] += 1
            seen["hi root"] += any(iv.lo == hi for iv in found)
            seen["lo root"] += any(iv.lo == lo for iv in found)
        minimum = {"zero": 40, "negative_root": 40, "negative_lead": 40, "fraction": 60,
                   "power 5": 20, "exact odd": 60, "exact even": 60, "bracket odd": 30,
                   "bracket even": 20, "hi root": 10, "lo root": 10}
        for kind, count in minimum.items():
            assert seen[kind] >= count, (kind, seen)


class TestDomainVariations:
    """Descartes' rule of signs on an interval, against an expansion of the
    domain-mapped polynomial over Fractions and root counts by Yun and
    Sturm."""

    def test_taylor_shift_moves_the_argument(self):
        rng = random.Random(12)
        for _ in range(50):
            v = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
            a = rng.randint(-5, 5)
            shifted = _taylor_shift(v, a)
            for y in range(-3, 4):
                assert _poly_eval(shifted, F(y)) == _poly_eval(v, F(y + a))

    def test_bound_on_planted_roots(self):
        # roots planted inside, on and outside random domains, some repeated,
        # times a random cofactor; every domain end has a denominator
        rng = random.Random(27)
        strict = 0
        for _ in range(300):
            lo = F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
            hi = lo + F(rng.randint(1, 8), rng.choice((1, 2, 3, 4)))
            factors = [[rng.randint(-4, 4) or 1 for _ in range(rng.randint(1, 3))]]
            for _ in range(rng.randint(0, 3)):
                r = rng.choice((lo, hi, (lo + hi) / 2, lo + (hi - lo) / 3, hi + 1))
                factors += [[-r.numerator, r.denominator]] * rng.randint(1, 3)
            f = int_product(factors)
            while len(f) > 1 and f[-1] == 0:
                f.pop()
            if len(f) < 2:
                continue
            count = _domain_variations(f, lo, hi)
            assert count == descartes_domain_variations(f, lo, hi)
            roots = roots_with_multiplicity(f, lo, hi)
            assert roots <= count and (count - roots) % 2 == 0
            strict += roots < count
        assert strict > 0
