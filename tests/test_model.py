import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from reswitch import (
    DomainError,
    FactorPricePoint,
    HorizonMismatchError,
    ModelFormatError,
    Polynomial,
    Technique,
    TechnologySet,
    samuelson_example,
)

A = Technique("a", (0, 7, 0))
B = Technique("b", (6, 0, 2))


class TestTechnique:
    def test_cost_polynomials(self):
        assert A.cost_polynomial() == Polynomial([0, 0, 7])
        assert B.cost_polynomial() == Polynomial([0, 6, 0, 2])
        assert Technique("t", (1,)).cost_polynomial() == Polynomial([0, 1])

    def test_cost_at_table_rows(self):
        assert A.cost_at(F(1), F(3, 4)) == F(343, 16)
        assert B.cost_at(F(1), F(1, 4)) == F(365, 32)
        assert A.cost_at(F(0), F(5, 7)) == 0

    def test_cost_at_rejects_deep_negative_interest(self):
        with pytest.raises(DomainError):
            A.cost_at(F(1), F(-1))
        with pytest.raises(DomainError):
            A.cost_at(F(1), F(-3, 2))

    def test_validation(self):
        with pytest.raises(ModelFormatError):
            Technique("bad", (0, 0))
        with pytest.raises(ModelFormatError):
            Technique("bad", (-1, 2))
        with pytest.raises(ModelFormatError):
            Technique("bad", ())
        with pytest.raises(ModelFormatError):
            Technique("", (1,))

    def test_support_and_padding(self):
        assert B.support == (1, 3)
        padded = A.padded(5)
        assert padded.labor == (0, 7, 0, 0, 0)
        assert padded.support == (2,)


class TestFactorPrices:
    def test_doubling_interest(self):
        fp = FactorPricePoint.at(3, F(1), F(1))
        assert fp.post_factum_wage == 2
        assert fp.rentals == (4, 8)
        assert fp.asset_prices == (2, 4)

    def test_zero_interest_collapses(self):
        fp = FactorPricePoint.at(3, F(1), F(0))
        assert fp.post_factum_wage == 1
        assert fp.rentals == (1, 1)

    def test_half_interest(self):
        fp = FactorPricePoint.at(3, F(1), F(1, 2))
        assert fp.post_factum_wage == F(3, 2)
        assert fp.rentals == (F(9, 4), F(27, 8))

    def test_rental_is_asset_price_times_growth(self):
        fp = FactorPricePoint.at(5, F(2), F(1, 3))
        for asset, rental in zip(fp.asset_prices, fp.rentals):
            assert rental == asset * F(4, 3)

    def test_price_of_lag(self):
        fp = FactorPricePoint.at(3, F(1), F(1))
        assert fp.price_of_lag(1) == fp.post_factum_wage
        assert fp.price_of_lag(2) == fp.rentals[0]
        assert fp.price_of_lag(3) == fp.rentals[1]
        with pytest.raises(ValueError):
            fp.price_of_lag(4)


class TestStructuralCost:
    def test_table_row_75_percent(self):
        fp = FactorPricePoint.at(3, F(1), F(3, 4))
        assert B.structural_cost(fp) == F(21, 2) + F(343, 32)
        assert B.structural_cost(fp) == F(679, 32)  # 21.21875

    def test_table_row_100_percent(self):
        fp = FactorPricePoint.at(3, F(1), F(1))
        assert A.structural_cost(fp) == 28

    def test_table_row_zero(self):
        fp = FactorPricePoint.at(3, F(1), F(0))
        assert A.structural_cost(fp) == 7

    def test_horizon_mismatch(self):
        fp = FactorPricePoint.at(4, F(1), F(1))
        with pytest.raises(HorizonMismatchError):
            A.structural_cost(fp)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=9, max_denominator=4),
            min_size=1,
            max_size=6,
        ),
        st.fractions(min_value=F(1, 8), max_value=7, max_denominator=16),
        st.fractions(min_value=F(1, 64), max_value=3, max_denominator=64),
    )
    @settings(max_examples=200)
    def test_structural_equals_reduced(self, labor, wage, interest):
        if all(v == 0 for v in labor):
            labor = labor + [F(1)]
        tech = Technique("t", labor)
        fp = FactorPricePoint.at(tech.horizon, wage, interest)
        assert tech.structural_cost(fp) == tech.cost_at(wage, interest)

    def test_homogeneous_in_wage(self):
        rng = random.Random(9)
        for _ in range(50):
            lam = F(rng.randint(1, 40), rng.randint(1, 8))
            i = F(rng.randint(0, 200), 100)
            assert B.cost_at(lam, i) == lam * B.cost_at(F(1), i)

    def test_structural_cost_linear_in_inputs(self):
        fp = FactorPricePoint.at(3, F(1), F(2, 5))
        merged = Technique("m", tuple(x + y for x, y in zip(A.labor, B.labor)))
        assert merged.structural_cost(fp) == A.structural_cost(fp) + B.structural_cost(fp)
        doubled = Technique("d", tuple(2 * x for x in B.labor))
        assert doubled.structural_cost(fp) == 2 * B.structural_cost(fp)


class TestWageInterestCurve:
    def test_forced_values(self):
        assert A.wage_interest_curve(F(1), [F(0)]) == [(0, F(1, 7))]
        assert B.wage_interest_curve(F(1), [F(0)]) == [(0, F(1, 8))]
        assert A.wage_interest_curve(F(1), [F(1)]) == [(1, F(1, 28))]

    def test_strictly_decreasing(self):
        grid = [F(k, 10) for k in range(0, 21)]
        for tech in (A, B):
            values = [w for _, w in tech.wage_interest_curve(F(1), grid)]
            assert all(x > y for x, y in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            A.wage_interest_curve(F(1), [F(-2)])


class TestTechnologySet:
    def test_padding_and_names(self):
        ts = samuelson_example()
        assert ts.horizon == 3
        assert ts.names == ("a", "b")
        assert ts.get("b").labor == (6, 0, 2)
        assert ts.positive_lags() == (1, 2, 3)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelFormatError):
            TechnologySet([A, Technique("a", (1,))])

    def test_empty_rejected(self):
        with pytest.raises(ModelFormatError):
            TechnologySet([])

    @pytest.mark.parametrize("wage", [F(0), F(-1), F(-1, 3)])
    def test_non_positive_wage_rejected(self, wage):
        with pytest.raises(ModelFormatError, match="wage"):
            TechnologySet([A, B], wage=wage)

    def test_mixed_horizons_pad(self):
        ts = TechnologySet([Technique("s", (1,)), B])
        assert ts.get("s").labor == (1, 0, 0)
