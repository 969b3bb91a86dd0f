"""Dated-labor production model: techniques, exact cost accounting, and
factor prices.

A technique is a profile of labor inputs dated by how many periods before
output completion they are applied. Writing x = 1 + i, the unit cost under
interest rate i compounds each dated input: cost = sum_t w * x**t * L_t.
The same cost re-expressed in factor prices (post-factum wage plus rental
prices of part-finished goods) is the structural form; both forms agree
identically, which several tests pin down with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, HorizonMismatchError, ModelFormatError
from .polynomial import Polynomial


def _check_interest(interest: Fraction) -> Fraction:
    interest = Fraction(interest)
    if interest <= -1:
        raise DomainError(f"interest rate {interest} is at or below -100%")
    return interest


@dataclass(frozen=True)
class Technique:
    """A named dated-labor profile.

    labor[t-1] is the labor applied t periods before completion (1-based
    lags; there is no lag-0 input, so cost polynomials have zero constant
    term). Profiles must be nonnegative and not identically zero.
    support holds the lags with positive labor, in order; it is set once
    here and is no field, so repr and == read name and labor alone.
    """

    name: str
    labor: tuple[Fraction, ...]

    def __init__(self, name: str, labor: Iterable):
        # Fraction(Fraction) copies through the slow numbers-ABC path, and a
        # Fraction's sign is its numerator's
        values = tuple(v if type(v) is Fraction else Fraction(v) for v in labor)
        if not name:
            raise ModelFormatError("technique name must be nonempty")
        if not values:
            raise ModelFormatError(f"technique {name!r} has an empty labor profile")
        if any(v.numerator < 0 for v in values):
            raise ModelFormatError(f"technique {name!r} has negative labor input")
        if not any(values):
            raise ModelFormatError(f"technique {name!r} uses no labor at all")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labor", values)
        object.__setattr__(
            self, "support", tuple(t for t, v in enumerate(values, start=1) if v.numerator > 0)
        )

    @property
    def horizon(self) -> int:
        return len(self.labor)

    def lag(self, t: int) -> Fraction:
        """Labor applied t periods before completion (0 beyond the profile)."""
        if t < 1:
            raise ValueError("lags are 1-based")
        return self.labor[t - 1] if t <= self.horizon else Fraction(0)

    def padded(self, horizon: int) -> "Technique":
        if horizon < self.horizon:
            raise ValueError("cannot pad to a shorter horizon")
        if horizon == self.horizon:
            return self
        return Technique(self.name, self.labor + (Fraction(0),) * (horizon - self.horizon))

    def cost_polynomial(self, wage: Fraction = Fraction(1)) -> Polynomial:
        """Unit cost as a polynomial in x = 1 + i; coefficient of x**t is w*L_t."""
        wage = Fraction(wage)
        return Polynomial([Fraction(0)] + [wage * v for v in self.labor])

    def cost_at(self, wage: Fraction, interest: Fraction) -> Fraction:
        interest = _check_interest(interest)
        return self.cost_polynomial(wage)(1 + interest)

    def structural_cost(self, prices: "FactorPricePoint") -> Fraction:
        """Cost priced out input by input: w_L*a_L + sum_t R_t*a_Kt.

        a_L is the lag-1 labor coefficient and a_Kt the labor embodied in the
        age-t part-finished good (labor applied t+1 periods back).
        """
        if prices.horizon != self.horizon:
            raise HorizonMismatchError(
                f"factor prices cover horizon {prices.horizon}, "
                f"technique {self.name!r} has horizon {self.horizon}"
            )
        total = prices.post_factum_wage * self.labor[0]
        for age, rental in enumerate(prices.rentals, start=1):
            total += rental * self.labor[age]
        return total

    def wage_interest_curve(
        self, output_price: Fraction, interest_grid: Sequence[Fraction]
    ) -> list[tuple[Fraction, Fraction]]:
        """Real wage supporting zero profit at each interest rate.

        Solves cost(w, i) = output_price for w; strictly decreasing in i.
        """
        price = Fraction(output_price)
        return [(Fraction(i), price / self.cost_at(Fraction(1), i)) for i in interest_grid]


@dataclass(frozen=True)
class FactorPricePoint:
    """The factor-price vector at one interest rate.

    post_factum_wage is w(1+i), the wage compounded to period end.
    asset_prices[t-1] = w(1+i)**t prices the age-t part-finished good and
    rentals[t-1] = asset price times (1+i) is its per-period user cost, for
    ages t = 1 .. horizon-1.
    """

    interest: Fraction
    wage: Fraction
    post_factum_wage: Fraction
    asset_prices: tuple[Fraction, ...]
    rentals: tuple[Fraction, ...]

    @property
    def horizon(self) -> int:
        return len(self.rentals) + 1

    @classmethod
    def at(cls, horizon: int, wage: Fraction, interest: Fraction) -> "FactorPricePoint":
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        interest = _check_interest(interest)
        wage = Fraction(wage)
        x = 1 + interest
        assets = tuple(wage * x**t for t in range(1, horizon))
        rentals = tuple(a * x for a in assets)
        return cls(interest, wage, wage * x, assets, rentals)

    def price_of_lag(self, t: int) -> Fraction:
        """Price of one unit of labor dated t periods back: w_L for t=1,
        the age-(t-1) rental for t >= 2."""
        if t < 1 or t > self.horizon:
            raise ValueError(f"lag {t} outside horizon {self.horizon}")
        return self.post_factum_wage if t == 1 else self.rentals[t - 2]


class TechnologySet:
    """A finite menu of techniques padded to a common horizon.

    Wage defaults to 1 (paid at period start) and stays explicit so
    homogeneity properties can be exercised. The wage must be positive: at a
    zero wage every technique costs nothing and none is ever cheapest.
    """

    def __init__(
        self,
        techniques: Iterable[Technique],
        wage: Fraction = Fraction(1),
    ):
        techs = list(techniques)
        if not techs:
            raise ModelFormatError("technology set needs at least one technique")
        names = [t.name for t in techs]
        if len(set(names)) != len(names):
            raise ModelFormatError("technique names must be unique")
        horizon = max(t.horizon for t in techs)
        self.techniques: tuple[Technique, ...] = tuple(t.padded(horizon) for t in techs)
        self.wage = wage if type(wage) is Fraction else Fraction(wage)
        if self.wage.numerator <= 0:
            raise ModelFormatError(f"wage must be positive, got {self.wage}")
        self.horizon = horizon

    def __len__(self) -> int:
        return len(self.techniques)

    def __iter__(self):
        return iter(self.techniques)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.techniques)

    def distinct_profiles(self) -> tuple[list[Technique], dict[str, list[str]]]:
        """The first technique of each distinct labor profile, in menu order,
        and for each of them the names of the later techniques sharing its
        profile. Techniques with one profile cost the same at every price, so
        the dominance map and the complementarity search count them once."""
        reps: list[Technique] = []
        aliases: dict[str, list[str]] = {}
        for tech in self.techniques:
            for rep in reps:
                if rep.labor == tech.labor:
                    aliases[rep.name].append(tech.name)
                    break
            else:
                reps.append(tech)
                aliases[tech.name] = []
        return reps, aliases

    def get(self, name: str) -> Technique:
        for t in self.techniques:
            if t.name == name:
                return t
        raise KeyError(name)

    def factor_prices(self, interest: Fraction) -> FactorPricePoint:
        return FactorPricePoint.at(self.horizon, self.wage, interest)

    def positive_lags(self) -> tuple[int, ...]:
        """Lags used with positive labor by at least one technique."""
        return tuple(sorted({t for tech in self.techniques for t in tech.support}))


def samuelson_example() -> TechnologySet:
    """Samuelson's 1966 two-technique champagne economy.

    Technique a: 7 units of labor two periods before completion.
    Technique b: 6 units one period before plus 2 units three periods before.
    The classic reswitching pair, and the running fixture for most tests.
    """
    return TechnologySet(
        [Technique("a", (0, 7, 0)), Technique("b", (6, 0, 2))]
    )
