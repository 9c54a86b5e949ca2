"""Single-variable market cost function and security-allocation arithmetic.

The concrete instance is a two-outcome logarithmic market scoring rule with
one leg frozen at ``fixed_leg`` securities:

    cost(q) = b * ln(exp(fixed_leg / b) + exp(q / b))

It is strictly increasing and strictly convex with slope in (0, 1), which
yields the two properties the mechanisms rely on: a contribution buys
strictly more than its face value in securities (d(securities)/d(amount) > 1)
and a fixed contribution buys strictly fewer securities as issuance grows.
The inverse is closed form, so no root finding is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CostParams


@dataclass(frozen=True)
class CostFunction:
    liquidity: float = 1.0
    fixed_leg: float = 0.0

    def __post_init__(self) -> None:
        if self.liquidity <= 0:
            raise ValueError(f"liquidity must be positive, got {self.liquidity}")
        # cost of the empty market, from which issuance is measured
        object.__setattr__(self, "opening_cost", self.cost(0.0))

    @classmethod
    def from_params(cls, params: CostParams) -> "CostFunction":
        return cls(liquidity=params.liquidity, fixed_leg=params.fixed_leg)

    def cost(self, quantity: float) -> float:
        """Total cost of the market state at ``quantity`` issued securities."""
        if quantity < 0:
            raise ValueError(f"quantity must be nonnegative, got {quantity}")
        b = self.liquidity
        a, c = self.fixed_leg / b, quantity / b
        m = max(a, c)  # max-shifted form; naive exp overflows near q/b ~ 710
        return b * (m + math.log(math.exp(a - m) + math.exp(c - m)))

    def inverse_cost(self, charge: float) -> float:
        """Quantity whose cost equals ``charge``; rejects charges below range.

        The cost never falls below ``b * ln(exp(fixed_leg/b))`` = fixed_leg,
        so any charge at or under that limit has no preimage and signals an
        infeasible contribution amount.
        """
        b = self.liquidity
        if charge <= self.fixed_leg:
            raise ValueError(
                f"charge {charge} is at or below the cost floor {self.fixed_leg}"
            )
        # q = b*ln(e^(c/b) - e^(a/b)) rearranged through log1p for stability
        return charge + b * math.log1p(-math.exp((self.fixed_leg - charge) / b))

    def issued_at(self, raised: float) -> float:
        """Securities outstanding once ``raised`` money has been paid in.

        Allocations compose (buying x then y issues what buying x + y does),
        so a market's issuance is a function of the money it has raised.
        """
        if raised <= 0.0:
            return 0.0
        return self.inverse_cost(raised + self.opening_cost)

    def securities_for(self, amount: float, issued: float) -> float:
        """Securities bought by paying ``amount`` when ``issued`` are outstanding."""
        if amount < 0:
            raise ValueError(f"amount must be nonnegative, got {amount}")
        if issued < 0:
            raise ValueError(f"issued must be nonnegative, got {issued}")
        if amount == 0:
            return 0.0
        # the round trip can dip an ulp below zero for tiny amounts
        return max(0.0, self.inverse_cost(amount + self.cost(issued)) - issued)

    def contribution_for(self, securities: float, issued: float) -> float:
        """Payment required to buy ``securities`` when ``issued`` are outstanding."""
        if securities < 0:
            raise ValueError(f"securities must be nonnegative, got {securities}")
        if issued < 0:
            raise ValueError(f"issued must be nonnegative, got {issued}")
        if securities == 0:
            return 0.0
        return max(0.0, self.cost(issued + securities) - self.cost(issued))
