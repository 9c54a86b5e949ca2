"""Single-variable market cost function and security-allocation arithmetic.

The concrete instance is a two-outcome logarithmic market scoring rule with
one leg frozen at ``fixed_leg`` securities:

    cost(q) = b * ln(exp(fixed_leg / b) + exp(q / b))

It is strictly increasing and strictly convex with slope in (0, 1), which
yields the two properties the mechanisms rely on: a contribution buys
strictly more than its face value in securities (d(securities)/d(amount) > 1)
and a fixed contribution buys strictly fewer securities as issuance grows.
The inverse is closed form, so no root finding is involved.

Allocations are priced in closed form, with f = ``fixed_leg``:

    securities_for(x, q)   = x + b * log1p(exp((f - q)/b) * -expm1(-x/b))
    contribution_for(s, q) = b * log1p(u * expm1(s/b)),  u = 1/(1 + exp((f - q)/b))

Both add or multiply positive terms only, so they keep full precision where
the round trip through ``cost`` (``inverse_cost(x + cost(q)) - q``) subtracts
two nearly equal numbers and loses the digits of small amounts at high
issuance. (The payment's other closed form, s + b * log1p((1 - u) *
expm1(-s/b)), cancels the same way where the cost is flat, f >> q.) Where an
exponential would overflow, or ``u`` underflow, the same formulas are
evaluated in log space, with log(x) - log(b) for log(-expm1(-x/b)) where
x/b is subnormal or rounds to 0, so a tiny amount still buys in proportion
to itself; ``securities_for`` takes that branch for such an x at any q.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# exp(700) is within range; past it the formulas switch to log space
EXP_LIMIT = 700.0
# the least normal float: a share -expm1(-x/b) below it has lost its digits
_NORMAL_MIN = sys.float_info.min


def _softplus(a: float) -> float:
    """log(1 + exp(a)) without overflow."""
    if a > 0.0:
        return a + math.log1p(math.exp(-a))
    return math.log1p(math.exp(a))


def _log_share(w: float, amount: float, b: float) -> float:
    """log(w) for w = -expm1(-amount / b) and a positive amount. Where
    amount / b falls below the normal range, w is a subnormal with few
    digits, or 0 with none, and log(amount) - log(b), which log(w) equals
    to first order there, stands in for it."""
    return math.log(w) if w >= _NORMAL_MIN else math.log(amount) - math.log(b)


@dataclass(frozen=True)
class CostFunction:
    """A scenario's ``cost_params`` record (securities family only)."""

    liquidity: float = 1.0
    fixed_leg: float = 0.0

    def __post_init__(self) -> None:
        if self.liquidity <= 0:
            raise ValueError(f"liquidity must be positive, got {self.liquidity}")

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
        so a market's issuance is a function of the money it has raised:
        what that money buys in the empty market.
        """
        return self.securities_for(raised, 0.0)

    def price(self, issued: float) -> float:
        """Marginal price at ``issued``: the slope of the convex
        ``contribution_for`` at zero, so no purchase pays less per security."""
        z = (issued - self.fixed_leg) / self.liquidity
        e = math.exp(-abs(z))
        return 1.0 / (1.0 + e) if z >= 0.0 else e / (1.0 + e)

    def securities_for(self, amount: float, issued: float) -> float:
        """Securities bought by paying ``amount`` when ``issued`` are outstanding."""
        if amount < 0:
            raise ValueError(f"amount must be nonnegative, got {amount}")
        if issued < 0:
            raise ValueError(f"issued must be nonnegative, got {issued}")
        if amount == 0:
            return 0.0
        b = self.liquidity
        t = (self.fixed_leg - issued) / b
        w = -math.expm1(-amount / b)
        if t < EXP_LIMIT and w >= _NORMAL_MIN:
            return amount + b * math.log1p(math.exp(t) * w)
        return amount + b * _softplus(t + _log_share(w, amount, b))

    def contribution_for(self, securities: float, issued: float) -> float:
        """Payment required to buy ``securities`` when ``issued`` are outstanding."""
        if securities < 0:
            raise ValueError(f"securities must be nonnegative, got {securities}")
        if issued < 0:
            raise ValueError(f"issued must be nonnegative, got {issued}")
        if securities == 0:
            return 0.0
        b = self.liquidity
        z = (issued - self.fixed_leg) / b
        y = securities / b
        if z > -EXP_LIMIT and y < EXP_LIMIT:
            # u = 1/(1 + exp(-z)), the marginal price at ``issued`` (``price``, inlined)
            e = math.exp(-abs(z))
            u = 1.0 / (1.0 + e) if z >= 0.0 else e / (1.0 + e)
            return b * math.log1p(u * math.expm1(y))
        # log(u) + log(expm1(y)), u underflowing or expm1(y) overflowing
        return b * _softplus(y + _log_share(-math.expm1(-y), securities, b) - _softplus(-z))
