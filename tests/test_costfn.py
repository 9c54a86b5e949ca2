import math
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings, strategies as st

from provpoint.costfn import EXP_LIMIT, CostFunction

# Frozen reference values, computed independently at 40-digit precision by
# bisecting cost() rather than using the closed-form inverse.
LN2 = 0.6931471805599453
COST_AT_10 = 10.000045398899218
INVERSE_AT_1 = 0.5413248546129181        # ln(e - 1)
SECURITIES_1_AT_0 = 1.4898801256447500   # ln(2e - 1)
CONTRIBUTION_1_AT_0 = 0.6201145069582775  # ln((1 + e) / 2)


def bisect_inverse(cf: CostFunction, charge: float) -> float:
    """Independent inverse: bisection on the forward cost."""
    lo, hi = 0.0, 1.0
    while cf.cost(hi) < charge:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cf.cost(mid) < charge:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cost_reference_values():
    cf = CostFunction(liquidity=1.0, fixed_leg=0.0)
    assert cf.cost(0.0) == pytest.approx(LN2, rel=1e-12)
    assert cf.cost(10.0) == pytest.approx(COST_AT_10, rel=1e-12)


def test_cost_strictly_increasing():
    cf = CostFunction()
    assert cf.cost(1.0) < cf.cost(2.0)


def test_inverse_reference_values():
    cf = CostFunction()
    assert cf.inverse_cost(LN2) == pytest.approx(0.0, abs=1e-12)
    assert cf.inverse_cost(1.0) == pytest.approx(INVERSE_AT_1, rel=1e-12)


def test_inverse_matches_bisection_oracle():
    # charges at or above cost(0) so the bisection stays in the domain
    cf = CostFunction(liquidity=2.5, fixed_leg=0.5)
    for charge in (2.1, 3.0, 12.0, 40.0):
        assert cf.inverse_cost(charge) == pytest.approx(
            bisect_inverse(cf, charge), abs=1e-9)


def test_round_trip_grid():
    cf = CostFunction()
    for i in range(101):
        q = i * 1.0
        assert cf.inverse_cost(cf.cost(q)) == pytest.approx(
            q, rel=1e-9, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=500.0),
       st.floats(min_value=0.1, max_value=50.0))
def test_round_trip_property(q, b):
    cf = CostFunction(liquidity=b)
    assert cf.inverse_cost(cf.cost(q)) == pytest.approx(q, rel=1e-9, abs=1e-9)


def test_securities_reference_values():
    cf = CostFunction()
    assert cf.securities_for(0.0, 5.0) == 0.0
    assert cf.securities_for(1.0, 0.0) == pytest.approx(
        SECURITIES_1_AT_0, rel=1e-12)
    assert cf.securities_for(1.0, 0.0) == pytest.approx(
        math.log(2 * math.e - 1), rel=1e-12)


def test_contribution_reference_values():
    cf = CostFunction()
    assert cf.contribution_for(0.0, 3.0) == 0.0
    assert cf.contribution_for(1.0, 0.0) == pytest.approx(
        CONTRIBUTION_1_AT_0, rel=1e-12)


def test_securities_contribution_inverse_pair():
    cf = CostFunction()
    r = cf.securities_for(1.0, 0.0)
    assert cf.contribution_for(r, 0.0) == pytest.approx(1.0, rel=1e-9)
    x = cf.contribution_for(1.0, 0.0)
    assert cf.securities_for(x, 0.0) == pytest.approx(1.0, rel=1e-9)


def test_allocation_slope_exceeds_one():
    # finite-difference slope at (x=1, q=0), step 1e-6
    cf = CostFunction()
    h = 1e-6
    slope = (cf.securities_for(1.0 + h, 0.0) - cf.securities_for(1.0 - h, 0.0)) / (2 * h)
    assert slope > 1.0


def test_allocation_slope_grid():
    # d(securities)/d(amount) > 1 over the whole grid; the step is 1e-4 so
    # the margin (~2e-9 at the far corner) stays above float cancellation
    cf = CostFunction()
    h = 1e-4
    xs = [0.01 + 9.99 * i / 20 for i in range(21)]
    qs = [10.0 * j / 10 for j in range(11)]
    for x in xs:
        for q in qs:
            slope = (cf.securities_for(x + h, q) - cf.securities_for(x - h, q)) / (2 * h)
            assert slope > 1.0, (x, q, slope)


# Two premises of the certifier's claim that a delay never gains in the
# securities family: a fixed amount never buys more at a higher issuance, and
# issuance never falls as the money raised grows (money only rises, so a later
# slot is priced no lower). Each issuance is drawn as its exponent
# (fixed_leg - q) / b, so the closed form and the log space past EXP_LIMIT
# are both reached.
@settings(max_examples=500)
@given(b=st.floats(0.01, 1000.0), fixed_over_b=st.floats(0.0, 1000.0),
       amount=st.floats(0.0, 1e4),
       exponents=st.tuples(st.floats(-1000.0, 1000.0), st.floats(-1000.0, 1000.0)),
       raised=st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)))
@example(b=1.0, fixed_over_b=0.0, amount=1.0, exponents=(0.0, -5.0), raised=(1.0, 2.0))
@example(b=1.0, fixed_over_b=900.0, amount=1.0, exponents=(850.0, 720.0), raised=(0.0, 5e-324))
def test_allocation_never_rises_with_issuance(b, fixed_over_b, amount, exponents, raised):
    cf = CostFunction(liquidity=b, fixed_leg=fixed_over_b * b)
    low, high = sorted(max(0.0, cf.fixed_leg - t * b) for t in exponents)
    assert cf.securities_for(amount, high) <= cf.securities_for(amount, low)
    less, more = sorted(raised)
    assert cf.issued_at(less) <= cf.issued_at(more)


@settings(max_examples=300)
@given(b=st.floats(0.01, 1000.0), fixed_over_b=st.floats(EXP_LIMIT + 1.0, 1000.0),
       amount=st.floats(0.0, 1e4))
def test_allocation_never_rises_across_the_log_space_switch(b, fixed_over_b, amount):
    # the adjacent issuances where (fixed_leg - q) / b crosses EXP_LIMIT, and
    # eight floats on each side: the allocation never rises from one to the next
    cf = CostFunction(liquidity=b, fixed_leg=fixed_over_b * b)

    def log_space(q):
        return (cf.fixed_leg - q) / b >= EXP_LIMIT

    low, high = 0.0, cf.fixed_leg
    assert log_space(low) and not log_space(high)
    while math.nextafter(low, math.inf) < high:
        mid = low + (high - low) / 2
        low, high = (mid, high) if log_space(mid) else (low, mid)
    issued = [low, high]
    for _ in range(8):
        issued = [math.nextafter(issued[0], 0.0), *issued, math.nextafter(issued[-1], math.inf)]
    allocations = [cf.securities_for(amount, q) for q in issued]
    assert all(later <= earlier for earlier, later in zip(allocations, allocations[1:]))


def test_contribution_increasing_in_issuance():
    # buying the same quantity later costs more: the cost is convex, so the
    # price of a fixed block rises with issuance
    cf = CostFunction()
    for r in (0.5, 1.0, 4.0):
        prev = cf.contribution_for(r, 0.0)
        for q in (1.0, 3.0, 10.0):
            cur = cf.contribution_for(r, q)
            assert cur > prev, (r, q)
            prev = cur


def test_cost_convexity_grid():
    cf = CostFunction()
    h = 0.25
    for i in range(40):
        q = 0.25 + i * h
        second = cf.cost(q + h) - 2 * cf.cost(q) + cf.cost(q - h)
        assert second > 0.0, q


def test_rejects_bad_inputs():
    cf = CostFunction()
    with pytest.raises(ValueError):
        cf.cost(-1.0)
    with pytest.raises(ValueError):
        cf.securities_for(-0.1, 0.0)
    with pytest.raises(ValueError):
        cf.securities_for(1.0, -0.1)
    with pytest.raises(ValueError):
        cf.contribution_for(-1.0, 0.0)
    with pytest.raises(ValueError, match="issued must be nonnegative, got -0.1"):
        cf.contribution_for(1.0, -0.1)
    with pytest.raises(ValueError):
        cf.inverse_cost(0.0)  # at the floor for fixed_leg=0
    with pytest.raises(ValueError):
        CostFunction(liquidity=-1.0)


def test_cost_params_validation():
    with pytest.raises(ValueError, match="liquidity"):
        CostFunction(liquidity=0.0)


def test_overflow_guarded():
    cf = CostFunction()
    assert cf.cost(800.0) == pytest.approx(800.0, rel=1e-12)
    assert cf.inverse_cost(800.0) == pytest.approx(800.0, rel=1e-12)


def reference_securities(cf: CostFunction, amount: float, issued: float) -> Decimal:
    """Securities from the definition, cost(issued + s) = cost(issued) + amount,
    solved as s = b*ln(exp((cost(issued) + amount)/b) - exp(f/b)) - issued.
    Exponentials up to e^1000 apart are subtracted, so the work runs at 500
    digits to keep 60."""
    with localcontext() as ctx:
        ctx.prec = 500
        b, f = Decimal(cf.liquidity), Decimal(cf.fixed_leg)
        x, q = Decimal(amount), Decimal(issued)
        cost = b * ((f / b).exp() + (q / b).exp()).ln()
        result = b * (((cost + x) / b).exp() - (f / b).exp()).ln() - q
    with localcontext() as ctx:
        ctx.prec = 60
        return +result


def reference_contribution(cf: CostFunction, securities: float, issued: float) -> Decimal:
    """Payment from the definition, cost(issued + securities) - cost(issued)."""
    with localcontext() as ctx:
        ctx.prec = 500
        b, f = Decimal(cf.liquidity), Decimal(cf.fixed_leg)
        s, q = Decimal(securities), Decimal(issued)
        result = b * (((f / b).exp() + ((q + s) / b).exp()).ln()
                      - ((f / b).exp() + (q / b).exp()).ln())
    with localcontext() as ctx:
        ctx.prec = 60
        return +result


@settings(deadline=None)
@given(st.floats(min_value=0.01, max_value=1000.0),
       st.floats(min_value=-1000.0, max_value=1000.0),
       st.floats(min_value=0.0, max_value=2000.0),
       st.floats(min_value=-9.0, max_value=1.0))
def test_allocations_match_decimal_reference(b, spread, issued_over_b, log_amount):
    # (f - q)/b = spread, amounts from 1e-9*b to 10*b
    issued = issued_over_b * b
    cf = CostFunction(liquidity=b, fixed_leg=issued + spread * b)
    amount = b * 10.0 ** log_amount
    securities = cf.securities_for(amount, issued)
    expected = reference_securities(cf, amount, issued)
    assert abs(Decimal(securities) - expected) <= Decimal(1e-13) * expected
    # Where the cost is flat (f >> q) the payment is proportional to
    # exp((q - f)/b); rounding q - f and the division moves that exponent by
    # up to 2 ulps of |q - f|/b, and the exact answer with it, so that much
    # is allowed on top. Results below the normal float range have no
    # relative precision to check.
    payment = cf.contribution_for(amount, issued)
    expected = reference_contribution(cf, amount, issued)
    exponent_ulps = 2.0 * 2.0 ** -53 * max(0.0, (cf.fixed_leg - issued) / b)
    scale = max(expected, Decimal(sys.float_info.min) * Decimal(b))
    assert abs(Decimal(payment) - expected) <= Decimal(1e-13 + exponent_ulps) * scale
    # the round trip carries the rounding of the securities, which are up to
    # ~1000*b when the cost is flat, back into the amount
    assert cf.contribution_for(securities, issued) == pytest.approx(amount, rel=1e-12)


@pytest.mark.parametrize("raised", [1e-9, 1e-6, 1e-3])
def test_issuance_matches_decimal_reference(raised):
    # small amounts raised keep their digits: no round trip through cost()
    cf = CostFunction(liquidity=30.0)
    expected = reference_securities(cf, raised, 0.0)
    assert abs(Decimal(cf.issued_at(raised)) - expected) <= Decimal(1e-15) * expected


def test_allocation_past_the_exponent_range():
    # (f - q)/b = 800: exp overflows, the log-space branch prices it
    cf = CostFunction(liquidity=1.0, fixed_leg=800.0)
    assert cf.securities_for(1.0, 0.0) == pytest.approx(
        float(reference_securities(cf, 1.0, 0.0)), rel=1e-15)
    assert cf.contribution_for(cf.securities_for(1.0, 0.0), 0.0) == pytest.approx(
        1.0, rel=1e-12)
    # a payment past the exponent range of expm1(securities/b)
    cf = CostFunction(liquidity=1.0)
    assert cf.contribution_for(900.0, 5.0) == pytest.approx(
        float(reference_contribution(cf, 900.0, 5.0)), rel=1e-15)


def test_log_space_prices_an_amount_whose_share_underflows():
    # the least subnormal amount over b = 2 rounds to 0, and so does
    # -expm1(-amount / b); past the exponent range both methods take the log
    # of that share, which must not be log(0), and the allocation stays
    # linear in the amount: half of what twice the amount buys
    cf = CostFunction(2.0, 1420.0)
    least = 5e-324
    assert least / cf.liquidity == 0.0
    doubled = cf.securities_for(2 * least, 0.0)
    assert doubled == pytest.approx(float(reference_securities(cf, 2 * least, 0.0)),
                                    rel=1e-12, abs=0)
    assert cf.securities_for(least, 0.0) == pytest.approx(0.5 * doubled, rel=1e-12, abs=0)
    assert cf.securities_for(least, 0.0) == pytest.approx(
        float(reference_securities(cf, least, 0.0)), rel=1e-12, abs=0)
    # the payment for that many securities is about exp(-710) times it: zero
    assert cf.contribution_for(least, 0.0) == 0.0
    assert cf.contribution_for(2 * least, 0.0) == 0.0


@settings(deadline=None)
@given(st.floats(min_value=0.5, max_value=5.0),
       st.floats(min_value=EXP_LIMIT, max_value=800.0),
       st.floats(min_value=5e-324, max_value=1e-300))
@example(2.0, 710.0, 5e-324)  # found by Hypothesis: amount / b rounds to 0
# found by Hypothesis: fixed_over_b * b / b rounds just under EXP_LIMIT
@example(3.061007327859261, 700.0, 5e-324)
def test_log_space_allocations_of_subnormal_amounts(b, fixed_over_b, amount):
    # amounts down to the least subnormal, where the allocation's log-space
    # branch runs: the securities against the decimal reference, and a
    # payment that is a finite nonnegative fraction of the amount. The
    # securities' relative error is their exponent's absolute error, a sum
    # of terms of 700 to 800 rounded to an ulp of about 1e-13 each; abs=0,
    # because approx's default absolute tolerance would pass any result of
    # the securities' size, 0 included
    cf = CostFunction(b, fixed_over_b * b)
    assert cf.securities_for(amount, 0.0) == pytest.approx(
        float(reference_securities(cf, amount, 0.0)), rel=2e-12, abs=0)
    assert 0.0 <= cf.contribution_for(amount, 0.0) <= amount


@settings(deadline=None)
@given(st.floats(min_value=0.01, max_value=1000.0),
       st.floats(min_value=-50.0, max_value=50.0),
       st.floats(min_value=1e-6, max_value=10.0))
def test_price_is_the_payment_slope_at_zero_and_a_floor(b, spread, securities_over_b):
    # the rival-fill bracket's lower bound: a payment for s securities is at
    # least price * s, and price is the payment's slope at s = 0
    cf = CostFunction(liquidity=b, fixed_leg=50.0 * b)
    issued = (50.0 - spread) * b
    price = cf.price(issued)
    assert price == pytest.approx(1.0 / (1.0 + math.exp(spread)), rel=1e-12)
    s = securities_over_b * b
    assert cf.contribution_for(s, issued) >= price * s * (1.0 - 1e-12)
    tiny = 1e-7 * b
    assert cf.contribution_for(tiny, issued) / tiny == pytest.approx(price, rel=1e-6)
