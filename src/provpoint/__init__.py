"""Provision-point civic crowdfunding mechanisms with negative valuations
and asymmetric beliefs: market engines, belief-phase rewards, closed-form
equilibrium bounds, and exact best-response deviation certification."""
