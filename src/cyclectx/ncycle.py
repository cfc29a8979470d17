"""Possibilistic n-cycle behavior generators and outcome relabelings.

Three Hardy-type support patterns over the n-cycle are provided. In each
one, a short list of joint outcomes is declared impossible on the contexts
(i, i+1) for i < n, one joint outcome is declared possible on the closing
context, and every tuple not explicitly forbidden is possible.

  unified (n >= 4):  (0,1) impossible on every (i, i+1); (0,1) possible on (1, n).
  odd     (n >= 5, odd):  alternating (1,1), (0,0), ... impossible; on the
          closing context the outcome (m_n=0, m_1=1) is possible, which in
          the canonical (1, n) key order is the tuple (1, 0).
  even    (n >= 4, even): (1,0) impossible up to context (n/2-1, n/2), then
          (1,1) impossible once, then (0,1) impossible; (1,1) possible on
          the closing context.

Flipping the outcome labels of all odd measurements turns the odd pattern
into the unified one; flipping the first n/2 measurements does the same for
the even pattern. These transforms are exact support bijections, so all
contextuality verdicts are preserved.

Each call builds a fresh behavior, validated once and read-only. What is
built once is shared: the cycle scenario per n (``make_cycle_scenario``,
the package's one scenario) and the 15 pair supports of ``scenario``, of
which every support of a behavior is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .scenario import (
    _PAIR_BITS,
    _PAIR_SUPPORTS,
    Context,
    OutcomeTuple,
    PossibilisticBehavior,
    Scenario,
    ScenarioError,
    flip_outcomes,
    make_cycle_scenario,
)


@dataclass(frozen=True)
class FlipMask:
    """Per-measurement outcome swap (True means relabel 0 <-> 1)."""
    flips: Mapping[int, bool]

    def flipped(self, measurement: int) -> bool:
        return bool(self.flips[measurement])


def _behavior_from_constraints(
    s: Scenario,
    forbidden: Mapping[Context, OutcomeTuple],
    required: tuple[Context, OutcomeTuple],
    kind: str,
) -> PossibilisticBehavior:
    # each support is a shared pair support
    full = 0b1111
    supports = {c: _PAIR_SUPPORTS[full ^ _PAIR_BITS[forbidden[c]] if c in forbidden else full]
                for c in s.contexts}
    ctx, t = required
    if t not in supports[ctx]:
        raise ScenarioError(f"required tuple {t} in {ctx} clashes with the forbidden set")
    return PossibilisticBehavior(s, supports, kind=kind, required=required)


def unified_ncycle_behavior(n: int) -> PossibilisticBehavior:
    if n < 4:
        raise ScenarioError(f"unified cycle behavior needs n >= 4, got {n}")
    s = make_cycle_scenario(n)
    forbidden = {(i, i + 1): (0, 1) for i in range(1, n)}
    return _behavior_from_constraints(s, forbidden, ((1, n), (0, 1)), "unified")


def odd_ncycle_behavior(n: int) -> PossibilisticBehavior:
    if n < 5 or n % 2 == 0:
        raise ScenarioError(f"odd cycle behavior needs odd n >= 5, got {n}")
    s = make_cycle_scenario(n)
    forbidden = {
        (i, i + 1): ((1, 1) if i % 2 == 1 else (0, 0)) for i in range(1, n)
    }
    # (m_n=0, m_1=1) possible; the closing context is keyed (1, n).
    return _behavior_from_constraints(s, forbidden, ((1, n), (1, 0)), "odd")


def even_ncycle_behavior(n: int) -> PossibilisticBehavior:
    if n < 4 or n % 2 == 1:
        raise ScenarioError(f"even cycle behavior needs even n >= 4, got {n}")
    s = make_cycle_scenario(n)
    h = n // 2
    forbidden: dict[Context, OutcomeTuple] = {}
    for i in range(1, n):
        if i < h:
            forbidden[(i, i + 1)] = (1, 0)
        elif i == h:
            forbidden[(i, i + 1)] = (1, 1)
        else:
            forbidden[(i, i + 1)] = (0, 1)
    return _behavior_from_constraints(s, forbidden, ((1, n), (1, 1)), "even")


def odd_to_unified_mask(n: int) -> FlipMask:
    """Flip every odd-labeled measurement."""
    if n % 2 == 0:
        raise ScenarioError(f"odd relabeling mask needs odd n, got {n}")
    return FlipMask({i: i % 2 == 1 for i in range(1, n + 1)})


def even_to_unified_mask(n: int) -> FlipMask:
    """Flip measurements 1 .. n/2."""
    if n % 2 == 1:
        raise ScenarioError(f"even relabeling mask needs even n, got {n}")
    return FlipMask({i: i <= n // 2 for i in range(1, n + 1)})


def identity_mask(n: int) -> FlipMask:
    return FlipMask({i: False for i in range(1, n + 1)})


def relabel(pb: PossibilisticBehavior, mask: FlipMask) -> PossibilisticBehavior:
    """Swap outcome labels of the flipped measurements in every support
    (``scenario.flip_outcomes``, which checks the mask's domain)."""
    return flip_outcomes(pb, mask.flips)
