"""Min-plus tropical arithmetic over exact rationals with a top element.

The carrier is Q together with Top; the semiring sum is min (neutral Top) and
the semiring product is rational addition (neutral 0, Top absorbing). Every
element except Top has a multiplicative inverse, its rational negation, which
makes the structure a semifield. The carrier is infinite, so the semiring
laws are checked on seeded samples instead of exhaustively.

The same seeded draws serve the truncation certificates of ``mvsr.mv``,
which decide the truncation laws exactly on a finite grid and keep the draws
as a spot check. There each draw is taken as the integer it becomes when
scaled by a common denominator (``scaled_sampler``), so no ``Trop`` or
``Fraction`` is built per sample.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import NegationOfTop, check_count
from .semiring import _sampled_law_failures

Rational = Union[Fraction, int]


@dataclass(frozen=True, order=False)
class Trop:
    """A rational value or Top (value None)."""

    value: Optional[Fraction]

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", Fraction(self.value))

    @property
    def is_top(self) -> bool:
        return self.value is None

    def __repr__(self):
        return "Top" if self.is_top else f"Trop({self.value})"


TOP = Trop(None)


def trop(x: Union[Trop, Rational, None]) -> Trop:
    if isinstance(x, Trop):
        return x
    if x is None:
        return TOP
    return Trop(Fraction(x))


def trop_leq(a: Trop, b: Trop) -> bool:
    """The usual rational order with Top greatest."""
    if b.is_top:
        return True
    if a.is_top:
        return False
    return a.value <= b.value


def trop_meet(a: Trop, b: Trop) -> Trop:
    """min; this is the semiring sum."""
    return a if trop_leq(a, b) else b


def trop_join(a: Trop, b: Trop) -> Trop:
    return b if trop_leq(a, b) else a


def trop_sum(a: Trop, b: Trop) -> Trop:
    return trop_meet(a, b)


def trop_prod(a: Trop, b: Trop) -> Trop:
    if a.is_top or b.is_top:
        return TOP
    return Trop(a.value + b.value)


def trop_neg(a: Trop) -> Trop:
    """Multiplicative inverse. Top has none."""
    if a.is_top:
        raise NegationOfTop("Top is not invertible")
    return Trop(-a.value)


TROP_ZERO = TOP           # additive neutral (min)
TROP_ONE = Trop(Fraction(0))  # multiplicative neutral (+)


@dataclass(frozen=True)
class TropicalUSemifield:
    """The min-plus rationals with a chosen positive unit u.

    u plays the role of the truncation bound; for rationals every positive u
    is a strong unit, so no archimedean side condition needs checking.
    """

    u: Fraction

    def __post_init__(self):
        object.__setattr__(self, "u", Fraction(self.u))
        if self.u <= 0:
            raise ValueError("unit must be positive")


TOP_WEIGHT = 0.05
NUM_BOUND = 50
DEN_BOUND = 12
DEN_LCM = math.lcm(*range(1, DEN_BOUND + 1))  # 27720


def sample_trop(rng: random.Random, nonnegative: bool = False) -> Trop:
    """Top with probability TOP_WEIGHT, else num / den with den drawn from
    1..DEN_BOUND and num from -NUM_BOUND..NUM_BOUND, or from 0 up when
    nonnegative."""
    if rng.random() < TOP_WEIGHT:
        return TOP
    num = rng.randint(0 if nonnegative else -NUM_BOUND, NUM_BOUND)
    den = rng.randint(1, DEN_BOUND)
    return Trop(Fraction(num, den))


def scaled_sampler(rng: random.Random, scale: int,
                   nonnegative: bool = False):
    """A draw function for sample_trop's stream in integers: each call
    returns sample_trop(rng, nonnegative)'s value times DEN_LCM * scale,
    which is an integer, or None for Top.

    It draws what sample_trop draws and leaves rng in the same state.
    rng.random() picks Top; each bounded integer is then taken as
    rng.randint takes it, by getrandbits rejection: draw as many bits as
    the range's width has, until the draw falls below the width. rng's
    two methods are bound once, and no Trop or Fraction is built.
    """
    steps = tuple(DEN_LCM // den * scale for den in range(1, DEN_BOUND + 1))
    low = 0 if nonnegative else -NUM_BOUND
    width = NUM_BOUND - low + 1
    bits = width.bit_length()
    den_bits = DEN_BOUND.bit_length()
    uniform, getrandbits = rng.random, rng.getrandbits

    def draw() -> Optional[int]:
        if uniform() < TOP_WEIGHT:
            return None
        num = getrandbits(bits)
        while num >= width:
            num = getrandbits(bits)
        den = getrandbits(den_bits)
        while den >= DEN_BOUND:
            den = getrandbits(den_bits)
        return (low + num) * steps[den]

    return draw


def tropical_law_report(samples: int = 10000, seed: int = 42) -> dict:
    """Sampled law checks: the eight semiring laws, inverses, and the
    derived-join identity a `meet` b = -((-a) join (-b)) on non-Top draws.
    Fewer than one sample is refused with ValueError."""
    samples = check_count(samples, "samples", 1)
    rng = random.Random(seed)

    def inverse_broken(a: Trop, b: Trop, c: Trop) -> bool:
        return not a.is_top and trop_prod(a, trop_neg(a)) != TROP_ONE

    def meet_broken(a: Trop, b: Trop, c: Trop) -> bool:
        return (not a.is_top and not b.is_top and trop_meet(a, b)
                != trop_neg(trop_join(trop_neg(a), trop_neg(b))))

    fails = _sampled_law_failures(
        samples, lambda: sample_trop(rng), trop_sum, trop_prod, TROP_ZERO,
        TROP_ONE, (("mul-inverse", inverse_broken),
                   ("meet-from-join", meet_broken)))
    return {"samples": samples, "seed": seed, "failures": fails,
            "ok": not any(fails.values())}
