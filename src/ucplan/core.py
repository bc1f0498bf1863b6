"""Domain types and cost primitives for day-ahead unit commitment.

Conventions: power in MW, money in dollars, durations in whole hours.
On/off history is tracked with signed hour counters (positive = hours the
unit has been on, negative = hours off) saturating at +/-24.
"""

import math
import numbers
from dataclasses import dataclass, field

from .errors import OutOfBoundsError

STATUS_CAP = 24  # counters saturate at one day of history


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """One thermal unit: cost curve, output limits, up/down-time data.

    Generation cost is quadratic, ``a*P**2 + b*P + c`` dollars per hour.
    Start-up cost decays with the hours the unit has been off,
    ``e*exp(-g*t_off) + f*exp(-h*t_off)`` dollars.  ``initial_status`` is
    the signed counter the unit carries into hour 0.
    """

    id: int
    a: float
    b: float
    c: float
    e: float
    f: float
    g: float
    h: float
    p_min: float
    p_max: float
    t_up: int
    t_down: int
    initial_status: int


@dataclass(frozen=True, slots=True)
class DemandProfile:
    """Hourly demand and spinning-reserve requirement over the horizon."""

    horizon: int
    demand: tuple[float, ...]
    reserve: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "demand", tuple(float(d) for d in self.demand))
        object.__setattr__(self, "reserve", tuple(float(r) for r in self.reserve))


@dataclass(frozen=True, slots=True)
class ProblemInstance:
    """A generator fleet plus the demand profile it must serve."""

    generators: tuple[GeneratorSpec, ...]
    profile: DemandProfile

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def n_units(self) -> int:
        return len(self.generators)

    @property
    def horizon(self) -> int:
        return self.profile.horizon


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Total schedule cost split into generation and start-up components."""

    generation_total: float
    startup_total: float
    objective: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "objective", self.generation_total + self.startup_total
        )


def generation_cost(gen: GeneratorSpec, p: float) -> float:
    """Quadratic cost of running ``gen`` at output ``p`` MW for one hour."""
    slack = 1e-9 * max(1.0, gen.p_max)
    if not (gen.p_min - slack <= p <= gen.p_max + slack):
        raise OutOfBoundsError(
            f"unit {gen.id}: P={p} outside [{gen.p_min}, {gen.p_max}]"
        )
    return gen.a * p * p + gen.b * p + gen.c


def startup_cost(gen: GeneratorSpec, t_off: int) -> float:
    """Cost of starting ``gen`` after ``t_off`` hours offline.

    Counters saturate at 24 hours, so deeper off-history prices at the cap.
    """
    if t_off < 1:
        raise ValueError(f"t_off must be >= 1, got {t_off}")
    t = min(int(t_off), STATUS_CAP)
    return gen.e * math.exp(-gen.g * t) + gen.f * math.exp(-gen.h * t)


@dataclass(frozen=True, slots=True)
class Violation:
    field: str
    rule: str
    value: object


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(
            f"  {v.field}: {v.rule} (got {v.value})" for v in self.violations
        )


def validate_instance(instance: ProblemInstance) -> ValidationReport:
    """Check every domain invariant and report all violations found.

    Every real field must be finite, and every count (ids, hours, counters)
    a whole number.
    """
    bad: list[Violation] = []
    profile = instance.profile

    def whole(where: str, value) -> None:
        if not isinstance(value, numbers.Integral):
            bad.append(Violation(where, "whole number", value))

    def finite(where: str, value) -> None:
        if not math.isfinite(value):
            bad.append(Violation(where, "finite", value))

    for i, g in enumerate(instance.generators):
        where = f"generators[{i}]"
        for name in ("id", "t_up", "t_down", "initial_status"):
            whole(f"{where}.{name}", getattr(g, name))
        for name in ("a", "b", "c", "e", "f", "g", "h", "p_min", "p_max"):
            finite(f"{where}.{name}", getattr(g, name))
        if not 0 <= g.p_min <= g.p_max:
            bad.append(Violation(f"{where}.p_min", "0 <= p_min <= p_max", (g.p_min, g.p_max)))
        if not g.p_max > 0:
            bad.append(Violation(f"{where}.p_max", "p_max > 0", g.p_max))
        if g.a < 0:
            bad.append(Violation(f"{where}.a", "a >= 0", g.a))
        if g.t_up < 1:
            bad.append(Violation(f"{where}.t_up", "t_up >= 1", g.t_up))
        if g.t_down < 1:
            bad.append(Violation(f"{where}.t_down", "t_down >= 1", g.t_down))
        if g.initial_status == 0:
            bad.append(Violation(f"{where}.initial_status", "initial_status != 0", 0))
        if abs(g.initial_status) > STATUS_CAP:
            bad.append(
                Violation(f"{where}.initial_status", "|initial_status| <= 24", g.initial_status)
            )
        if g.g < 0:
            bad.append(Violation(f"{where}.g", "g >= 0", g.g))
        if g.h < 0:
            bad.append(Violation(f"{where}.h", "h >= 0", g.h))

    ids = [g.id for g in instance.generators]
    if sorted(ids) != list(range(len(ids))):
        bad.append(Violation("generators[].id", "ids are 0..N-1 with no gaps", ids))

    whole("profile.horizon", profile.horizon)
    if profile.horizon < 1:
        bad.append(Violation("profile.horizon", "horizon >= 1", profile.horizon))
    if len(profile.demand) != profile.horizon:
        bad.append(Violation("profile.demand", "length equals horizon", len(profile.demand)))
    if len(profile.reserve) != profile.horizon:
        bad.append(Violation("profile.reserve", "length equals horizon", len(profile.reserve)))
    for t, d in enumerate(profile.demand):
        finite(f"profile.demand[{t}]", d)
        if not d > 0:
            bad.append(Violation(f"profile.demand[{t}]", "demand > 0", d))
    for t, r in enumerate(profile.reserve):
        finite(f"profile.reserve[{t}]", r)
        if r < 0:
            bad.append(Violation(f"profile.reserve[{t}]", "reserve >= 0", r))

    if len(profile.demand) == len(profile.reserve) == profile.horizon:
        peak = max(d + r for d, r in zip(profile.demand, profile.reserve))
        cap = sum(g.p_max for g in instance.generators)
        if cap < peak:
            bad.append(Violation("generators", "capacity shortfall: sum(p_max) >= peak demand+reserve", (cap, peak)))

    return ValidationReport(tuple(bad))
