"""Composite-pulse phase families and the two-composite phase gate.

A composite pulse (CP) is a train of pulses of common area, envelope and
detuning whose relative phases are the control parameters.  Shipped families:

* broadband (``bb``): phases phi_k = k(k-1)*pi/n, k = 1..n, for odd n; the
  excitation profile is flat in pulse area around the nominal point, with
  flatness order growing with n.
* ``universal``: tabulated symmetric phase lists for n = 3, 5, 7 (two
  solutions each for n = 5 and 7) that compensate small systematic errors in
  any field parameter simultaneously.

A phase gate diag(e^{i alpha/2}, e^{-i alpha/2}) is produced by running a
composite pulse twice: first with its native phases phi_k, then with every
phase offset to xi_k = phi_k + pi + alpha/2.  Each constituent pulse has
nominal area pi; at the nominal point the gate is exact for any phase list.

Phase bookkeeping: family phases are stored as exact rational multiples of pi
(reduced modulo 2) and rendered to floats only when composing propagators;
derived pulse phases are composed as plain reals and reduced modulo 2*pi for
display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .two_level import (
    DEFAULT_SUBSTEPS,
    Propagator2,
    PulseShape,
    rectangular,
    star_propagator,
)

BROADBAND = "bb"
UNIVERSAL = "universal"

#: Largest broadband order n.  A gate runs 2n pulses; orders up to 19 are
#: tested, and the bound keeps an order from a flag or a config from asking
#: for millions of phases.
MAX_ORDER = 999

# Universal composite-pulse phase lists, in multiples of pi.  Two published
# solutions exist for n = 5 and n = 7 (variant picks one).
_UNIVERSAL_FRACTIONS = {
    (3, 1): ("0", "1/2", "0"),
    (5, 1): ("0", "5/6", "1/3", "5/6", "0"),
    (5, 2): ("0", "11/6", "1/3", "11/6", "0"),
    (7, 1): ("0", "11/12", "5/6", "17/12", "5/6", "11/12", "0"),
    (7, 2): ("0", "23/12", "5/6", "5/12", "5/6", "23/12", "0"),
}


def _fraction_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class PhaseList:
    """Ordered composite-pulse phases, stored as exact multiples of pi in [0, 2)."""

    family: str
    n: int
    fractions: tuple[Fraction, ...]
    variant: int | None = None

    def __post_init__(self):
        if len(self.fractions) != self.n:
            raise ValidationError("phase list length must equal n")
        if self.fractions[0] != 0:
            raise ValidationError("phase lists are gauge-fixed to start at 0")
        for k in range(self.n):
            if not 0 <= self.fractions[k] < 2:
                raise ValidationError("phases must be reduced to [0, 2) in units of pi")
            if self.fractions[k] != self.fractions[self.n - 1 - k]:
                raise ValidationError("shipped phase lists are palindromic")

    @property
    def phases(self) -> tuple[float, ...]:
        """Phases in radians, in physical (first-pulse-first) order."""
        return tuple(float(f) * math.pi for f in self.fractions)

    @property
    def label(self) -> str:
        """Short identifier used in CSV column names: n3, u5v2, ..."""
        if self.family == BROADBAND:
            return f"n{self.n}"
        return f"u{self.n}v{self.variant}"

    def pi_string(self) -> str:
        """Exact rational rendering, e.g. '0, 2/5, 6/5, 2/5, 0'."""
        return ", ".join(_fraction_str(f) for f in self.fractions)


def bb_phases(n: int) -> PhaseList:
    """Broadband phases phi_k = k(k-1)*pi/n, k = 1..n, reduced modulo 2*pi.

    n must be odd, positive and at most MAX_ORDER; n = 1 is the bare single
    pulse (phase 0).
    """
    if int(n) != n or n < 1 or n % 2 == 0:
        raise ValidationError(f"n must be odd and positive, got {n}")
    if n > MAX_ORDER:
        raise ValidationError(f"n must be at most {MAX_ORDER}, got {n}")
    n = int(n)
    fractions = tuple(Fraction(k * (k - 1), n) % 2 for k in range(1, n + 1))
    return PhaseList(BROADBAND, n, fractions)


def universal_phases(n: int, variant: int = 1) -> PhaseList:
    """One of the published universal phase lists: n in {3, 5, 7}, variant in {1, 2}."""
    key = (n, variant)
    if key not in _UNIVERSAL_FRACTIONS:
        supported = ", ".join(f"({a},{b})" for a, b in sorted(_UNIVERSAL_FRACTIONS))
        raise ValidationError(f"no universal list for n={n}, variant={variant}; "
                              f"supported (n, variant): {supported}")
    fractions = tuple(Fraction(s) for s in _UNIVERSAL_FRACTIONS[key])
    return PhaseList(UNIVERSAL, n, fractions, variant=variant)


@dataclass(frozen=True)
class GateSequence:
    """The 2n pulse phases of a composite phase gate: phi_1..phi_n then xi_1..xi_n."""

    base: PhaseList
    alpha: float
    pulse_phases: tuple[float, ...]

    def __post_init__(self):
        n = self.base.n
        if len(self.pulse_phases) != 2 * n:
            raise ValidationError("a gate sequence holds 2n pulse phases")
        shift = math.pi + 0.5 * self.alpha
        for k in range(n):
            delta = self.pulse_phases[n + k] - self.pulse_phases[k] - shift
            if abs(math.remainder(delta, 2.0 * math.pi)) > 1e-12:
                raise ValidationError("second-composite phases must be offset by pi + alpha/2")


def gate_sequence(base: PhaseList, alpha: float) -> GateSequence:
    """Phases of the two-composite gate of phase alpha: xi_k = phi_k + pi + alpha/2.

    Execution order is the phi block first, then the xi block.
    """
    if not np.isfinite(alpha):
        raise ValidationError("alpha must be finite")
    phi = base.phases
    xi = tuple(p + math.pi + 0.5 * alpha for p in phi)
    return GateSequence(base, float(alpha), phi + xi)


def sequence_propagator(seq: GateSequence, area: float, detuning: float = 0.0,
                        shape: PulseShape = rectangular(),
                        substeps: int = DEFAULT_SUBSTEPS) -> Propagator2:
    """Two-level propagator of a full gate sequence at per-pulse area `area`.

    The peak Rabi frequency is normalized to 1 (duration carries the area), so
    `area` and `detuning` are the dimensionless scan parameters A and
    Delta/Omega.  area = 0 degenerates to the identity.
    """
    return Propagator2(star_propagator((1.0,), seq.pulse_phases, area, detuning, shape, substeps))


def composite_phase_gate(family: PhaseList, alpha: float, area: float,
                         detuning: float = 0.0) -> Propagator2:
    """Rectangular-pulse composite phase gate.

    At (area = pi, detuning = 0) the result is diag(e^{i alpha/2},
    e^{-i alpha/2}) to round-off for every shipped family.
    """
    return sequence_propagator(gate_sequence(family, alpha), area, detuning)

