"""Composite-pulse phase families and the two-composite phase gate.

A composite pulse (CP) is a train of pulses of common area, envelope and
detuning whose relative phases are the control parameters.  Shipped families:

* broadband (``bb``): phases phi_k = k(k-1)*pi/n, k = 1..n, for odd n; the
  excitation profile is flat in pulse area around the nominal point, with
  flatness order growing with n.
* ``universal``: tabulated symmetric phase lists for n = 3, 5, 7 (two
  solutions each for n = 5 and 7).  The u5 and u7 lists compensate small
  systematic area errors to third order; the shipped u3 list (0, 1/2, 0)
  compensates none, its gate error being that of a single pulse.  No
  family removes the frame phase e^{-i Delta T/2} of a gate of
  duration T: every reflection keeps a first-order error |Delta| T/2, and with
  that phase taken out only u5 and u7 reach round-off (at |Delta| <= 1e-3).

A phase gate diag(e^{i alpha/2}, e^{-i alpha/2}) is produced by running a
composite pulse twice: first with its native phases phi_k, then with every
phase offset to xi_k = phi_k + pi + alpha/2.  Each constituent pulse has
nominal area pi; at the nominal point the gate is exact for any phase list.
The second composite is the first conjugated by the drive phase s = pi +
alpha/2, so the kernel runs a two-level gate's first composite only
(:func:`_gate_blocks`), and reads the gate at -Delta from the first
composite at Delta.

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

from .errors import ValidationError, echo
from .two_level import (
    DEFAULT_SUBSTEPS,
    Propagator2,
    PulseShape,
    _star_blocks,
    rectangular,
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


@dataclass(frozen=True)
class PhaseList:
    """Ordered composite-pulse phases, stored as exact multiples of pi in [0, 2)."""

    family: str
    fractions: tuple[Fraction, ...]
    variant: int | None = None

    def __post_init__(self):
        if not self.fractions:
            raise ValidationError("a phase list needs at least one phase")
        if self.fractions[0] != 0:
            raise ValidationError("phase lists are gauge-fixed to start at 0")
        for f, mirror in zip(self.fractions, reversed(self.fractions)):
            if not 0 <= f < 2:
                raise ValidationError("phases must be reduced to [0, 2) in units of pi")
            if f != mirror:
                raise ValidationError("shipped phase lists are palindromic")

    @property
    def n(self) -> int:
        """Number of pulses in one composite."""
        return len(self.fractions)

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
        return ", ".join(map(str, self.fractions))


def bb_phases(n: int) -> PhaseList:
    """Broadband phases phi_k = k(k-1)*pi/n, k = 1..n, reduced modulo 2*pi.

    n must be odd, positive and at most MAX_ORDER; n = 1 is the bare single
    pulse (phase 0).
    """
    if int(n) != n or n < 1 or n % 2 == 0:
        raise ValidationError(f"n must be odd and positive, got {echo(str(n))}")
    if n > MAX_ORDER:
        raise ValidationError(f"n must be at most {MAX_ORDER}, got {echo(str(n))}")
    n = int(n)
    fractions = tuple(Fraction(k * (k - 1), n) % 2 for k in range(1, n + 1))
    return PhaseList(BROADBAND, fractions)


def universal_phases(n: int, variant: int = 1) -> PhaseList:
    """One of the published universal phase lists: n in {3, 5, 7}, variant in {1, 2}."""
    key = (n, variant)
    if key not in _UNIVERSAL_FRACTIONS:
        supported = ", ".join(f"({a},{b})" for a, b in sorted(_UNIVERSAL_FRACTIONS))
        raise ValidationError(f"no universal list for n={echo(str(n))}, "
                              f"variant={echo(str(variant))}; supported (n, variant): {supported}")
    fractions = tuple(Fraction(s) for s in _UNIVERSAL_FRACTIONS[key])
    return PhaseList(UNIVERSAL, fractions, variant=variant)


@dataclass(frozen=True)
class GateSequence:
    """Gate of phase `alpha` on `base`: phases phi_1..phi_n, then xi_k = phi_k + pi + alpha/2.

    With U1 the first composite and D(p) = diag(e^{ip}, ..., e^{ip}, 1) the
    drive phase p, the second block is D(s) U1 D(s)^dagger, s = pi +
    alpha/2, and the gate is D(s) U1 D(s)^dagger U1.
    """

    base: PhaseList
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValidationError("alpha must be finite")

    @property
    def pulse_phases(self) -> tuple[float, ...]:
        """The 2n pulse phases in radians, in execution order: the phi block, then the xi block."""
        phi = self.base.phases
        return phi + tuple(p + math.pi + 0.5 * self.alpha for p in phi)


def gate_sequence(base: PhaseList, alpha: float) -> GateSequence:
    """The two-composite gate of phase alpha on `base`; alpha must be finite."""
    return GateSequence(base, float(alpha))


def sequence_propagator(seq: GateSequence, area: float, detuning: float = 0.0,
                        shape: PulseShape = rectangular(),
                        substeps: int = DEFAULT_SUBSTEPS) -> Propagator2:
    """Two-level propagator of a full gate sequence at per-pulse area `area`.

    The peak Rabi frequency is normalized to 1 (duration carries the area), so
    `area` and `detuning` are the dimensionless scan parameters A and
    Delta/Omega.  area = 0 degenerates to the identity.
    """
    return Propagator2(_gate_propagator((1.0,), seq, area, detuning, shape, substeps))


def _gate_blocks(bright, seq: GateSequence, areas, detunings, shape: PulseShape, substeps: int):
    """The kernel's blocks of the gate `seq` over a grid, as ``two_level._star_blocks`` yields them.

    The one path by which a gate reaches the kernel: its 2n pulse phases go
    with the shift s = pi + alpha/2 of its second composite, so that a
    two-level train runs the first composite only and an (N+1)-level train
    runs all 2n phases as :attr:`GateSequence.pulse_phases` gives them.
    Every shipped phase list is palindromic, so a two-level gate on pulses
    whose slices mirror also reads the positive member of each mirrored
    pair of detunings from its negative partner, and the `cols` of its
    blocks may be index arrays.
    """
    return _star_blocks(bright, seq.pulse_phases, areas, detunings, shape, substeps,
                        math.pi + 0.5 * seq.alpha)


def _gate_propagator(bright, seq: GateSequence, area: float, detuning: float,
                     shape: PulseShape, substeps: int) -> np.ndarray:
    """The (N+1)x(N+1) propagator of the gate `seq` at one (area, detuning) point."""
    ((_, _, u),) = _gate_blocks(bright, seq, np.full((1, 1), area, dtype=float),
                                np.full(1, detuning, dtype=float), shape, substeps)
    return u[0, 0]


def composite_phase_gate(family: PhaseList, alpha: float, area: float,
                         detuning: float = 0.0) -> Propagator2:
    """Rectangular-pulse composite phase gate.

    At (area = pi, detuning = 0) the result is diag(e^{i alpha/2},
    e^{-i alpha/2}) to round-off for every shipped family.
    """
    return sequence_propagator(gate_sequence(family, alpha), area, detuning)

