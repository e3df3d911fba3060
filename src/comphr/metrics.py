"""Gate-infidelity metrics and robustness scans over pulse area and detuning.

The infidelity of a realized manifold propagator M' against the target
reflection M is the raw Frobenius distance sqrt(sum |M'_jk - M_jk|^2); no
global-phase alignment is performed (at the nominal point the two matrices
are equal outright, not merely up to phase).

Because the dark states are exact spectators, the manifold propagator is
(I - |v><v|) + u00 |v><v| with u00 the bright-to-bright amplitude of the
two-level composite at the rms parameters, so the infidelity collapses to
|u00 - e^{i phi}| independently of the dimension and of v.  Scans propagate
this two-level shortcut as the N = 1 system unless they are given a system,
which they then propagate through all N+1 levels as a cross-check.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .composite import PhaseList, _gate_blocks, gate_sequence
from .errors import ValidationError
from .linalg import require_square
from .npod import HouseholderTarget, NPodSystem, householder_matrix
from .two_level import DEFAULT_SUBSTEPS, STACK_ELEMENTS

AXIS_AREA = "area_over_pi"
AXIS_DETUNING = "detuning_over_omega"
_AXIS_NAMES = (AXIS_AREA, AXIS_DETUNING)
#: The two-level shortcut: the bright-ancilla pair alone, an N-pod with N = 1.
_SHORTCUT = NPodSystem((1.0,), (0.0,))


@dataclass(frozen=True)
class ScanAxis:
    """One scan axis in dimensionless units (A/pi or Delta/Omega)."""

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.name not in _AXIS_NAMES:
            raise ValidationError(f"axis name must be one of {_AXIS_NAMES}, got {self.name!r}")
        # bounds before int(): they reject nan and inf, and an int too large for a float
        if not (2 <= self.points <= STACK_ELEMENTS and int(self.points) == self.points):
            raise ValidationError(f"an axis needs a whole number of points, at least 2 "
                                  f"and at most {STACK_ELEMENTS} points")
        if not (np.isfinite(self.start) and np.isfinite(self.stop) and self.start < self.stop):
            raise ValidationError("axis range must satisfy start < stop")
        if not math.isfinite(float(self.stop) - float(self.start)):
            raise ValidationError("axis range must span a finite interval")

    def values(self) -> np.ndarray:
        """The `points` values from start to stop, evenly spaced as np.linspace spaces them.

        A range symmetric about zero, start == -stop, is symmetric bit for
        bit: its upper half is the negation of its lower half, and an odd
        middle is +0.0, so the kernel can read each positive detuning of a
        two-level gate from its negative partner (``two_level._mirror_pairs``).
        np.linspace would round the two halves apart.  Every other range is
        np.linspace.
        """
        values = np.linspace(self.start, self.stop, int(self.points))
        if self.start == -self.stop:
            half = int(self.points) // 2
            values[-half:] = -values[half - 1::-1]
            if self.points % 2:
                values[half] = 0.0
        return values


@dataclass(frozen=True)
class ScanGrid:
    """One or two scan axes with at most STACK_ELEMENTS grid points in all."""

    axis1: ScanAxis
    axis2: ScanAxis | None = None

    def __post_init__(self):
        points = self.axis1.points * (1 if self.axis2 is None else self.axis2.points)
        if points > STACK_ELEMENTS:
            raise ValidationError(f"a scan grid holds at most {STACK_ELEMENTS} points, "
                                  f"got {int(points)}")


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Infidelity values on a grid: (families, points) for 1D, (points1, points2) for 2D."""

    grid: ScanGrid
    labels: tuple[str, ...]
    values: np.ndarray

    def to_csv(self, f) -> None:
        """Write the CSV form (17 significant digits, deterministic byte-for-byte).

        `f` is a path, whose file gets the bytes as they are joined, or a
        text stream, which gets them decoded.
        """
        if isinstance(f, (str, bytes)) or hasattr(f, "__fspath__"):
            with open(f, "wb") as handle:
                self._write_csv(handle.write)
        else:
            self._write_csv(lambda data: f.write(data.decode()))

    def _write_csv(self, write) -> None:
        """Pass the CSV form to `write` as bytes, the header and then blocks of lines."""
        xs = self.grid.axis1.values()[:, None]
        if self.grid.axis2 is None:
            labels = ",".join(["A_over_pi"] + [f"F_{label}" for label in self.labels])
            write(f"{labels}\n".encode())
            _write_lines(write, [xs, *self.values[:, :, None]])
        else:
            write(b"A_over_pi,Delta_over_Omega,F\n")
            _write_lines(write, [xs, self.grid.axis2.values()[None, :], self.values])

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


#: Every number in an output file: 17 significant digits round-trip a float64.
_NUMBER = "%.17g"
#: Lines formatted per write, which bounds the text held in memory for any grid.
_CSV_ROWS = 4096
#: Bytes of a number's field: the longest _NUMBER text, "-2.2250738585072014e-308".
_FIELD = 24
#: A field's bytes as one item.
_FIELD_ITEM = np.dtype(f"V{_FIELD}")
#: Veltkamp's splitter 2^27 + 1: a * _SPLIT cuts a double into two 26-bit halves.
_SPLIT = 134217729.0


def _halves(a):
    """hi, lo with hi + lo == a exactly, each with at most 26 significant bits (Veltkamp)."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _digit_tables():
    """The scales, the 4-digit words and the heads that _number_fields gathers from.

    Entry j of the scales is 10^p, p = 16 - k for the decade k = j - 4 of
    the values 1e-4 <= |x| < 10, each exact in a double, with its halves.
    Entry w of the words is the text of w in 4 digits as one uint32; entry
    10000 + w blanks its trailing zeros, for the last word that is not all
    zero.  The heads are 8 bytes: the sign, "0." and the leading zeros of a
    decade below 1, the leading digit, and the decimal point after it for
    k = 0 unless the 16 digits behind it are all zero, padded with spaces;
    entry 100 sign + 20 j + 2 lead + (rest zero) holds that text.
    """
    scale = 10.0 ** np.arange(20, 15, -1)
    # words[b, d0, d1, d2, d3] holds the digits d0 d1 d2 d3, trailing zeros blanked if b
    words = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for k in range(4):
        words[..., k] = digit.reshape((10,) + (1,) * (3 - k))
    blank = words[1]
    blank[:, :, :, 0, 3] = blank[:, :, 0, 0, 2] = ord(" ")
    blank[:, 0, 0, 0, 1] = blank[0, 0, 0, 0, 0] = ord(" ")
    heads = b"".join([(sign + ("0." + "0" * (3 - j) + str(lead) if j < 4
                               else str(lead) + ("" if zero else "."))).ljust(8).encode()
                      for sign in ("", "-") for j in range(5)
                      for lead in range(10) for zero in (False, True)])
    return (scale, *_halves(scale), words.view(np.uint32).reshape(-1),
            np.frombuffer(heads, np.uint64))


_SCALE, _SCALE_HI, _SCALE_LO, _WORDS, _HEADS = _digit_tables()


def _number_fields(values) -> np.ndarray:
    """The _NUMBER text of every value, as _FIELD bytes padded with spaces.

    The result has shape values.shape + (_FIELD,).  A value with
    1e-4 <= |x| < 10 takes its 17 digits from _decimal_digits and its text
    from the tables of _digit_tables: a head for the sign, the point and
    the leading digit, then four words of 4 digits.  Every other value
    (zero, a non-finite value, one outside that range, or one that
    _decimal_digits cannot place) is formatted by _NUMBER one at a time.
    """
    x = np.asarray(values, dtype=float).reshape(-1)
    j, d, exact = _decimal_digits(np.abs(x))
    # D = lead 10^16 + mid 10^8 + low, and mid and low as two words of 4 digits
    # each; a word takes the table that blanks its trailing zeros if all after it is 0
    low = d
    mid = low // 100000000
    low -= mid * 100000000
    lead = mid // 100000000
    mid -= lead * 100000000
    low_zero = low == 0
    text = np.empty((x.size, _FIELD // 4), np.uint32)
    heads = 100 * np.signbit(x) + 20 * j + 2 * lead + (low_zero & (mid == 0))
    text.view(np.uint64)[:, 0] = _HEADS.take(heads, mode="clip")
    word = mid // 10000
    mid -= word * 10000
    text[:, 2] = _WORDS.take(word + 10000 * (low_zero & (mid == 0)), mode="clip")
    text[:, 3] = _WORDS.take(mid + 10000 * low_zero, mode="clip")
    word = low // 10000
    low -= word * 10000
    text[:, 4] = _WORDS.take(word + 10000 * (low == 0), mode="clip")
    text[:, 5] = _WORDS.take(low + 10000, mode="clip")
    text = text.view(np.uint8)
    slow = np.flatnonzero(~exact)
    if slow.size:
        other = b"".join([(_NUMBER % v).encode().ljust(_FIELD) for v in x[slow].tolist()])
        text[slow] = np.frombuffer(other, np.uint8).reshape(-1, _FIELD)
    return text.reshape(np.shape(values) + (_FIELD,))


def _decimal_digits(a: np.ndarray):
    """(j, D, exact): |x| = a in decade k = j - 4 has the 17 digits of D if exact.

    For 1e-4 <= a < 10 the decade k = floor(log10 a) is estimated, and
    y + e = a 10^p, p = 16 - k, is formed exactly: y the rounded product and
    e its error from one Dekker two-product (Numer. Math. 18, 224 (1971)).
    When 1e16 < y < 9.99999999999999e16 the estimate was right and y is an
    even integer, so D = y + rint(e) is a 10^p rounded half to even to 17
    digits: the digits _NUMBER prints.  Any other a (zero, nan, inf, out of
    range) fails those bounds, and may leave garbage in j and D (the cast
    of nan, say), which is why every gather from the tables clips.
    """
    with np.errstate(all="ignore"):
        j = (np.log10(a) + 4.0).astype(np.intp)
        y = a * _SCALE.take(j, mode="clip")
        a_hi, a_lo = _halves(a)
        s_hi, s_lo = _SCALE_HI.take(j, mode="clip"), _SCALE_LO.take(j, mode="clip")
        e = a_hi * s_hi - y
        e += a_hi * s_lo
        e += a_lo * s_hi
        e += a_lo * s_lo
        exact = (y > 1e16) & (y < 9.99999999999999e16)
        d = y.astype(np.int64)
        d += np.rint(e).astype(np.int64)
    return j, d, exact


def _write_lines(write, fields: Sequence[np.ndarray]) -> None:
    """Pass `write` one CSV line per point of the 2-D grid `fields` broadcast to, row by row.

    The lines go out in blocks of at most _CSV_ROWS: whole rows if a row is
    that short, else parts of one row.  A field given as one row or one
    column (a map's detuning or area axis) is formatted for the part a
    block spans, and that text is kept while the next block spans the same
    part: a map's detunings are formatted once if its rows fit a block.
    """
    rows, cols = np.broadcast_shapes(*(a.shape for a in fields))
    width = min(cols, _CSV_ROWS)
    height = max(1, _CSV_ROWS // cols)
    kept = [(None, None)] * len(fields)
    for i in range(0, rows, height):
        for j in range(0, cols, width):
            for k, a in enumerate(fields):
                at = (i if a.shape[0] > 1 else 0, j if a.shape[1] > 1 else 0)
                if kept[k][0] != at:
                    kept[k] = None, None  # frees the old text before the new one is made
                    kept[k] = at, _number_fields(a[at[0]:at[0] + height, at[1]:at[1] + width])
            write(_joined_lines([text for _, text in kept]))


def _joined_lines(texts: Sequence[np.ndarray]) -> bytearray:
    """The CSV lines of fields given as broadcasting arrays of _number_fields texts.

    Each line is built as the fields in _FIELD bytes, each followed by its
    separator, and the padding of all lines is deleted at once.  A field
    is copied into its slot as one _FIELD-byte item, not byte by byte.
    """
    shape = np.broadcast_shapes(*(t.shape[:-1] for t in texts))
    buf = bytearray(math.prod(shape) * len(texts) * (_FIELD + 1))
    lines = np.frombuffer(buf, np.uint8).reshape(shape + (len(texts), _FIELD + 1))
    lines[..., _FIELD] = ord(",")
    lines[..., -1, _FIELD] = ord("\n")
    slots = lines[..., :_FIELD].view(_FIELD_ITEM)[..., 0]
    for k, text in enumerate(texts):
        slots[..., k] = text.view(_FIELD_ITEM)[..., 0]
    return buf.translate(None, b" ")


def infidelity(actual, target) -> float:
    """Frobenius distance between equal-size square matrices (no phase alignment)."""
    a = require_square(actual, "actual")
    b = require_square(target, "target")
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def bb_infidelity_analytic(hr_phase: float, area: float, n: int):
    """Resonant broadband composite-reflection infidelity: 2 sin(phi/2) cos^(2n)(A/2)."""
    if int(n) != n or n < 1:
        raise ValidationError("n must be a positive integer")
    return 2.0 * np.abs(np.sin(0.5 * hr_phase)) * np.cos(0.5 * np.asarray(area)) ** (2 * int(n))


def _areas(axis: ScanAxis) -> np.ndarray:
    """The values of an A/pi axis as areas in radians.

    Both ends times pi are checked in Python floats, which overflow to inf
    without the warning numpy would print.
    """
    if not (math.isfinite(float(axis.start) * math.pi)
            and math.isfinite(float(axis.stop) * math.pi)):
        raise ValidationError("area axis overflows when converted to radians")
    return axis.values() * math.pi


def _infidelity_map(family: PhaseList, hr_phase: float, system: NPodSystem, areas, dets,
                    substeps: int = DEFAULT_SUBSTEPS) -> np.ndarray:
    """Infidelity of the system's manifold block at every (area, detuning) pair.

    Each block of propagators the kernel yields for the gate
    (``composite._gate_blocks``) is reduced to its distances at once, so a
    block and the temporaries of its distances are all the scan holds
    besides its result.
    """
    n = system.n_states
    target = householder_matrix(HouseholderTarget(system.bright, hr_phase))
    seq = gate_sequence(family, 2.0 * hr_phase)
    values = np.empty((areas.size, dets.size))
    grid = np.broadcast_to(areas[:, None], values.shape)
    for rows, cols, u in _gate_blocks(system.bright, seq, grid, dets, system.shape, substeps):
        values[rows, cols] = np.linalg.norm(u[..., :n, :n] - target, axis=(-2, -1))
    return values


def scan_area(families: Sequence[PhaseList], hr_phase: float, grid: ScanGrid) -> ScanResult:
    """Resonant infidelity versus rms pulse area for each family (exact propagators)."""
    if grid.axis2 is not None:
        raise ValidationError("scan_area takes a one-dimensional grid")
    if grid.axis1.name != AXIS_AREA:
        raise ValidationError(f"scan_area needs a {AXIS_AREA} axis")
    if len(families) == 0:
        raise ValidationError("scan_area needs at least one family")
    areas = _areas(grid.axis1)
    values = np.stack([_infidelity_map(fam, hr_phase, _SHORTCUT, areas, np.zeros(1))[:, 0]
                       for fam in families])
    return ScanResult(grid=grid, labels=tuple(f.label for f in families), values=values)


def scan_2d(family: PhaseList, hr_phase: float, grid: ScanGrid, *,
            system: NPodSystem | None = None,
            substeps: int = DEFAULT_SUBSTEPS) -> ScanResult:
    """Infidelity over an (area, detuning) grid for one family.

    Without a system this propagates the two-level shortcut, the N = 1
    system.  A given system is propagated through all N+1 levels instead,
    with `substeps` slices per shaped pulse, which cross-checks the shortcut.
    """
    if grid.axis2 is None:
        raise ValidationError("scan_2d takes a two-dimensional grid")
    if grid.axis1.name != AXIS_AREA or grid.axis2.name != AXIS_DETUNING:
        raise ValidationError(f"scan_2d needs axes ({AXIS_AREA}, {AXIS_DETUNING})")
    values = _infidelity_map(family, hr_phase, _SHORTCUT if system is None else system,
                             _areas(grid.axis1), grid.axis2.values(), substeps)
    return ScanResult(grid=grid, labels=(family.label,), values=values)
