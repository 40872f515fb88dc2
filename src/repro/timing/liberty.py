"""Liberty-style timing library: NLDM lookup tables.

Times are picoseconds, capacitances femtofarads, resistances kilo-ohms
(kOhm x fF = ps).  Tables are indexed by (input slew, output load) with
bilinear interpolation and clamped extrapolation, exactly like the NLDM
tables production STA consumed in 2005.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.units import Femtofarads, Picoseconds

TRANSITIONS = ("rise", "fall")


@dataclass(frozen=True)
class TimingTable:
    """A 2-D (slew x load) lookup table."""

    slews: Tuple[float, ...]
    loads: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]  # values[i][j] at (slews[i], loads[j])

    def __post_init__(self) -> None:
        if not self.slews or not self.loads:
            raise ValueError("table axes must be non-empty")
        if list(self.slews) != sorted(self.slews) or list(self.loads) != sorted(self.loads):
            raise ValueError("table axes must be sorted ascending")
        if len(self.values) != len(self.slews):
            raise ValueError("row count must match slew axis")
        if any(len(row) != len(self.loads) for row in self.values):
            raise ValueError("column count must match load axis")

    def lookup(self, slew: Picoseconds, load: Femtofarads) -> Picoseconds:
        """Bilinear interpolation; clamps outside the table envelope."""
        i0, i1, ti = _bracket(self.slews, slew)
        j0, j1, tj = _bracket(self.loads, load)
        v = self.values
        bottom = v[i0][j0] * (1 - tj) + v[i0][j1] * tj
        top = v[i1][j0] * (1 - tj) + v[i1][j1] * tj
        return bottom * (1 - ti) + top * ti

    def scaled(self, factor: float) -> "TimingTable":
        """A copy with every value multiplied by ``factor`` (derating)."""
        return TimingTable(
            self.slews, self.loads,
            tuple(tuple(x * factor for x in row) for row in self.values),
        )


def _bracket(axis: Sequence[float], value: float) -> Tuple[int, int, float]:
    if value <= axis[0]:
        return 0, 0, 0.0
    if value >= axis[-1]:
        n = len(axis) - 1
        return n, n, 0.0
    hi = bisect.bisect_right(axis, value)
    lo = hi - 1
    t = (value - axis[lo]) / (axis[hi] - axis[lo])
    return lo, hi, t


@dataclass(frozen=True)
class TimingArc:
    """One input-to-output timing arc of a cell.

    ``sense`` is the arc unateness: "negative" (input rise -> output fall),
    "positive", or "non_unate" (both transitions propagate to both).
    """

    input_pin: str
    output_pin: str
    sense: str
    delay_rise: TimingTable   # output *rising* transition
    delay_fall: TimingTable
    slew_rise: TimingTable
    slew_fall: TimingTable

    def __post_init__(self) -> None:
        if self.sense not in ("positive", "negative", "non_unate"):
            raise ValueError(f"bad arc sense {self.sense!r}")

    def output_transitions(self, input_transition: str) -> List[str]:
        """Which output transitions an input transition triggers."""
        if self.sense == "positive":
            return [input_transition]
        if self.sense == "negative":
            return ["fall" if input_transition == "rise" else "rise"]
        return ["rise", "fall"]

    def tables_for(self, output_transition: str) -> Tuple[TimingTable, TimingTable]:
        if output_transition == "rise":
            return self.delay_rise, self.slew_rise
        return self.delay_fall, self.slew_fall


@dataclass
class LibertyCell:
    """Characterized timing view of one standard cell."""

    name: str
    input_caps: Dict[str, float]          # pin -> fF
    arcs: List[TimingArc] = field(default_factory=list)
    is_sequential: bool = False
    clock_pin: str = ""
    #: ps, clock-to-Q for sequential cells
    clk_to_q: Picoseconds = 0.0
    setup_time: Picoseconds = 0.0

    def arcs_from(self, pin: str) -> List[TimingArc]:
        return [arc for arc in self.arcs if arc.input_pin == pin]

    def capacitance(self, pin: str) -> Femtofarads:
        if pin not in self.input_caps:
            raise KeyError(f"cell {self.name} has no input pin {pin!r}")
        return self.input_caps[pin]


class LibertyLibrary:
    """A set of characterized cells."""

    def __init__(self, name: str = "repro_typ") -> None:
        self.name = name
        self.cells: Dict[str, LibertyCell] = {}

    def add(self, cell: LibertyCell) -> LibertyCell:
        if cell.name in self.cells:
            raise ValueError(f"cell {cell.name!r} already characterized")
        self.cells[cell.name] = cell
        return cell

    def __getitem__(self, name: str) -> LibertyCell:
        return self.cells[name]

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __len__(self) -> int:
        return len(self.cells)
