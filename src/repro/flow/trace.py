"""Structured observability for flow runs.

Every stage execution — live or served from the :class:`FlowContext`
cache — appends one :class:`StageRecord` to a :class:`FlowTrace`: wall
time, cache hit/miss, and stage-specific counters (tile counts, polygon
counts, gates measured).  The trace replaces the ad-hoc ``runtimes`` dict
of earlier versions (kept as a compatibility view) and serializes to JSON
for the CLI's ``--trace`` flag.

Records also carry their execution window (``t_start``/``t_end`` on a
shared monotonic clock), and :attr:`FlowTrace.deduped` counts settles
served by another run's in-flight computation — the counter that *proves*
work was shared rather than merely claimed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class StageRecord:
    """One stage execution inside one flow run."""

    name: str
    wall_s: float
    cache_hit: bool = False
    #: stage-specific integers/floats: tiles, polygons, gates, endpoints...
    #: (fault-tolerant dispatch adds worker_failures/retries/degraded here)
    counters: Dict[str, float] = field(default_factory=dict)
    #: which cache tier served a hit ("memory" | "disk"); None for live runs
    cache_source: Optional[str] = None
    #: execution window on a shared monotonic clock (both 0.0 when the
    #: caller didn't time the stage)
    t_start: float = 0.0
    t_end: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "cache_hit": self.cache_hit,
            "cache_source": self.cache_source,
            "counters": dict(self.counters),
            "t_start": self.t_start,
            "t_end": self.t_end,
        }


class FlowTrace:
    """Ordered record of the stages one flow run executed."""

    def __init__(self) -> None:
        self.records: List[StageRecord] = []

    def add(
        self,
        name: str,
        wall_s: float,
        cache_hit: bool = False,
        counters: Optional[Dict[str, float]] = None,
        cache_source: Optional[str] = None,
        t_start: float = 0.0,
        t_end: float = 0.0,
    ) -> StageRecord:
        record = StageRecord(name, wall_s, cache_hit, dict(counters or {}),
                             cache_source, t_start, t_end)
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[StageRecord]:
        return iter(self.records)

    def record_for(self, name: str) -> Optional[StageRecord]:
        """The most recent record of one stage (None if it never ran)."""
        for record in reversed(self.records):
            if record.name == name:
                return record
        return None

    # -- aggregate views ----------------------------------------------------

    def runtimes(self) -> Dict[str, float]:
        """Stage name -> total wall seconds (the legacy ``runtimes`` view)."""
        totals: Dict[str, float] = {}
        for record in self.records:
            totals[record.name] = totals.get(record.name, 0.0) + record.wall_s
        return totals

    def counter_total(self, name: str) -> float:
        """Sum of one counter across every stage record (0 if absent)."""
        return sum(r.counters.get(name, 0) for r in self.records)

    @property
    def quarantined_gates(self) -> int:
        """Gate instances quarantined to drawn CDs across all stages."""
        return int(self.counter_total("quarantined_gates"))

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.records if not r.cache_hit)

    @property
    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    @property
    def deduped(self) -> int:
        """Settles served by another request's in-flight computation."""
        return int(self.counter_total("deduped"))

    # -- serialization ------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "stages": [r.as_dict() for r in self.records],
            "total_wall_s": self.total_wall_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "deduped": self.deduped,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def write_json(self, path: str, indent: int = 2) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=indent))
            fh.write("\n")

    def summary(self) -> str:
        """Human-readable per-stage table."""
        lines = []
        for record in self.records:
            extras = ", ".join(f"{k}={v:g}" for k, v in sorted(record.counters.items()))
            hit = ""
            if record.cache_hit:
                tier = f":{record.cache_source}" if record.cache_source else ""
                hit = f" (cached{tier})"
            suffix = f" [{extras}]" if extras else ""
            lines.append(f"{record.name:<14} {record.wall_s:8.3f}s{hit}{suffix}")
        lines.append(
            f"{'total':<14} {self.total_wall_s:8.3f}s "
            f"({self.cache_hits} cached / {self.cache_misses} live)"
        )
        return "\n".join(lines)
