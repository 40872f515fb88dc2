"""Design-based metrology: printed gate-CD extraction and statistics."""

from repro.metrology.gate_cd import (
    GateCdMeasurement,
    MetrologyTileTask,
    measure_gate_cds,
    measurement_fault,
    measure_tile_chunk,
    plan_metrology_shards,
    plan_metrology_tiles,
    quarantine_measurements,
)
from repro.metrology.sites import MetrologySite, select_sites
from repro.metrology.statistics import CdStatistics, summarize_cds

__all__ = [
    "GateCdMeasurement",
    "MetrologyTileTask",
    "measure_gate_cds",
    "measurement_fault",
    "measure_tile_chunk",
    "plan_metrology_tiles",
    "plan_metrology_shards",
    "quarantine_measurements",
    "MetrologySite",
    "select_sites",
    "CdStatistics",
    "summarize_cds",
]
