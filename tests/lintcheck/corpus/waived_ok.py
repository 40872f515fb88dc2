"""Corpus: the same violations, each silenced by an inline waiver.

This file must lint clean — it proves every rule honours
``# repro-lint: allow[rule-id]`` both on the offending line and on the
line above it.
"""

import random
from typing import List

from repro.flow.context import stable_hash
from repro.flow.stages import FlowStage


def waived_rng() -> float:
    return random.random()  # repro-lint: allow[unseeded-rng] demo waiver


def waived_entropy(config: object) -> str:
    # repro-lint: allow[entropy-taint] demo waiver on the line above
    return stable_hash((config, id(config)))


def waived_mutable(bucket: List[int] = []) -> List[int]:  # repro-lint: allow[mutable-default]
    return bucket


# repro-lint: allow[stage-contract] demo waiver
class WaivedStage(FlowStage):
    name = "waived"


def waived_both(bucket: List[int] = []) -> float:  # repro-lint: allow[mutable-default,unseeded-rng]
    return random.gauss(0.0, 1.0)  # repro-lint: allow[unseeded-rng]
