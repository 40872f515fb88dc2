"""Corpus: entropy returned through recursive helpers into stable_hash.

``walk`` calls itself and ``_ping``/``_pong`` call each other; both carry
``time.time()`` back to their caller.  The taint summaries of recursive
functions must converge (a chain never repeats a function), and each
finding names the shortest chain.
"""

import time

from repro.flow.context import stable_hash


def walk(depth: int, acc: float) -> float:
    if depth <= 0:
        return time.time()  # the entropy source, at the bottom of the recursion
    return walk(depth - 1, acc)


def _ping(depth: int) -> float:
    if depth <= 0:
        return time.time()
    return _pong(depth - 1)


def _pong(depth: int) -> float:
    return _ping(depth)


def recursive_key(config: object) -> str:
    # finding: time.time() -> walk -> stable_hash() argument
    return stable_hash((config, walk(3, 0.0)))


def mutual_key(config: object) -> str:
    # finding: time.time() -> _ping -> stable_hash() argument
    return stable_hash((config, _ping(2)))
