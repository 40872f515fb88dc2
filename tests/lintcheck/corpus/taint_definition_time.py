"""Corpus: entropy reaching stable_hash outside any statement of a body.

A lambda body runs later, and a decorator or a default argument runs
once, where its ``def`` stands.  None of them is a statement of the
enclosing body, yet each one here hashes the wall clock, so each must
fire ``entropy-taint``.  ``by_name`` must NOT fire.
"""

import time

from repro.flow.context import stable_hash


def register(key):
    def wrap(fn):
        return fn
    return wrap


def ordered(cells):
    # finding: time.time() in a lambda body
    return sorted(cells, key=lambda c: stable_hash((c, time.time())))


@register(stable_hash(("stamp", time.time())))  # finding: a decorator argument
def stamped(cell):
    return cell


def keyed(cell, key=stable_hash(time.time())):  # finding: a default argument
    return (cell, key)


def make_keyer():
    stamp = time.time()

    def keyer(cell, salt=stable_hash(stamp)):  # finding: the enclosing scope's clock
        return (cell, salt)
    return keyer


def by_name(cells):
    return sorted(cells, key=lambda c: stable_hash(c))  # ok: the parameter is clean
