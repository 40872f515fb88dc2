"""Corpus: random modules bound by plain assignment, not by import."""

import random

import numpy as np

alias = np.random
mod = random


def module_alias_numpy() -> float:
    return float(alias.normal())  # finding: hidden global state


def module_alias_random() -> float:
    return mod.gauss(0.0, 1.0)  # finding: hidden global state


def local_alias() -> float:
    r = np.random
    return float(r.uniform())  # finding: hidden global state


def local_alias_seedless() -> float:
    gen = mod.Random()  # finding: constructed without a seed
    return gen.random()


def seeded_generator_named_r(seed: int) -> float:
    r = np.random.default_rng(seed)  # ok: r is a seeded generator here
    return float(r.uniform())
