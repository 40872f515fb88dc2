"""Edge cases of the artifact-key hash.

``stable_hash`` is the foundation of the whole cache/resume machinery:
any input whose hash depends on insertion order, process identity, or
PYTHONHASHSEED silently poisons every artifact key derived from it.
These tests pin the invariants the lintcheck rules (unordered-iteration,
entropy-taint) exist to protect.
"""

import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.flow.context import stable_hash


class TestSetOrdering:
    def test_set_insertion_order_independent(self):
        a = set()
        for item in ["u1", "u2", "u3", "u4"]:
            a.add(item)
        b = set()
        for item in ["u4", "u2", "u1", "u3"]:
            b.add(item)
        assert stable_hash(a) == stable_hash(b)

    def test_frozenset_matches_equal_frozenset(self):
        assert stable_hash(frozenset({1, 2, 3})) == stable_hash(frozenset({3, 1, 2}))

    def test_set_of_tuples(self):
        a = {("g1", 1.0), ("g2", 2.0), ("g3", 3.0)}
        b = {("g3", 3.0), ("g1", 1.0), ("g2", 2.0)}
        assert stable_hash(a) == stable_hash(b)

    def test_distinct_sets_differ(self):
        assert stable_hash({1, 2, 3}) != stable_hash({1, 2, 4})


class TestDictOrdering:
    def test_key_insertion_order_independent(self):
        a = {"alpha": 1, "beta": 2, "gamma": 3}
        b = {"gamma": 3, "alpha": 1, "beta": 2}
        assert stable_hash(a) == stable_hash(b)

    def test_nested_mappings(self):
        a = {"outer": {"x": 1, "y": 2}, "other": {"z": 3}}
        b = {"other": {"z": 3}, "outer": {"y": 2, "x": 1}}
        assert stable_hash(a) == stable_hash(b)


@dataclass(frozen=True)
class _Inner:
    names: Tuple[str, ...] = ()
    weight: float = 1.0


@dataclass
class _Outer:
    inner: _Inner = field(default_factory=_Inner)
    tags: List[str] = field(default_factory=list)
    lookup: Dict[str, float] = field(default_factory=dict)
    members: FrozenSet[str] = frozenset()


class TestNestedDataclasses:
    def test_default_factory_defaults_are_stable(self):
        assert stable_hash(_Outer()) == stable_hash(_Outer())

    def test_nested_field_change_changes_hash(self):
        assert stable_hash(_Outer()) != stable_hash(
            _Outer(inner=_Inner(weight=2.0))
        )

    def test_set_valued_field_is_order_independent(self):
        a = _Outer(members=frozenset(["m1", "m2", "m3"]))
        b = _Outer(members=frozenset(["m3", "m2", "m1"]))
        assert stable_hash(a) == stable_hash(b)

    def test_equal_but_distinct_instances_collide(self):
        # Content addressing: identity must not leak into the key.
        a = _Outer(tags=["t"], lookup={"k": 1.0})
        b = _Outer(tags=["t"], lookup={"k": 1.0})
        assert a is not b
        assert stable_hash(a) == stable_hash(b)


class _AddressRepr:
    """Default repr: '<... object at 0x...>' — must be rejected."""


class TestAddressRejection:
    def test_default_repr_object_rejected(self):
        with pytest.raises(TypeError, match="address-bearing"):
            stable_hash(_AddressRepr())

    def test_rejected_even_when_nested(self):
        with pytest.raises(TypeError, match="address-bearing"):
            stable_hash({"config": (_AddressRepr(),)})

    def test_value_like_repr_accepted(self):
        class ValueRepr:
            def __repr__(self):
                return "ValueRepr(42)"

        assert stable_hash(ValueRepr()) == stable_hash(ValueRepr())


class TestCrossProcess:
    def test_hash_survives_pythonhashseed_changes(self):
        """The key must not depend on the interpreter's hash randomization
        (which reorders set/dict iteration between processes)."""
        snippet = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.flow.context import stable_hash\n"
            "value = {'modes': {'rule', 'model', 'selective', 'none'},\n"
            "         'knobs': {'period': 1000.0, 'paths': 5}}\n"
            "print(stable_hash(value))\n"
        )
        digests = set()
        for seed in ("0", "1", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                cwd=__file__.rsplit("/tests/", 1)[0],
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1
        assert stable_hash(
            {"modes": {"rule", "model", "selective", "none"},
             "knobs": {"period": 1000.0, "paths": 5}}
        ) in digests
