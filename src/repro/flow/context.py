"""Content-addressed artifact store shared between flow runs.

Each stage of the flow graph hashes the *slice* of the configuration that
can change its output (plus the keys of its upstream stages, Merkle
style) into an artifact key.  Two runs whose configs agree on a stage's
slice share that stage's artifacts: a ``selective``-mode run re-uses the
placement, drawn-STA and rule-OPC products of an earlier ``rule``-mode
run, and a process-corner sweep re-uses everything upstream of
lithography.

With a ``cache_dir`` the store is additionally **persistent**: every
artifact is pickled to one file under that directory, named by its stable
key, next to a sidecar file carrying the payload's SHA-256.  A later
process (or a later :class:`FlowContext` over the same directory) serves
those artifacts as *disk hits*; loads verify the sidecar hash and treat
corrupt or unreadable entries as misses — the damaged files are deleted
and the stage recomputes, the flow never crashes on a bad cache.  An
optional byte cap evicts the least-recently-used entries.

The context is **safe under concurrent access**: the flow service runs
many jobs on worker threads against one shared context at once.  One
mutex guards the memory tier and every counter, a second serializes disk
mutation against disk reads (so an eviction can never tear an entry out
from under a promote),
and :meth:`settle` gives each artifact key **single-flight** semantics:
concurrent requests for the same key block on a per-key lock and all but
the first are served the first's result — counted on :attr:`deduped`
instead of recomputed.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import threading
from contextlib import contextmanager

from repro.flow.chaos import FaultPlan
from dataclasses import dataclass, fields, is_dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

#: sentinel distinguishing "no entry" from a stored None
MISSING = object()

#: default reprs embed the object's address — hashing one would make the
#: "stable" key differ between two identical runs.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+")


def _feed(obj: Any, out: List[str]) -> None:
    """Append a canonical token stream for ``obj`` (order-stable)."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        out.append(f"{type(obj).__name__}:{obj!r}")
    elif is_dataclass(obj) and not isinstance(obj, type):
        out.append(f"@{type(obj).__qualname__}(")
        for f in fields(obj):
            out.append(f.name + "=")
            _feed(getattr(obj, f.name), out)
        out.append(")")
    elif isinstance(obj, (tuple, list)):
        out.append("[")
        for item in obj:
            _feed(item, out)
        out.append("]")
    elif isinstance(obj, Mapping):
        out.append("{")
        for key in sorted(obj, key=repr):
            _feed(key, out)
            out.append(":")
            _feed(obj[key], out)
        out.append("}")
    elif isinstance(obj, (set, frozenset)):
        out.append("<")
        for token in sorted(repr(item) for item in obj):
            out.append(token)
        out.append(">")
    else:
        # Fallback: the repr.  Only value-like reprs are trustworthy here;
        # an address-bearing default repr would silently poison every key
        # derived from it (and any persisted cache keyed by it), so it is
        # a hard error rather than a wrong answer.
        text = repr(obj)
        if _ADDRESS_REPR.search(text):
            raise TypeError(
                f"stable_hash: {type(obj).__qualname__} has an address-bearing "
                f"repr ({text[:80]!r}); give it a value-like repr or make it a "
                "dataclass before putting it in a config slice"
            )
        out.append(text)


def stable_hash(obj: Any) -> str:
    """Deterministic content hash of a (nested) config structure.

    Handles scalars, strings, tuples/lists, mappings, sets, and
    dataclasses recursively; stable across processes and sessions (no
    reliance on ``hash()``).  Objects that would fall back to an
    address-bearing default ``repr`` are rejected with :class:`TypeError`.
    """
    tokens: List[str] = []
    _feed(obj, tokens)
    digest = hashlib.sha256("\x1f".join(tokens).encode("utf-8", "replace"))
    return digest.hexdigest()[:20]


@dataclass(frozen=True)
class SettleOutcome:
    """How one :meth:`FlowContext.settle` request was satisfied.

    ``deduped`` is True when this request blocked on another request's
    in-flight computation of the same key and was then served its result
    — the single-flight path that turns N concurrent identical requests
    into one computation.
    """

    value: Any
    cache_hit: bool
    source: Optional[str]
    deduped: bool


class FlowContext:
    """Keyed artifact store with per-stage hit/miss accounting.

    One context can back many runs (and many :class:`PostOpcTimingFlow`
    objects — keys embed the flow's netlist/technology fingerprint, so
    different designs never collide), including *concurrent* runs: all
    tiers and counters are lock-protected, and :meth:`settle` provides
    single-flight per-key computation.

    ``cache_dir`` enables the persistent on-disk tier (one pickle + one
    hash sidecar per artifact); ``max_disk_bytes`` caps its total size
    with LRU eviction (file mtime is the recency clock — refreshed on
    every disk hit).
    """

    #: filename suffixes of the payload and its integrity sidecar
    DATA_SUFFIX = ".pkl"
    HASH_SUFFIX = ".sha256"

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_disk_bytes: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        #: deterministic fault injection for the chaos harness
        #: (:mod:`repro.flow.chaos`); None in production
        self.fault_plan = fault_plan
        self._artifacts: Dict[str, Any] = {}
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.cache_dir = cache_dir
        self.max_disk_bytes = max_disk_bytes
        #: where the most recent successful lookup was served from
        #: ("memory" | "disk" | None) — kept for single-threaded callers;
        #: concurrent callers must use :meth:`fetch`, which returns the
        #: source alongside the value instead of racing on this attribute.
        self.last_hit_source: Optional[str] = None
        #: memory-tier accounting (every fetch consults memory first)
        self.mem_lookups = 0
        self.mem_hits = 0
        self.mem_misses = 0
        #: disk-tier accounting
        self.disk_lookups = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_writes = 0
        self.disk_evictions = 0
        self.disk_corruptions = 0
        self.disk_write_errors = 0
        #: single-flight accounting: requests served by another request's
        #: in-flight computation instead of recomputing
        self.deduped = 0
        #: guards the memory tier, every counter, and the key-lock table
        self._lock = threading.RLock()
        #: serializes disk mutation (store/evict/drop) against disk loads,
        #: so eviction can never tear an entry out from under a reader
        self._disk_lock = threading.RLock()
        #: per-key single-flight locks with reference counts
        self._key_locks: Dict[str, Tuple[threading.Lock, List[int]]] = {}
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._artifacts)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._artifacts:
                return True
        return self.cache_dir is not None and os.path.exists(self._data_path(key))

    # -- persistent tier -----------------------------------------------------

    def _data_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, key + self.DATA_SUFFIX)

    def _hash_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, key + self.HASH_SUFFIX)

    def _drop_entry(self, key: str) -> None:
        with self._disk_lock:
            for path in (self._data_path(key), self._hash_path(key)):
                try:
                    os.remove(path)
                except OSError:
                    pass

    def _disk_load(self, key: str) -> Any:
        """Load + verify one entry; :data:`MISSING` on absence/corruption.

        Holds the disk lock for the whole read-verify sequence, so a
        concurrent eviction or re-write can never produce a torn
        payload/sidecar pair (which would count as a spurious corruption).
        """
        with self._disk_lock:
            data_path = self._data_path(key)
            try:
                with open(data_path, "rb") as fh:
                    payload = fh.read()
            except FileNotFoundError:
                return MISSING
            except OSError:
                self._count("disk_corruptions")
                self._drop_entry(key)
                return MISSING
            if (self.fault_plan is not None
                    and self.fault_plan.trigger("disk-read", key) is not None):
                # Chaos: flip bytes so the sidecar check below catches it —
                # the real corruption path, not a shortcut around it.
                payload = b"\x00chaos" + payload
            try:
                with open(self._hash_path(key), "r") as fh:
                    expected = fh.read().strip()
                if hashlib.sha256(payload).hexdigest() != expected:
                    raise ValueError("integrity hash mismatch")
                value = pickle.loads(payload)
            # repro-lint: allow[broad-except] cache-corruption tolerance: recompute, never crash
            except Exception:
                # Truncated pickle, missing/garbled sidecar, unpicklable
                # class... all are recoverable: drop the entry and let the
                # stage recompute.
                self._count("disk_corruptions")
                self._drop_entry(key)
                return MISSING
            try:
                os.utime(data_path)  # refresh the LRU clock
            except OSError:
                pass
            return value

    def _disk_store(self, key: str, value: Any) -> None:
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        # repro-lint: allow[broad-except] unpicklable artifact degrades to memory-only, never crashes
        except Exception:
            self._count("disk_write_errors")
            return
        digest = hashlib.sha256(payload).hexdigest()
        with self._disk_lock:
            data_path = self._data_path(key)
            hash_path = self._hash_path(key)
            try:
                if (self.fault_plan is not None
                        and self.fault_plan.trigger("disk-write", key)
                        is not None):
                    raise OSError("chaos: injected disk write failure")
                # Write via temp files + rename so a concurrent reader never
                # sees a half-written payload (it would be caught by the hash
                # check anyway, but would count as a spurious corruption).
                tmp = data_path + ".tmp"
                with open(tmp, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, data_path)
                tmp = hash_path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(digest + "\n")
                os.replace(tmp, hash_path)
            except OSError:
                self._count("disk_write_errors")
                self._drop_entry(key)
                return
            self._count("disk_writes")
            self._enforce_size_cap()

    def _disk_entries(self) -> List[Tuple[float, int, str]]:
        """(mtime, total bytes, key) per persisted entry, oldest first."""
        assert self.cache_dir is not None
        entries: List[Tuple[float, int, str]] = []
        for name in os.listdir(self.cache_dir):
            if not name.endswith(self.DATA_SUFFIX):
                continue
            key = name[: -len(self.DATA_SUFFIX)]
            try:
                stat = os.stat(self._data_path(key))
                size = stat.st_size
                try:
                    size += os.stat(self._hash_path(key)).st_size
                except OSError:
                    pass
                entries.append((stat.st_mtime, size, key))
            except OSError:
                continue
        entries.sort()
        return entries

    def _enforce_size_cap(self) -> None:
        if self.max_disk_bytes is None:
            return
        with self._disk_lock:
            entries = self._disk_entries()
            total = sum(size for _, size, _ in entries)
            # Evict least-recently-used first; the newest entry always
            # survives (evicting what was just written would make the
            # cache a no-op).
            index = 0
            while total > self.max_disk_bytes and index < len(entries) - 1:
                _, size, key = entries[index]
                self._drop_entry(key)
                self._count("disk_evictions")
                total -= size
                index += 1

    def flush(self) -> None:
        """Make the persistent tier durable before the process exits.

        Stores are write-through (every artifact hits disk at ``store``
        time), so this only fsyncs the cache directory entry — the
        renames of the atomic-write protocol survive power loss.  Called
        by the flow's graceful-interruption path; a no-op without a
        ``cache_dir``.
        """
        if self.cache_dir is None:
            return
        try:
            fd = os.open(self.cache_dir, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:
            pass

    def disk_usage(self) -> Tuple[int, int]:
        """(entry count, total bytes) of the persistent tier (0, 0 if off)."""
        if self.cache_dir is None:
            return (0, 0)
        with self._disk_lock:
            entries = self._disk_entries()
        return (len(entries), sum(size for _, size, _ in entries))

    # -- lookup / store ------------------------------------------------------

    def _count(self, counter: str, amount: int = 1) -> None:
        """Locked increment of one integer counter attribute."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def fetch(self, key: str) -> Tuple[Any, Optional[str]]:
        """(artifact, source tier) — (:data:`MISSING`, None) on a miss.

        The concurrency-safe primitive behind :meth:`lookup`: the tier
        the value came from is returned instead of being parked on the
        shared :attr:`last_hit_source` attribute.  Disk hits are promoted
        into memory atomically — a racing :meth:`store` of the same key
        wins and the promote keeps its value.
        """
        with self._lock:
            self.mem_lookups += 1
            if key in self._artifacts:
                self.mem_hits += 1
                self.last_hit_source = "memory"
                return self._artifacts[key], "memory"
            self.mem_misses += 1
        if self.cache_dir is not None:
            self._count("disk_lookups")
            value = self._disk_load(key)
            if value is not MISSING:
                with self._lock:
                    self.disk_hits += 1
                    # Atomic promote: never clobber a concurrent store.
                    value = self._artifacts.setdefault(key, value)
                    self.last_hit_source = "disk"
                return value, "disk"
            self._count("disk_misses")
        with self._lock:
            self.last_hit_source = None
        return MISSING, None

    def lookup(self, key: str) -> Any:
        """The stored artifact, or :data:`MISSING`.

        Checks the in-memory tier first, then (when ``cache_dir`` is set)
        the on-disk tier; disk hits are promoted into memory.
        :attr:`last_hit_source` records where the value came from — under
        concurrency prefer :meth:`fetch`, which returns the source.
        """
        value, _ = self.fetch(key)
        return value

    def store(self, key: str, value: Any) -> None:
        with self._lock:
            self._artifacts[key] = value
        if self.cache_dir is not None:
            self._disk_store(key, value)

    def count_hit(self, stage: str) -> None:
        with self._lock:
            self.hits[stage] = self.hits.get(stage, 0) + 1

    def count_miss(self, stage: str) -> None:
        with self._lock:
            self.misses[stage] = self.misses.get(stage, 0) + 1

    # -- single-flight -------------------------------------------------------

    def _acquire_key_ref(self, key: str) -> threading.Lock:
        with self._lock:
            entry = self._key_locks.get(key)
            if entry is None:
                entry = (threading.Lock(), [0])
                self._key_locks[key] = entry
            entry[1][0] += 1
            return entry[0]

    def _release_key_ref(self, key: str) -> None:
        with self._lock:
            entry = self._key_locks[key]
            entry[1][0] -= 1
            if entry[1][0] == 0:
                del self._key_locks[key]

    @contextmanager
    def single_flight(self, key: str) -> Iterator[bool]:
        """Hold ``key``'s per-key lock; yields True when the lock was
        contended (another request was in flight for the same key when
        this one arrived — the caller is about to be served its result).
        """
        lock = self._acquire_key_ref(key)
        contended = not lock.acquire(blocking=False)
        if contended:
            lock.acquire()
        try:
            yield contended
        finally:
            lock.release()
            self._release_key_ref(key)

    def settle(self, stage: str, key: str, compute: Callable[[], Any]) -> SettleOutcome:
        """Serve ``key`` from cache or compute-and-store it, exactly once.

        Concurrent ``settle`` calls for the same key form a single-flight
        group: one computes, the rest block on the per-key lock and are
        then served the cached result (``deduped=True``, counted on
        :attr:`deduped`).  Hit/miss accounting lands on ``stage`` exactly
        as the serial path records it.  If ``compute`` raises, nothing is
        stored and the next waiter gets its own chance to compute.
        """
        with self.single_flight(key) as contended:
            value, source = self.fetch(key)
            if value is not MISSING:
                self.count_hit(stage)
                if contended:
                    self._count("deduped")
                return SettleOutcome(value, True, source, contended)
            self.count_miss(stage)
            value = compute()
            self.store(key, value)
            return SettleOutcome(value, False, None, False)

    def memo(self, stage: str, key: str, compute: Callable[[], Any]) -> Any:
        """Compute-once helper for intra-stage shared work (e.g. the
        rule-OPC base mask shared by the rule/model/selective modes).
        Single-flight under concurrency: the rule base is computed once
        even when the rule, model and selective OPC stages run at the
        same time."""
        return self.settle(stage, key, compute).value

    # -- accounting ----------------------------------------------------------

    def consistency(self) -> List[str]:
        """Violated counter invariants (empty when the books balance).

        Meaningful at quiescence (no settle in flight): every lookup is
        either a memory hit or a memory miss, every memory miss consults
        the disk tier when one is configured, and every disk consult is
        either a hit or a miss.  A non-empty result means an unlocked
        increment raced — the accounting can no longer prove dedup/hit
        claims.
        """
        problems: List[str] = []
        with self._lock:
            if self.mem_lookups != self.mem_hits + self.mem_misses:
                problems.append(
                    f"memory tier: {self.mem_lookups} lookups != "
                    f"{self.mem_hits} hits + {self.mem_misses} misses"
                )
            if self.disk_lookups != self.disk_hits + self.disk_misses:
                problems.append(
                    f"disk tier: {self.disk_lookups} lookups != "
                    f"{self.disk_hits} hits + {self.disk_misses} misses"
                )
            if self.cache_dir is not None and self.disk_lookups != self.mem_misses:
                problems.append(
                    f"tier chain: {self.mem_misses} memory misses != "
                    f"{self.disk_lookups} disk lookups"
                )
        return problems

    def stats(self) -> Dict[str, object]:
        with self._lock:
            stages: Set[str] = set(self.hits) | set(self.misses)
            stage_stats = {
                name: {
                    "hits": self.hits.get(name, 0),
                    "misses": self.misses.get(name, 0),
                }
                for name in sorted(stages)
            }
            memory = {
                "lookups": self.mem_lookups,
                "hits": self.mem_hits,
                "misses": self.mem_misses,
                "entries": len(self._artifacts),
            }
            disk = {
                "enabled": self.cache_dir is not None,
                "lookups": self.disk_lookups,
                "hits": self.disk_hits,
                "misses": self.disk_misses,
                "writes": self.disk_writes,
                "evictions": self.disk_evictions,
                "corruptions": self.disk_corruptions,
                "write_errors": self.disk_write_errors,
            }
            deduped = self.deduped
        entries, total_bytes = self.disk_usage()
        disk["entries"] = entries
        disk["bytes"] = total_bytes
        return {
            "entries": memory["entries"],
            "stages": stage_stats,
            "memory": memory,
            "disk": disk,
            "deduped": deduped,
            "consistent": not self.consistency(),
        }

    def summary(self) -> str:
        parts = []
        stats = self.stats()
        stage_stats = stats["stages"]
        assert isinstance(stage_stats, dict)
        for name, counts in stage_stats.items():
            parts.append(f"{name} {counts['hits']}h/{counts['misses']}m")
        text = f"{stats['entries']} artifacts; " + ", ".join(parts)
        if stats["deduped"]:
            text += f"; {stats['deduped']} deduped in flight"
        if self.cache_dir is not None:
            disk = stats["disk"]
            assert isinstance(disk, dict)
            text += (
                f"; disk {disk['hits']}h/{disk['misses']}m"
                f" ({disk['entries']} files, {disk['bytes'] / 1e6:.1f} MB"
                f", {disk['evictions']} evicted"
                f", {disk['corruptions']} corrupt)"
            )
        return text
