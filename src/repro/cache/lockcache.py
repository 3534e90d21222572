"""The small fully-associative lock cache.

Section 4.3: lines that participate in a CBL lock queue must never be
replaced (replacement would sever the distributed list), and demanding a
fully-associative main cache is too expensive — so lock variables live in a
small dedicated fully-associative cache.  The paper treats its limited size
as a compile-time resource-management problem; we surface exhaustion as
:class:`LockCacheFullError` so tests and workloads can handle it explicitly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional

from ..sim.stats import StatSet
from .line import CacheLine
from .states import LockMode  # noqa: F401  (part of the public surface)

__all__ = ["LockCache", "LockCacheFullError"]


class LockCacheFullError(RuntimeError):
    """All lock-cache entries are pinned by held/waited locks."""


class LockCache:
    """Fully-associative cache for lock lines."""

    def __init__(self, capacity: int, words_per_block: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.words_per_block = words_per_block
        self._lines: Dict[int, CacheLine] = {}

    @cached_property
    def stats(self) -> StatSet:
        # Built on first use: most machines never touch their lock cache.
        return StatSet()

    def __len__(self) -> int:
        return len(self._lines)

    def lookup(self, block: int) -> Optional[CacheLine]:
        line = self._lines.get(block)
        if line is not None:
            self.stats.counters.add("hits")
        else:
            self.stats.counters.add("misses")
        return line

    def peek(self, block: int) -> Optional[CacheLine]:
        return self._lines.get(block)

    def allocate(self, block: int) -> CacheLine:
        """Get or create the line for ``block``.

        If the cache is full, evicts an unpinned line (one not currently in
        a lock queue); raises :class:`LockCacheFullError` if none exists.
        """
        line = self._lines.get(block)
        if line is not None:
            return line
        if len(self._lines) >= self.capacity:
            victim_block = None
            for b, l in self._lines.items():
                if not l.is_queue_member():
                    victim_block = b
                    break
            if victim_block is None:
                raise LockCacheFullError(
                    f"lock cache full: {self.capacity} lines all pinned"
                )
            del self._lines[victim_block]
            self.stats.counters.add("evictions")
        line = CacheLine(self.words_per_block)
        line.block = block
        self._lines[block] = line
        return line

    def release(self, block: int) -> None:
        """Drop the line for ``block`` (after the lock is fully released)."""
        self._lines.pop(block, None)

    def held_locks(self) -> List[int]:
        """Blocks whose lock field says we hold the lock."""
        return [b for b, l in self._lines.items() if l.lock.is_held]

    def waiting_locks(self) -> List[int]:
        return [b for b, l in self._lines.items() if l.lock.is_waiting]
