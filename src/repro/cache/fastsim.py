"""Fast cache engine for trace-volume simulation.

One exact, fully vectorized k-way LRU engine serves every associativity
(direct-mapped is k = 1).  It is chunk-oriented (the trace interpreter
produces numpy address chunks) and property-tested access-for-access
against :class:`repro.cache.sim.ReferenceCache`.  Per chunk:

1. Each touched set's resident lines are prepended as pseudo-accesses in
   LRU->MRU order, so the chunk sees the carried-in LRU stack.  Empty
   ways hold distinct sentinels no real access can produce.
2. The accesses are stable-sorted by set and run-length deduplicated:
   an access to the line its set touched last is a hit.  Only run
   *heads* go further.
3. One stable argsort of the heads by line finds each head's previous
   occurrence of its line (a line determines its set, also under an
   overridden ``_set_indices`` placement).
4. A head hits iff fewer than k distinct lines were touched in its set
   since that occurrence — its LRU stack distance (Mattson et al., IBM
   Systems Journal 1970).  Consecutive heads differ, so with ``gap``
   heads in between, ``gap < k`` decides every head for k <= 2; for
   k >= 3 only heads with ``gap >= k`` need a vectorized backward scan
   that counts distinct lines until it reaches k or the occurrence,
   jumping over repeated lines with a sparse table of range maxima.
5. A miss starts a residency of its line.  A ``maximum.accumulate`` over
   each same-line group carries the dirty bit through a residency, which
   gives the writebacks (dirty residencies not live at chunk end) and the
   new state: the last k distinct lines of each set.
6. Cold misses count distinct lines ever touched, kept in a sorted int64
   array and merged through ``searchsorted``.

:class:`FastDirectMapped` and :class:`FastSetAssociative` are names over
that engine: each keeps its own ``engine_label`` and ``access_chunk``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.instrument import record_chunk
from repro.cache.sim import ReferenceCache
from repro.cache.stats import CacheStats
from repro.errors import SimulationError
from repro.obs.runtime import is_enabled as _obs_enabled


def make_simulator(config: CacheConfig):
    """The fastest exact engine for a configuration.

    The vectorized engine assumes the paper's write-allocate/write-back
    policy (its transformations do too); exotic policies fall back to the
    reference simulator, which implements them exactly.
    """
    if not (config.write_allocate and config.write_back):
        return ReferenceCache(config)
    if config.is_direct_mapped:
        return FastDirectMapped(config)
    return FastSetAssociative(config)


#: Base of the empty-way sentinels: way ``i`` of the flattened
#: (sets x ways) table starts as ``_EMPTY_LINE + i``.  They must be
#: distinct and unattainable: -1 would be wrong, since traces over invalid
#: (out-of-bounds) subscripts reach negative addresses and line -1 is
#: attainable.  Lines of 2 or more bytes are all at least ``int64 min / 2``;
#: 1-byte lines would need an address within ``sets * ways`` of int64 min.
_EMPTY_LINE = np.iinfo(np.int64).min


def _as_chunk(addresses, writes):
    addrs = np.ascontiguousarray(addresses, dtype=np.int64)
    if writes is None:
        wr = np.zeros(addrs.shape, dtype=bool)
    else:
        wr = np.ascontiguousarray(writes, dtype=bool)
    if addrs.shape != wr.shape:
        raise SimulationError(
            f"address/write chunk shape mismatch: {addrs.shape} vs {wr.shape}"
        )
    return addrs, wr


def _stable_order(keys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Stable argsort of int64 ``keys`` in ``[lo, hi]``.

    Packs each key with its index into one int64 so a plain (SIMD) sort
    does the work; about 3x faster than ``argsort(kind="stable")``.
    """
    bits = len(keys).bit_length()
    if (hi - lo).bit_length() + bits > 62:
        return np.argsort(keys, kind="stable")
    packed = ((keys - lo) << bits) | np.arange(len(keys))
    packed.sort()
    return packed & ((1 << bits) - 1)


def _distinct_below(prev, pos, nxt, ways: int) -> np.ndarray:
    """Which heads see fewer than ``ways`` distinct lines since ``prev``.

    A head at ``q`` between ``prev`` and ``pos`` adds a distinct line iff
    its line's next occurrence is at or after ``pos``; the others repeat
    a line counted nearer ``pos``.  All heads scan back at once, and a
    sparse table of ``nxt`` range maxima jumps over each stretch of
    repeats, so a head needs at most ``ways - 2`` rounds of
    ``log2(pos - prev)`` steps however long its window.
    """
    # peaks[b][q] = max(nxt[max(0, q - 2**b + 1) : q + 1]).  A stretch
    # reaching ``prev`` holds nxt[prev] == pos, so no jump passes it.
    peaks = [nxt]
    span = int(np.max(pos - prev))
    while (1 << len(peaks)) < span:
        top, half = peaks[-1], 1 << (len(peaks) - 1)
        peak = top.copy()
        np.maximum(top[half:], top[:-half], out=peak[half:])
        peaks.append(peak)
    hit = np.zeros(len(pos), dtype=bool)
    idx = np.arange(len(pos))
    # Consecutive heads differ, so the two heads before ``pos`` are two
    # distinct lines; every head scanned here has more than two between.
    q = pos - 3
    for _ in range(2, ways):
        for level in range(int(np.max(q - prev)).bit_length() - 1, -1, -1):
            q = np.where(peaks[level][q] < pos, q - (1 << level), q)
        reached = q == prev
        hit[idx[reached]] = True
        keep = ~reached
        idx, pos, prev, q = idx[keep], pos[keep], prev[keep], q[keep] - 1
        if not len(idx):
            break
    return hit


class _StackDistanceLRU:
    """Exact write-allocate/write-back k-way LRU over numpy chunks."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._ways = config.associativity
        self.reset()

    def _set_indices(self, lines: np.ndarray) -> np.ndarray:
        """Map line addresses to set indices (modulo placement).

        Subclasses may override to model alternative placement functions
        (e.g. XOR-based hashing; see repro.extensions.xorcache).
        """
        return lines & self._set_mask

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.stats = CacheStats()
        sets, ways = self.config.num_sets, self._ways
        # Resident lines and dirty bits per set, LRU -> MRU.
        self._tags = (
            _EMPTY_LINE + np.arange(sets * ways, dtype=np.int64)
        ).reshape(sets, ways)
        self._dirty = np.zeros((sets, ways), dtype=bool)
        self._seen = np.zeros(0, dtype=np.int64)  # sorted distinct lines

    def access(self, address: int, is_write: bool = False) -> bool:
        """Single-access convenience entry point."""
        return bool(self.access_chunk([address], [is_write])[0])

    def access_stream(self, chunks) -> CacheStats:
        """Drain an iterable of (addresses, writes) chunks; returns stats.

        The batch entry point the trace interpreter and JIT feed: block
        generators hand whole ``chunk_target``-sized blocks straight in.
        """
        for addrs, writes in chunks:
            self.access_chunk(addrs, writes)
        return self.stats

    def _simulate(self, addresses, writes) -> np.ndarray:
        """Simulate a chunk; returns the per-access miss mask."""
        addrs, wr = _as_chunk(addresses, writes)
        n = len(addrs)
        if n == 0:
            return np.zeros(0, dtype=bool)
        t0 = time.perf_counter() if _obs_enabled() else None
        ways = self._ways
        lines = addrs >> self._line_shift
        sets = self._set_indices(lines)

        # 1. Touched sets' residents first; a carried dirty bit acts as a
        # write that stats never see.
        touched_mask = np.zeros(self.config.num_sets, dtype=bool)
        touched_mask[sets] = True
        touched = np.flatnonzero(touched_mask)
        m = len(touched) * ways
        all_sets = np.concatenate((np.repeat(touched, ways), sets))
        order = _stable_order(all_sets, 0, self._set_mask)
        s_lines = np.concatenate((self._tags[touched].ravel(), lines))[order]
        s_dirty = np.concatenate((self._dirty[touched].ravel(), wr))[order]

        # 2. Run heads (a line determines its set, so lines alone compare).
        head = np.empty(len(order), dtype=bool)
        head[0] = True
        np.not_equal(s_lines[1:], s_lines[:-1], out=head[1:])
        hidx = np.flatnonzero(head)
        h_lines = s_lines[hidx]
        h_count = len(hidx)

        # 3. Previous occurrence of each head's line; arrays from here on
        # are in line order, holding head positions.  Sentinels sort first
        # as one key; they are distinct, so they still form one-head groups.
        real = h_lines >= _EMPTY_LINE + self._tags.size
        lo = int(np.min(h_lines, where=real, initial=lines[0])) - 1
        by_line = _stable_order(
            np.maximum(h_lines, lo), lo, int(np.max(h_lines))
        )
        l_lines = h_lines[by_line]
        first = np.empty(h_count, dtype=bool)
        first[0] = True
        np.not_equal(l_lines[1:], l_lines[:-1], out=first[1:])
        last = np.empty(h_count, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        prev = np.empty(h_count, dtype=np.int64)
        prev[0] = -1
        prev[1:] = by_line[:-1]

        # 4. Stack-distance hit test.
        hit = ~first & (by_line - prev <= ways)
        if ways > 2:
            pending = np.flatnonzero(~first & ~hit)
            if len(pending):
                nxt = np.empty(h_count, dtype=np.int64)
                nxt[by_line] = np.where(last, h_count, np.roll(by_line, -1))
                hit[pending] = _distinct_below(
                    prev[pending], by_line[pending], nxt, ways
                )

        # 5. Residencies: a miss (or a carried resident) starts one; the
        # running dirty bit is read at each residency's last head.
        start = ~hit
        run_dirty = np.logical_or.reduceat(s_dirty, hidx)[by_line]
        dirty = np.maximum.accumulate(np.cumsum(start) * 2 + run_dirty) & 1 == 1
        ends = np.empty(h_count, dtype=bool)
        ends[-1] = True
        ends[:-1] = start[1:]
        pos_dirty = np.empty(h_count, dtype=bool)
        pos_dirty[by_line] = dirty
        # The last k distinct lines of each set stay resident (sentinels
        # guarantee every touched set has at least k).
        final = np.zeros(h_count, dtype=bool)
        final[by_line[last]] = True
        final = np.flatnonzero(final)
        final_sets = all_sets[order[hidx[final]]]
        in_last_k = np.ones(len(final), dtype=bool)
        in_last_k[:-ways] = final_sets[ways:] != final_sets[:-ways]
        resident = final[in_last_k]
        self._tags[touched] = h_lines[resident].reshape(-1, ways)
        new_dirty = pos_dirty[resident]
        self._dirty[touched] = new_dirty.reshape(-1, ways)
        self.stats.writebacks += int(np.count_nonzero(dirty & ends)) - int(
            np.count_nonzero(new_dirty)
        )

        # Map head misses back to the chunk's access order.
        pos_miss = np.empty(h_count, dtype=bool)
        pos_miss[by_line] = start
        s_miss = np.zeros(len(order), dtype=bool)
        s_miss[hidx] = pos_miss
        unsorted = np.empty(len(order), dtype=bool)
        unsorted[order] = s_miss
        misses = unsorted[m:]

        # 6. Cold misses: the chunk's distinct lines not seen before.
        fresh = l_lines[first & real[by_line]]
        self._accumulate(wr, misses, fresh)
        if t0 is not None:
            record_chunk(
                self.engine_label, n, int(np.count_nonzero(misses)),
                time.perf_counter() - t0,
            )
        return misses

    def _accumulate(self, wr, misses, fresh) -> None:
        st = self.stats
        n = len(wr)
        num_writes = int(np.count_nonzero(wr))
        num_misses = int(np.count_nonzero(misses))
        write_misses = int(np.count_nonzero(misses & wr))
        st.accesses += n
        st.writes += num_writes
        st.reads += n - num_writes
        st.misses += num_misses
        st.write_misses += write_misses
        st.read_misses += num_misses - write_misses
        # ``fresh`` is sorted and distinct; keep the lines not seen before.
        seen = self._seen
        at = np.searchsorted(seen, fresh)
        new = np.ones(len(fresh), dtype=bool)
        inside = at < len(seen)
        new[inside] = seen[at[inside]] != fresh[inside]
        if new.any():
            self._seen = np.insert(seen, at[new], fresh[new])
            st.cold_misses += int(np.count_nonzero(new))


class FastDirectMapped(_StackDistanceLRU):
    """The LRU engine at associativity 1."""

    engine_label = "fast_direct"

    def __init__(self, config: CacheConfig):
        if not config.is_direct_mapped:
            raise SimulationError("FastDirectMapped requires associativity 1")
        super().__init__(config)

    def access_chunk(
        self,
        addresses: Sequence[int],
        writes: Optional[Sequence[bool]] = None,
    ) -> np.ndarray:
        """Simulate a chunk; returns the per-access miss mask."""
        return self._simulate(addresses, writes)


class FastSetAssociative(_StackDistanceLRU):
    """The LRU engine for k-way caches."""

    engine_label = "fast_assoc"

    def access_chunk(
        self,
        addresses: Sequence[int],
        writes: Optional[Sequence[bool]] = None,
    ) -> np.ndarray:
        """Simulate a chunk; returns the per-access miss mask."""
        return self._simulate(addresses, writes)
