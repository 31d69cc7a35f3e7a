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

For k <= 2 the stats path (``access_chunk``) replaces steps 3-6 with a
pass in set order, one sort per chunk:

3'. A head hits iff its line equals the head k places before it; equal
    lines share a set, so that needs no set check.  k = 1 prepends no
    residents: a set's first access hits iff it repeats the carried line.
4'. For k = 2 a residency is a run of equal lines along the chain of
    every other head, so one ``cumsum``/``maximum.accumulate`` per chain
    carries the dirty bit; for k = 1 a run of one line is a residency.
5'. The new state is the last k heads of each touched set.
6'. The cold-miss candidates are the sorted, distinct lines of the missed
    accesses: a line never seen before always misses.

Writes allocate; under write-through nothing is dirty and every write
is one writeback.  :class:`FastDirectMapped` and
:class:`FastSetAssociative` are names over that engine: each keeps its
own ``engine_label`` and ``access_chunk``.  The unlabelled base engine
records no metrics; the analytic predictor drives it through
:meth:`_StackDistanceLRU.attribute_chunk`, which keeps steps 3-6 at
every k: its ``evicted_by`` needs each miss's previous occurrence of
its line.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.instrument import record_chunk
from repro.cache.sim import ReferenceCache
from repro.cache.stats import CacheStats
from repro.errors import SimulationError
from repro.obs.runtime import is_enabled as _obs_enabled


def make_simulator(config: CacheConfig):
    """The fastest exact engine for a configuration.

    The vectorized engine serves every write-allocate cache, write-back
    or write-through; a write-no-allocate cache (a write miss bypasses
    the cache) falls back to the reference simulator.
    """
    if not config.write_allocate:
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


def _order_by_set(sets: np.ndarray, num_sets: int):
    """Stable order of set indices, and the indices in that order.

    Up to 65,536 sets the keys fit 16 bits, where numpy's stable argsort
    is a radix sort.
    """
    if num_sets <= 1 << 16:
        keys = sets.astype(np.uint16)
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    order = _stable_order(sets, 0, num_sets - 1)
    return order, sets[order]


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, sorted.

    A sort and a neighbour compare: recent numpy's ``np.unique`` hashes
    instead, several times slower on these arrays.
    """
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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


class Attribution(NamedTuple):
    """Where a chunk's misses came from, for the analytic predictor.

    Per access: the first touch of a line never seen before, and for a
    miss whose line's previous residency ended inside the chunk, the
    chunk position of its evictor (else -1).  Per residency that ended
    inside the chunk: the victim line and the chunk position of its
    evictor, grouped by set and in eviction order within a set.
    """

    first_touch: np.ndarray
    evicted_by: np.ndarray
    victims: np.ndarray
    evictors: np.ndarray


class _StackDistanceLRU:
    """Exact write-allocate k-way LRU over numpy chunks."""

    engine_label: Optional[str] = None  # of the ``repro_sim_*`` metrics

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

    def attribute_chunk(self, addresses, writes=None):
        """Simulate a nonempty chunk; returns its miss mask and
        :class:`Attribution`."""
        return self._simulate(addresses, writes, attribute=True)

    def _simulate(self, addresses, writes, attribute: bool = False):
        """Simulate a chunk; returns the per-access miss mask (and the
        chunk's :class:`Attribution` when ``attribute``)."""
        addrs, wr = _as_chunk(addresses, writes)
        n = len(addrs)
        if n == 0:
            return np.zeros(0, dtype=bool)
        t0 = time.perf_counter() if _obs_enabled() else None
        ways = self._ways
        lines = addrs >> self._line_shift
        sets = self._set_indices(lines)
        if ways <= 2 and not attribute:
            if ways == 1:
                misses = self._direct_pass(lines, sets, wr)
            else:
                misses = self._two_way_pass(lines, sets, wr)
            self._accumulate(wr, misses, _distinct_sorted(lines[misses]))
            self._record(t0, misses)
            return misses

        # 1-2. Run heads in set order, behind the carried residents.  A
        # carried dirty bit acts as a write that stats never see.
        # Write-through never dirties a line.
        touched, order, s_sets, hidx, h_lines = self._run_heads(lines, sets)
        m = len(touched) * ways
        h_count = len(hidx)
        s_dirty = np.concatenate(
            (self._dirty[touched].ravel(), wr & self.config.write_back)
        )[order]

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
        final_sets = s_sets[hidx[final]]
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
        firsts = by_line[first & real[by_line]]  # sorted by line
        new = self._accumulate(wr, misses, h_lines[firsts])
        self._record(t0, misses)
        if not attribute:
            return misses

        # Attribution.  ``at`` is each head's chunk position (negative for
        # carried residents).
        at = order[hidx] - m
        first_touch = np.zeros(n, dtype=bool)
        touch = at[firsts[new]]
        first_touch[touch[touch >= 0]] = True
        # Every miss evicts its set's LRU line, so a set's residencies end
        # in the order of their last heads: the i-th to end pairs with the
        # i-th miss, per set and so (sets being contiguous) chunk-wide.
        ended = np.zeros(h_count, dtype=bool)
        ended[by_line[ends]] = True
        ended[resident] = False
        ended = np.flatnonzero(ended)
        evictor = np.full(h_count, -1, dtype=np.int64)
        evictor[ended] = at[pos_miss & (at >= 0)]
        # A miss on a line with an earlier head in the chunk: that head's
        # residency ended inside the chunk, evicted by ``evictor``.
        again = start & ~first
        evicted_by = np.full(n, -1, dtype=np.int64)
        evicted_by[at[by_line[again]]] = evictor[prev[again]]
        victims = h_lines[ended]
        real_victim = victims >= _EMPTY_LINE + self._tags.size
        return misses, Attribution(
            first_touch, evicted_by,
            victims[real_victim], evictor[ended[real_victim]],
        )

    def _run_heads(self, lines, sets):
        """Steps 1-2: the touched sets, the stable order by set of their
        residents (first, LRU->MRU) and the chunk, the sets in that
        order, and the run heads' positions and lines."""
        touched_mask = np.zeros(self.config.num_sets, dtype=bool)
        touched_mask[sets] = True
        touched = np.flatnonzero(touched_mask)
        order, s_sets = _order_by_set(
            np.concatenate((np.repeat(touched, self._ways), sets)),
            self.config.num_sets,
        )
        s_lines = np.concatenate((self._tags[touched].ravel(), lines))[order]
        # A line determines its set, so lines alone compare.
        head = np.empty(len(order), dtype=bool)
        head[0] = True
        np.not_equal(s_lines[1:], s_lines[:-1], out=head[1:])
        hidx = np.flatnonzero(head)
        return touched, order, s_sets, hidx, s_lines[hidx]

    def _direct_pass(self, lines, sets, wr) -> np.ndarray:
        """k = 1 in set order: only a set's first access can hit a line
        it did not just touch, the line the set carried in."""
        n = len(lines)
        order, s_sets = _order_by_set(sets, self.config.num_sets)
        s_lines = lines[order]
        s_miss = np.empty(n, dtype=bool)
        s_miss[0] = True
        np.not_equal(s_lines[1:], s_lines[:-1], out=s_miss[1:])
        begin = np.empty(n, dtype=bool)
        begin[0] = True
        np.not_equal(s_sets[1:], s_sets[:-1], out=begin[1:])
        starts = np.flatnonzero(begin)
        touched = s_sets[starts].astype(np.intp)
        kept = s_lines[starts] == self._tags[touched, 0]
        if self.config.write_back:
            # A run of one line is one residency, except that a set's
            # first run continues the carried one when it hits.
            hidx = np.flatnonzero(s_miss)  # every run head, hits included
            run_dirty = np.maximum.reduceat(wr[order], hidx)
            first_run = np.searchsorted(hidx, starts)
            last_run = np.empty_like(first_run)
            last_run[:-1] = first_run[1:] - 1
            last_run[-1] = len(hidx) - 1
            carried = self._dirty[touched, 0]
            run_dirty[first_run] |= carried & kept
            new_dirty = run_dirty[last_run]
            self._dirty[touched, 0] = new_dirty
            self.stats.writebacks += (
                int(np.count_nonzero(run_dirty))
                - int(np.count_nonzero(new_dirty))
                + int(np.count_nonzero(carried & ~kept))
            )
        s_miss[starts[kept]] = False
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:] - 1
        ends[-1] = n - 1
        self._tags[touched, 0] = s_lines[ends]
        misses = np.empty(n, dtype=bool)
        misses[order] = s_miss
        return misses

    def _two_way_pass(self, lines, sets, wr) -> np.ndarray:
        """k = 2 in set order: a head hits iff it repeats the line two
        heads back (the two heads before it are the set's residents)."""
        touched, order, s_sets, hidx, h_lines = self._run_heads(lines, sets)
        h_count = len(hidx)
        # Equal lines share a set, so no set check; residents never hit.
        start = np.ones(h_count, dtype=bool)
        np.not_equal(h_lines[2:], h_lines[:-2], out=start[2:])
        # The last two heads of each set stay resident, LRU first.
        h_sets = s_sets[hidx]
        last = np.empty(h_count, dtype=bool)
        last[-1] = True
        np.not_equal(h_sets[1:], h_sets[:-1], out=last[:-1])
        last = np.flatnonzero(last)
        resident = np.stack((last - 1, last), axis=1)
        self._tags[touched] = h_lines[resident]
        if self.config.write_back:
            # A residency is a run of equal lines along a chain of every
            # other head.  Column c of a (pairs, 2) view is the chain from
            # head c (an odd count is padded with a start), so one
            # accumulate carries the dirty bit along both chains.
            s_dirty = np.concatenate((self._dirty[touched].ravel(), wr))[order]
            pairs = np.ones(h_count + (h_count & 1), dtype=bool)
            pairs[:h_count] = start
            mark = np.cumsum(pairs.reshape(-1, 2), axis=0) * 2
            mark.ravel()[:h_count] += np.maximum.reduceat(s_dirty, hidx)
            np.maximum.accumulate(mark, axis=0, out=mark)
            dirty = (mark.ravel()[:h_count] & 1) == 1
            ends = np.ones(h_count, dtype=bool)
            ends[:-2] = start[2:]
            new_dirty = dirty[resident]
            self._dirty[touched] = new_dirty
            self.stats.writebacks += int(np.count_nonzero(dirty & ends)) - int(
                np.count_nonzero(new_dirty)
            )
        s_miss = np.zeros(len(order), dtype=bool)
        s_miss[hidx] = start
        unsorted = np.empty(len(order), dtype=bool)
        unsorted[order] = s_miss
        return unsorted[2 * len(touched):]

    def _record(self, t0, misses) -> None:
        """The chunk's ``repro_sim_*`` metrics, if collecting and labelled."""
        if t0 is not None and self.engine_label:
            record_chunk(
                self.engine_label, len(misses), int(np.count_nonzero(misses)),
                time.perf_counter() - t0,
            )

    def _accumulate(self, wr, misses, fresh) -> np.ndarray:
        """Count the chunk; returns which ``fresh`` lines are new."""
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
        if not self.config.write_back:
            st.writebacks += num_writes  # write-through traffic
        # ``fresh`` is sorted and distinct; keep the lines not seen before.
        seen = self._seen
        at = np.searchsorted(seen, fresh)
        new = np.ones(len(fresh), dtype=bool)
        inside = at < len(seen)
        new[inside] = seen[at[inside]] != fresh[inside]
        if new.any():
            self._seen = np.insert(seen, at[new], fresh[new])
            st.cold_misses += int(np.count_nonzero(new))
        return new


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
