"""Differential tests: fast engines vs the reference simulator.

Seeded randomized traces (uniform, conflict-stride, hot-set, and mixed
patterns) are pushed through :func:`make_simulator` and
:class:`ReferenceCache` across a grid of cache sizes, associativities,
line sizes and write policies.  Every pair must produce

* identical :class:`CacheStats`,
* identical per-access miss masks, and
* identical ``repro_sim_*`` metric counts (the engines instrument their
  chunks through the same :func:`record_chunk` choke point, so a metric
  divergence means an engine lied about its work), and
* on write-allocate caches, the engine's :class:`Attribution` (first
  touches, and each eviction's victim and evicting access, which the
  analytic predictor reads) equal to what diffing the reference cache's
  resident lines around every access shows.

The grid yields well over the required 200 trace/config pairs.  Targeted
traces pin the engine's edge cases on top: 8/16-way multi-set caches,
negative addresses, same-line runs split by a chunk boundary, XOR
placement, and long two-line alternations that make the k >= 3
stack-distance scan walk its longest windows.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.fastsim import (
    FastDirectMapped,
    FastSetAssociative,
    make_simulator,
)
from repro.cache.sim import ReferenceCache
from repro.extensions.xorcache import (
    XorDirectMapped,
    XorSetAssociative,
    make_xor_simulator,
)
from repro.obs import runtime as obs

PAIRS_PER_CONFIG = 8
TRACE_LENGTH = 1500
CHUNK = 700  # deliberately not a divisor: exercises ragged final chunks

CONFIGS = [
    CacheConfig(size, line, assoc)
    for size in (256, 1024, 4096)
    for line in (4, 16, 32)
    for assoc in (1, 2, 4)
    if line * assoc <= size
] + [
    CacheConfig(1024, 16, 1, write_allocate=False),
    CacheConfig(1024, 16, 1, write_back=False),
    CacheConfig(1024, 16, 2, write_back=False),
    CacheConfig(4096, 32, 4, write_back=False),
    CacheConfig(1024, 16, 2, write_allocate=False, write_back=False),
    CacheConfig(512, 32, 16),  # a single 16-way set: fully associative
    CacheConfig(4096, 16, 8),  # 32 sets of 8 ways
    CacheConfig(4096, 16, 16),  # 16 sets of 16 ways
]


def _config_id(config: CacheConfig) -> str:
    return (
        f"{config.size_bytes}B-l{config.line_bytes}-a{config.associativity}"
        f"{'' if config.write_allocate else '-noalloc'}"
        f"{'' if config.write_back else '-wt'}"
    )


def make_trace(rng: np.random.Generator, config: CacheConfig, length: int):
    """A random trace built from 2-4 segments of distinct access patterns."""
    segments = []
    remaining = length
    while remaining > 0:
        n = int(min(remaining, rng.integers(100, 600)))
        kind = int(rng.integers(0, 4))
        if kind == 0:  # uniform over a region a few cache sizes wide
            region = config.size_bytes * int(rng.integers(2, 6))
            addrs = rng.integers(0, region, size=n)
        elif kind == 1:  # pathological stride: every access maps to one set
            base = int(rng.integers(0, config.size_bytes))
            addrs = base + np.arange(n) * config.size_bytes
        elif kind == 2:  # hot working set smaller than the cache
            hot = rng.integers(0, config.size_bytes // 2, size=16)
            addrs = rng.choice(hot, size=n)
        else:  # interleaved strided arrays (the paper's conflict shape)
            stride = int(config.line_bytes * rng.integers(1, 8))
            a = np.arange(n) * stride
            b = a + config.size_bytes * int(rng.integers(1, 3))
            addrs = np.where(np.arange(n) % 2 == 0, a, b)
        segments.append(addrs)
        remaining -= n
    addresses = np.concatenate(segments).astype(np.int64)
    writes = rng.random(len(addresses)) < 0.3
    return addresses, writes


def _edges(addresses, bounds):
    if bounds is None:
        bounds = range(CHUNK, len(addresses), CHUNK)
    return [0, *bounds, len(addresses)]


def _run(sim, addresses, writes, bounds=None):
    """Feed a trace in chunks: every CHUNK accesses, or at ``bounds``."""
    edges = _edges(addresses, bounds)
    masks = [
        sim.access_chunk(addresses[lo:hi], writes[lo:hi])
        for lo, hi in zip(edges, edges[1:])
    ]
    return np.concatenate(masks)


def _reference_attribution(config, addresses, writes, bounds):
    """Per chunk: first touches, per-miss evictor of the line's previous
    residency, and (evicting position, victim) pairs, read off a
    ReferenceCache by diffing its resident lines around each access."""
    ref = ReferenceCache(config)
    seen = set()
    edges = _edges(addresses, bounds)
    out = []
    for lo, hi in zip(edges, edges[1:]):
        first = np.zeros(hi - lo, dtype=bool)
        evicted_by = np.full(hi - lo, -1)
        evictions = []
        last_evictor = {}  # line -> position that last evicted it
        for pos in range(lo, hi):
            line = int(addresses[pos]) // config.line_bytes
            before = ref.resident_lines()
            if ref.access(int(addresses[pos]), bool(writes[pos])):
                evicted_by[pos - lo] = last_evictor.get(line, -1)
            for victim in before - ref.resident_lines():
                evictions.append((pos - lo, victim))
                last_evictor[victim] = pos - lo
            first[pos - lo] = line not in seen
            seen.add(line)
        out.append((first, evicted_by, evictions))
    return out


def assert_attribution_matches(engine, config, addresses, writes, context,
                               bounds=None, relabel=None):
    """``engine.attribute_chunk`` agrees with the reference, chunk by chunk.

    ``relabel`` maps the engine's line addresses to the reference's (the
    XOR engines' placement expressed as modulo placement).
    """
    ref_addresses = addresses if relabel is None else relabel(addresses)
    expected = _reference_attribution(config, ref_addresses, writes, bounds)
    edges = _edges(addresses, bounds)
    for (lo, hi), (first, evicted_by, evictions) in zip(
        zip(edges, edges[1:]), expected
    ):
        _, got = engine.attribute_chunk(addresses[lo:hi], writes[lo:hi])
        victims = got.victims
        if relabel is not None:
            victims = relabel(victims * config.line_bytes) // config.line_bytes
        assert np.array_equal(got.first_touch, first), context
        assert np.array_equal(got.evicted_by, evicted_by), context
        pairs = sorted(zip(got.evictors.tolist(), victims.tolist()))
        assert pairs == evictions, context
        # eviction order holds within each line
        for line in set(victims.tolist()):
            at = got.evictors[victims == line]
            assert np.all(np.diff(at) > 0), context


def _sim_counter(name: str, engine: str) -> float:
    inst = obs.registry().get(name, engine=engine)
    return inst.value if inst is not None else 0.0


@pytest.fixture(autouse=True)
def clean_runtime():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def assert_matches_reference(fast, config, addresses, writes, context,
                             bounds=None, relabel=None):
    """``fast`` and a ReferenceCache agree on masks, stats and metrics,
    and a fresh engine of the same kind on attribution.

    ``relabel`` feeds the reference a relabelled trace (the XOR engines'
    placement expressed as modulo placement).
    """
    obs.reset()
    obs.enable()
    reference = ReferenceCache(config)
    fast_mask = _run(fast, addresses, writes, bounds)
    ref_mask = _run(
        reference,
        addresses if relabel is None else relabel(addresses),
        writes, bounds,
    )
    obs.disable()
    if config.write_allocate:
        assert_attribution_matches(
            type(fast)(config), config, addresses, writes, context,
            bounds, relabel,
        )

    assert fast.stats == reference.stats, context
    assert np.array_equal(fast_mask, ref_mask), context

    label = fast.engine_label
    if label == "reference":
        # Write-no-allocate caches fall back to the reference engine,
        # so both simulators record under the same label.
        assert _sim_counter("repro_sim_accesses_total", label) == (
            2 * len(addresses)
        ), context
        assert _sim_counter("repro_sim_misses_total", label) == (
            2 * fast.stats.misses
        ), context
    else:
        for metric in (
            "repro_sim_accesses_total",
            "repro_sim_misses_total",
            "repro_sim_hits_total",
            "repro_sim_chunks_total",
        ):
            assert _sim_counter(metric, label) == _sim_counter(
                metric, "reference"
            ), f"{metric} diverged: {context}"
        assert _sim_counter("repro_sim_accesses_total", label) == len(addresses)
        assert _sim_counter("repro_sim_misses_total", label) == fast.stats.misses
    return fast_mask


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_fast_engine_matches_reference(config):
    for pair in range(PAIRS_PER_CONFIG):
        # str hashes are salted per process; crc32 keeps seeds reproducible
        seed = zlib.crc32(f"{_config_id(config)}/{pair}".encode())
        rng = np.random.default_rng(seed)
        addresses, writes = make_trace(rng, config, TRACE_LENGTH)
        context = f"config={_config_id(config)} seed={seed}"
        assert_matches_reference(
            make_simulator(config), config, addresses, writes, context
        )


EDGE_CONFIGS = [
    CacheConfig(1024, 16, 1),
    CacheConfig(1024, 16, 2),
    CacheConfig(2048, 16, 4),
    CacheConfig(4096, 16, 8),
    CacheConfig(4096, 32, 16),
]


@pytest.mark.parametrize("config", EDGE_CONFIGS, ids=_config_id)
def test_negative_addresses(config):
    """Out-of-bounds subscripts reach negative addresses; lines -1, -2,
    ... are real lines and must not alias an empty way."""
    for pair in range(4):
        seed = zlib.crc32(f"negative/{_config_id(config)}/{pair}".encode())
        rng = np.random.default_rng(seed)
        addresses, writes = make_trace(rng, config, TRACE_LENGTH)
        addresses = addresses - 3 * config.size_bytes
        assert addresses.min() < 0
        assert_matches_reference(
            make_simulator(config), config, addresses, writes,
            f"config={_config_id(config)} seed={seed}",
        )


@pytest.mark.parametrize("config", EDGE_CONFIGS, ids=_config_id)
def test_chunk_boundary_splits_a_run(config):
    """A same-line run cut by a chunk boundary and written on both sides
    is one residency: evicting it costs one writeback (twice here)."""
    line = config.line_bytes
    stride = config.num_sets * line  # same set, next line
    run = np.arange(8) * (line // 8 or 1)  # eight accesses to line 0
    evict = np.arange(1, config.associativity + 2) * stride
    addresses = np.concatenate((run, evict, run, evict)).astype(np.int64)
    writes = np.zeros(len(addresses), dtype=bool)
    writes[[2, 6]] = True  # one write before the cut, one after
    second = len(run) + len(evict)
    writes[[second + 1, second + 7]] = True
    bounds = [4, second + 5]
    fast = make_simulator(config)
    assert_matches_reference(
        fast, config, addresses, writes, _config_id(config), bounds=bounds
    )
    assert fast.stats.writebacks == 2


@pytest.mark.parametrize("config", EDGE_CONFIGS[2:], ids=_config_id)
@pytest.mark.parametrize("length", [64, 5000])
def test_long_alternation_then_older_line(config, length):
    """k >= 3 worst case for the stack-distance scan: a long two-line
    alternation separates each return to older lines, so every return
    looks back across the whole alternation to find few distinct lines."""
    ways = config.associativity
    stride = config.num_sets * config.line_bytes
    older = np.arange(ways) * stride  # fill every way of set 0
    pair = (ways + np.arange(length) % 2) * stride
    chunk = np.concatenate((older, pair, older[::-1], pair, older))
    other_set = chunk + config.line_bytes  # the same shape in set 1
    addresses = np.concatenate((chunk, other_set, chunk)).astype(np.int64)
    writes = (np.arange(len(addresses)) % 5) == 0
    mask = assert_matches_reference(
        make_simulator(config), config, addresses, writes,
        _config_id(config),
        bounds=[len(chunk), 2 * len(chunk) + length // 2],
    )
    # the newest older line survives the alternation: a hit found only by
    # scanning back across all of it
    assert not mask[ways + length]
    assert not mask[len(chunk) + ways + length]


def _xor_lines_as_modulo(config, addresses):
    """Relabel addresses so modulo placement lands where XOR placement
    does: keep each line's bits above the set index, replace the index
    with the XOR-folded one.  A bijection on lines, so a ReferenceCache
    fed the result is an XOR-placement reference."""
    line_bytes = config.line_bytes
    lines, offsets = np.divmod(addresses, line_bytes)
    mask = config.num_sets - 1
    bits = max(1, config.num_sets.bit_length() - 1)
    folded = (lines ^ (lines >> bits)) & mask
    return ((lines & ~mask) | folded) * line_bytes + offsets


@pytest.mark.parametrize("config", EDGE_CONFIGS, ids=_config_id)
def test_xor_engines_match_reference(config):
    for pair in range(4):
        seed = zlib.crc32(f"xor/{_config_id(config)}/{pair}".encode())
        rng = np.random.default_rng(seed)
        addresses, writes = make_trace(rng, config, TRACE_LENGTH)
        addresses = addresses - config.size_bytes  # some negative lines
        assert_matches_reference(
            make_xor_simulator(config), config, addresses, writes,
            f"config={_config_id(config)} seed={seed}",
            relabel=lambda addrs: _xor_lines_as_modulo(config, addrs),
        )


def test_xor_engines_agree_at_one_way():
    """At k = 1 the k-way XOR engine is the direct-mapped one."""
    config = CacheConfig(1024, 16, 1)
    rng = np.random.default_rng(11)
    addresses, writes = make_trace(rng, config, TRACE_LENGTH)
    direct = XorDirectMapped(config)
    assoc = XorSetAssociative(config)
    assert np.array_equal(
        _run(direct, addresses, writes), _run(assoc, addresses, writes)
    )
    assert direct.stats == assoc.stats


def test_grid_covers_at_least_200_pairs():
    assert len(CONFIGS) * PAIRS_PER_CONFIG >= 200


def test_engine_selection_matches_labels():
    direct = make_simulator(CacheConfig(1024, 16, 1))
    assoc = make_simulator(CacheConfig(1024, 16, 4))
    assert isinstance(direct, FastDirectMapped)
    assert direct.engine_label == "fast_direct"
    assert isinstance(assoc, FastSetAssociative)
    assert assoc.engine_label == "fast_assoc"
    assert ReferenceCache(CacheConfig(1024, 16, 1)).engine_label == "reference"


def test_metrics_disabled_costs_no_instruments():
    """With collection off, a simulation registers nothing at all."""
    config = CacheConfig(1024, 16, 1)
    rng = np.random.default_rng(7)
    addresses, writes = make_trace(rng, config, 500)
    _run(make_simulator(config), addresses, writes)
    _run(ReferenceCache(config), addresses, writes)
    assert len(obs.registry()) == 0


# -- the set-order pass (k <= 2) ----------------------------------------------
#
# ``access_chunk`` decides direct-mapped and 2-way hits in set order;
# ``attribute_chunk`` (and every k >= 3) keeps the line-sort path.  Both
# must leave the same state behind, and both must be the reference cache.

SET_ORDER_CONFIGS = [
    CacheConfig(1024, 16, ways, write_back=write_back)
    for ways in (1, 2)
    for write_back in (True, False)
]


def _engine_state(engine):
    """Per set, the resident (line, dirty) pairs LRU first, no empty ways."""
    real = engine._tags >= np.iinfo(np.int64).min + engine._tags.size
    return [
        list(zip(tags[keep].tolist(), dirty[keep].tolist()))
        for tags, dirty, keep in zip(engine._tags, engine._dirty, real)
    ]


def _reference_state(reference):
    return [[(line.tag, line.dirty) for line in ways]
            for ways in reference._sets]


def assert_set_order_exact(make, config, addresses, writes, bounds=None,
                           relabel=None):
    """The stats path against the line-sort path and a ReferenceCache,
    chunk by chunk: miss masks, then stats and the final state.

    ``relabel`` feeds the reference the trace with XOR placement written
    as modulo placement; its lines then differ, so the state check
    compares the two engine paths only.
    """
    fast, line = make(config), make(config)
    reference = ReferenceCache(config)
    ref_addresses = addresses if relabel is None else relabel(addresses)
    edges = _edges(addresses, bounds)
    for lo, hi in zip(edges, edges[1:]):
        got = fast.access_chunk(addresses[lo:hi], writes[lo:hi])
        want, _ = line.attribute_chunk(addresses[lo:hi], writes[lo:hi])
        assert np.array_equal(got, want), (lo, hi)
        assert np.array_equal(
            got, reference.access_chunk(ref_addresses[lo:hi], writes[lo:hi])
        ), (lo, hi)
    assert fast.stats == line.stats == reference.stats
    assert np.array_equal(fast._tags, line._tags)
    assert np.array_equal(fast._dirty, line._dirty)
    assert np.array_equal(fast._seen, line._seen)
    if relabel is None:
        assert _engine_state(fast) == _reference_state(reference)
        assert fast._seen.tolist() == sorted(reference._seen_lines)
    return fast


@pytest.mark.parametrize("config", SET_ORDER_CONFIGS, ids=_config_id)
def test_set_order_every_chunk_split(config):
    rng = np.random.default_rng(zlib.crc32(_config_id(config).encode()))
    addresses, writes = make_trace(rng, config, 400)
    for chunk in range(1, 51):
        assert_set_order_exact(
            make_simulator, config, addresses, writes,
            bounds=range(chunk, len(addresses), chunk),
        )


@pytest.mark.parametrize("config", SET_ORDER_CONFIGS, ids=_config_id)
def test_set_order_run_across_a_chunk_boundary(config):
    """A written run cut by every chunk boundary, then evicted."""
    stride = config.num_sets * config.line_bytes  # same set, next line
    run = np.zeros(6, dtype=np.int64)  # six accesses to line 0
    evict = np.arange(1, config.associativity + 2) * stride
    addresses = np.concatenate((run, evict, run, evict))
    writes = np.zeros(len(addresses), dtype=bool)
    writes[[1, 4, len(run) + len(evict) + 2]] = True
    for cut in range(1, len(addresses)):
        fast = assert_set_order_exact(
            make_simulator, config, addresses, writes, bounds=[cut],
        )
        assert fast.stats.writebacks == (
            2 if config.write_back else int(np.count_nonzero(writes))
        )


@pytest.mark.parametrize("config", SET_ORDER_CONFIGS, ids=_config_id)
def test_set_order_lines_next_to_the_empty_way_sentinels(config):
    """Lines near int64 min (and -1, -2, ...) sort right above the
    sentinels that mark empty ways; none of them may pass for one."""
    lowest = np.iinfo(np.int64).min
    stride = config.num_sets * config.line_bytes
    near = lowest + np.arange(3 * config.associativity) * stride
    small = -np.arange(1, 4) * config.line_bytes
    rng = np.random.default_rng(5)
    pool = np.concatenate((near, near + config.line_bytes, small))
    addresses = rng.choice(pool, size=600)
    writes = rng.random(600) < 0.4
    assert_set_order_exact(make_simulator, config, addresses, writes,
                           bounds=range(37, 600, 37))


@pytest.mark.parametrize("config", SET_ORDER_CONFIGS, ids=_config_id)
def test_set_order_chunk_touching_every_set(config):
    capacity = config.num_sets * config.associativity
    sweep = np.arange(2 * capacity) * config.line_bytes
    addresses = np.concatenate((sweep, sweep[::-1], sweep)).astype(np.int64)
    writes = np.arange(len(addresses)) % 3 == 0
    assert_set_order_exact(make_simulator, config, addresses, writes,
                           bounds=[len(sweep), 2 * len(sweep) + 5])


@pytest.mark.parametrize("config", SET_ORDER_CONFIGS, ids=_config_id)
def test_set_order_xor_placement(config):
    rng = np.random.default_rng(zlib.crc32(f"xor/{_config_id(config)}".encode()))
    addresses, writes = make_trace(rng, config, TRACE_LENGTH)
    addresses = addresses - config.size_bytes  # some negative lines
    assert_set_order_exact(
        make_xor_simulator, config, addresses, writes,
        relabel=lambda addrs: _xor_lines_as_modulo(config, addrs),
    )


@pytest.mark.parametrize("sets", [1 << 16, 1 << 17])
@pytest.mark.parametrize("ways", [1, 2])
def test_set_order_beyond_16_bit_set_indices(sets, ways):
    """Up to 65,536 sets the set sort is a 16-bit radix sort; more sets
    take the packed-key sort."""
    config = CacheConfig(sets * ways * 4, 4, ways)
    rng = np.random.default_rng(sets + ways)
    addresses, writes = make_trace(rng, config, TRACE_LENGTH)
    top = (sets - 1) * 4  # the highest set index, beside set 0
    addresses = np.concatenate((addresses, [top, 0, top, top + sets * 4]))
    writes = np.concatenate((writes, [True, False, True, False]))
    assert_set_order_exact(make_simulator, config, addresses, writes)
