"""Cache configurations.

The paper's base configuration is a 16K direct-mapped cache with 32-byte
lines (SHADE simulation of a SPARC-like machine); experiments vary the size
(2K/4K/8K/16K), the associativity (1/2/4/16-way) and, for heuristic
parameters, the minimum separation M.  A "16-way associative cache is
simulated in place of a fully-associative cache" — :func:`fully_associative`
mirrors that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, UsageError


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level.

    Write policy is write-allocate/write-back, as assumed by the paper
    ("our transformations assume a write-allocating/write-back cache, so
    any two accesses may conflict, whether write or read").
    """

    size_bytes: int
    line_bytes: int = 32
    associativity: int = 1
    write_allocate: bool = True
    write_back: bool = True

    def __post_init__(self):
        if not _is_pow2(self.size_bytes):
            raise ConfigError(f"cache size must be a power of two, got {self.size_bytes}")
        if not _is_pow2(self.line_bytes):
            raise ConfigError(f"line size must be a power of two, got {self.line_bytes}")
        if self.line_bytes > self.size_bytes:
            raise ConfigError(
                f"line size {self.line_bytes} exceeds cache size {self.size_bytes}"
            )
        if self.associativity < 1:
            raise ConfigError(
                f"associativity must be at least 1, got {self.associativity}"
            )
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ConfigError(
                f"cache of {self.size_bytes}B cannot be divided into "
                f"{self.associativity}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_lines // self.associativity

    @property
    def is_direct_mapped(self) -> bool:
        """True for a 1-way cache."""
        return self.associativity == 1

    @property
    def is_fully_associative(self) -> bool:
        """True when there is a single set."""
        return self.num_sets == 1

    def with_associativity(self, ways: int) -> "CacheConfig":
        """Same size and line size, different associativity."""
        return CacheConfig(
            self.size_bytes,
            self.line_bytes,
            ways,
            self.write_allocate,
            self.write_back,
        )

    def with_size(self, size_bytes: int) -> "CacheConfig":
        """Same line size and associativity, different capacity."""
        return CacheConfig(
            size_bytes,
            self.line_bytes,
            self.associativity,
            self.write_allocate,
            self.write_back,
        )

    def describe(self) -> str:
        """Short human-readable label, e.g. ``16K DM 32B``."""
        size = (
            f"{self.size_bytes // 1024}K" if self.size_bytes % 1024 == 0 else f"{self.size_bytes}B"
        )
        assoc = "DM" if self.is_direct_mapped else f"{self.associativity}-way"
        if self.is_fully_associative:
            assoc = "FA"
        return f"{size} {assoc} {self.line_bytes}B"


def parse_byte_size(value, field_name: str) -> int:
    """Parse 16384, "16K" or "1M" into bytes; UsageError otherwise.

    The one byte-size parser behind CLI flags (``field_name`` is the
    flag), HTTP request fields and campaign specs.
    """
    if isinstance(value, bool):
        raise UsageError(f"{field_name}: expected a byte size, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip().upper()
        factor = 1
        if text.endswith("K"):
            factor, text = 1024, text[:-1]
        elif text.endswith("M"):
            factor, text = 1024 * 1024, text[:-1]
        try:
            return int(text) * factor
        except ValueError:
            pass
    raise UsageError(
        f"{field_name}: expected a byte size like 16384, '16K' or '1M', "
        f"got {value!r}"
    )


def base_cache() -> CacheConfig:
    """The paper's base configuration: 16K direct-mapped, 32B lines."""
    return CacheConfig(size_bytes=16 * 1024, line_bytes=32, associativity=1)


def direct_mapped(size_bytes: int, line_bytes: int = 32) -> CacheConfig:
    """A direct-mapped cache of the given size."""
    return CacheConfig(size_bytes=size_bytes, line_bytes=line_bytes, associativity=1)


def set_associative(size_bytes: int, ways: int, line_bytes: int = 32) -> CacheConfig:
    """A k-way set-associative cache."""
    return CacheConfig(size_bytes=size_bytes, line_bytes=line_bytes, associativity=ways)


def fully_associative(size_bytes: int, line_bytes: int = 32) -> CacheConfig:
    """A fully associative cache (one set)."""
    ways = size_bytes // line_bytes
    return CacheConfig(size_bytes=size_bytes, line_bytes=line_bytes, associativity=ways)


PAPER_CACHE_SIZES = (2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024)
"""Cache sizes swept in Figures 11, 12 and 14."""

PAPER_ASSOCIATIVITIES = (1, 2, 4, 16)
"""Associativities appearing in Figures 9, 10 and 16."""
