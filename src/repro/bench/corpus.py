"""The seeded program corpus behind the differential batteries and gates.

One generator, :func:`random_case`, grows random loop nests under a
profile from :data:`PROFILES`:

* ``fuzz`` and ``slow`` span the JIT's program space: depths 1-4,
  triangular bounds, steps {1, 2, 3, -1}, statements above or below the
  inner loop, sibling loops, reads-only statements, ranks 1-3 with lower
  bounds {0, 1, 2}, four element types, sums of two variables and
  (with ``allow_indirect``) ``IDX(var)`` gathers.  The JIT battery
  (``tests/test_jit_*``) traces each case with and without the JIT; the
  predictor battery requires a match or an explicit bailout.  ``slow``
  grows sizes and trip counts for the ``pytest.mark.slow`` tail.
* ``affine`` is the analytic predictor's class: constant bounds, perfect
  nests and sequence loops over 2-3 sibling sub-nests, top-level
  statements, coefficients {1, 2, -1} with offsets -2..2, and array
  extents grown to keep every subscript in bounds.  Every case must be
  predicted byte-identically to :class:`repro.cache.sim.ReferenceCache`.

Every case carries a random cache geometry and write policy
(associativity 1, 2 or 4); the ``affine`` battery runs under it.

The fixed corpora are not random:

* :func:`perf_corpus` — deep nests with small innermost trips, where
  per-level Python dispatch dominates interpretation; the JIT's ≥5x gate
  (``scripts/bench_snapshot.py --compare``, ``benchmarks/bench_jit.py``)
  times both paths over it;
* :func:`eligible_corpus` — long streams and time-stepped stencils the
  predictor folds heavily; the tier-0 throughput gate
  (``scripts/bench_snapshot.py --compare --predict``) runs over it;
* :func:`bailout_case` — one unanalyzable feature per program, pinning
  the predictor's precondition report.

Every generator is driven only by ``random.Random`` seeded from its
arguments, so a seed fully determines a case across processes and
platforms.  A profile knob with a single option draws nothing, so a
profile pays no randomness for a choice it does not make.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.config import CacheConfig, base_cache
from repro.ir import builder as b
from repro.ir.arrays import ArrayDecl
from repro.ir.expr import AffineExpr, IndirectExpr
from repro.ir.loops import Loop
from repro.ir.program import Program
from repro.ir.refs import ArrayRef
from repro.ir.stmts import Statement
from repro.ir.types import ElementType
from repro.layout.layout import MemoryLayout, original_layout

_FUZZ = dict(
    # declarations, drawn up front
    arrays=(1, 2, 3),
    ranks=(1, 2, 3),
    extents=range(3, 10),
    lowers=(0, 1, 1, 1, 2),
    elements=(ElementType.REAL8, ElementType.REAL8, ElementType.REAL4,
              ElementType.INT4, ElementType.BYTE),
    # top level: how many items, nest depths, share of bare statements
    top=(1, 2),
    depths=(1, 2, 3, 4),
    top_statement=0.0,
    # loop headers
    trips=range(2, 7),
    starts=range(0, 4),
    steps=(1, 1, 1, 1, 2, 3, -1),
    triangular=0.15,
    # loop bodies above depth 1, cumulative roll thresholds: a perfect
    # chain, a statement above the inner loop, one below it, sibling
    # loops; past the last, the nest ends early in statements
    shapes=(0.55, 0.70, 0.80, 0.90),
    siblings=(2,),
    # subscripts, cumulative thresholds: a constant, one variable; past
    # the last, a sum of up to two variables
    subscripts=(0.2, 0.75),
    coefs=(1,),
    offsets=range(-1, 3),
    in_bounds=False,
    salt=0,
)

#: Profiles of :func:`random_case`.  ``fuzz`` keeps traces small enough
#: for hundreds of cases in tier-1 time, ``slow`` grows sizes and trip
#: counts, ``affine`` stays inside the analytic predictor's class.
PROFILES: Dict[str, dict] = {
    "fuzz": _FUZZ,
    "slow": dict(_FUZZ, extents=range(5, 25), trips=range(3, 13)),
    "affine": dict(
        _FUZZ,
        arrays=(1, 2, 3, 4),
        ranks=(1, 1, 2, 2, 3),
        extents=range(1, 5),
        lowers=(0,),
        elements=(ElementType.REAL4, ElementType.REAL8, ElementType.REAL8),
        top=(1, 2, 3),
        depths=(1, 2, 2, 3),
        top_statement=0.15,
        trips=range(2, 10),
        starts=range(0, 3),
        steps=(1, 1, 1, 2, -1),
        triangular=0.0,
        shapes=(0.7, 0.7, 0.7, 1.0),
        siblings=(2, 3),
        subscripts=(0.15, 1.0),
        coefs=(1, 1, 1, 2, -1),
        offsets=range(-2, 3),
        in_bounds=True,
        salt=7,
    ),
}

_BAILOUT_KINDS = ("triangular", "indirect", "imperfect", "symbolic")


@dataclass(frozen=True)
class Case:
    """One corpus entry: a program, its layouts and a cache to run it on.

    The fixed corpora carry no padded variant: their ``padded_layout``
    is ``layout``.  ``expect_reason`` is the predictor's first bailout
    reason for a :func:`bailout_case`, None elsewhere.
    """

    name: str
    seed: int
    prog: Program
    layout: MemoryLayout          # unpadded baseline placement
    padded_layout: MemoryLayout   # grown dims, re-placed bases with gaps
    cache: CacheConfig
    has_indirect: bool = False
    expect_reason: Optional[str] = None


def _pick(rng: random.Random, options: Sequence):
    return options[0] if len(options) == 1 else rng.choice(options)


def _chance(rng: random.Random, share: float) -> bool:
    return share > 0 and rng.random() < share


def _random_cache(rng: random.Random) -> CacheConfig:
    size = rng.choice((1024, 2048, 4096, 8192))
    line = rng.choice((16, 32, 64))
    assoc = rng.choice((1, 1, 2, 4))  # bias to the paper's direct-mapped
    return CacheConfig(
        size_bytes=size,
        line_bytes=line,
        associativity=assoc,
        write_allocate=rng.random() < 0.9,
        write_back=rng.random() < 0.8,
    )


class _NestBuilder:
    """Grows random loop nests; tracks scope and constant loop ranges."""

    def __init__(self, rng: random.Random, p: dict,
                 decls: List[ArrayDecl], allow_indirect: bool):
        self.rng = rng
        self.p = p
        self.decls = decls
        self.allow_indirect = allow_indirect
        self.extra_decls: List[ArrayDecl] = []
        self.has_indirect = False
        self._name_count = 0
        #: constant-bound loops currently in scope: var -> (lo, hi)
        self.const_ranges: Dict[str, Tuple[int, int]] = {}
        #: per array, per dimension: the subscript range seen so far
        self.spans: Dict[str, List[Tuple[int, int]]] = {
            decl.name: [(dim.lower, dim.upper) for dim in decl.dims]
            for decl in decls
        }

    def top_level(self):
        rng, p = self.rng, self.p
        if _chance(rng, p["top_statement"]):
            return self._statement()
        return self.build(_pick(rng, p["depths"]))

    def program_decls(self) -> List[ArrayDecl]:
        """The declarations, grown to cover every subscript if asked."""
        decls = self.decls
        if self.p["in_bounds"]:
            decls = [
                ArrayDecl(decl.name, self.spans[decl.name],
                          decl.element_type)
                for decl in decls
            ]
        return decls + self.extra_decls

    # -- loops ------------------------------------------------------------

    def build(self, depth: int) -> Loop:
        rng, p = self.rng, self.p
        var = "ijklmnpq"[self._name_count] if self._name_count < 8 \
            else f"v{self._name_count}"
        self._name_count += 1
        trips = rng.choice(p["trips"])
        scope = list(self.const_ranges)
        if scope and _chance(rng, p["triangular"]):
            # lower = outer + c with a constant trip count: bounded sizes,
            # but symbolic bounds for the normal form.
            outer = rng.choice(scope)
            lower = AffineExpr.var(outer, 1, rng.randint(0, 2))
            upper = lower + (trips - 1)
            step = 1
            const_range: Optional[Tuple[int, int]] = None
        else:
            step = rng.choice(p["steps"])
            start = rng.choice(p["starts"])
            if step > 0:
                lo, hi = start, start + (trips - 1) * step
                lower, upper = AffineExpr(lo), AffineExpr(hi)
            else:
                hi, lo = start + trips - 1, start
                lower, upper = AffineExpr(hi), AffineExpr(lo)
            const_range = (lo, hi)

        if const_range is not None:
            self.const_ranges[var] = const_range
        body = self._body(depth)
        self.const_ranges.pop(var, None)
        return Loop(var, lower, upper, body, step=step)

    def _body(self, depth: int) -> list:
        rng = self.rng
        if depth <= 1:
            return self._statements()
        chain, above, below, siblings = self.p["shapes"]
        roll = rng.random()
        if roll < chain:  # perfect chain
            return [self.build(depth - 1)]
        if roll < above:  # statement above the inner loop (imperfect)
            return [self._statement(), self.build(depth - 1)]
        if roll < below:  # statement below the inner loop (imperfect)
            return [self.build(depth - 1), self._statement()]
        if roll < siblings:  # sibling loops: a sequence loop
            count = _pick(rng, self.p["siblings"])
            return [self.build(depth - 1)] + [
                self.build(max(1, depth - 2)) for _ in range(count - 1)
            ]
        return self._statements()  # end the nest early

    # -- statements and references ----------------------------------------

    def _statements(self) -> list:
        return [self._statement()
                for _ in range(self.rng.randint(1, 2))]

    def _statement(self) -> Statement:
        rng = self.rng
        sources = [self._ref(False) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.1 and sources:
            return b.reads_only(*sources)
        return b.stmt(self._ref(True), *sources)

    def _ref(self, is_write: bool) -> ArrayRef:
        rng = self.rng
        decl = rng.choice(self.decls)
        scope = list(self.const_ranges)
        subs = [self._subscript(dim, scope) for dim in decl.dims]
        if self.allow_indirect and scope and rng.random() < 0.35:
            pos = rng.randrange(len(subs))
            subs[pos] = self._indirect(rng.choice(scope))
            self.has_indirect = True
        spans = self.spans[decl.name]
        for index, sub in enumerate(subs):
            if isinstance(sub, AffineExpr):
                lo, hi = self._range(sub)
                span_lo, span_hi = spans[index]
                spans[index] = (min(span_lo, lo), max(span_hi, hi))
        return ArrayRef(decl.name, tuple(subs), is_write=is_write)

    def _range(self, expr: AffineExpr) -> Tuple[int, int]:
        """Bounds of ``expr`` over the constant loop ranges in scope."""
        lo = hi = expr.const
        for var, coef in expr.coeffs.items():
            ends = [coef * end for end in self.const_ranges[var]]
            lo += min(ends)
            hi += max(ends)
        return lo, hi

    def _subscript(self, dim, scope) -> AffineExpr:
        rng, p = self.rng, self.p
        constant, single = p["subscripts"]
        roll = rng.random()
        if roll < constant or not scope:
            return AffineExpr(rng.randint(dim.lower, dim.upper))
        if roll < single:
            return AffineExpr.var(
                rng.choice(scope), _pick(rng, p["coefs"]),
                _pick(rng, p["offsets"]),
            )
        expr = AffineExpr(rng.randint(0, 2))
        for var in rng.sample(scope, rng.randint(1, min(2, len(scope)))):
            expr = expr + AffineExpr.var(var, rng.choice((-2, -1, 1, 2, 3)))
        return expr

    def _indirect(self, var: str) -> IndirectExpr:
        lo, hi = self.const_ranges[var]
        name = f"IDX{len(self.extra_decls)}"
        self.extra_decls.append(
            ArrayDecl(name, [(lo, hi)], ElementType.INT4)
        )
        return IndirectExpr(name, AffineExpr.var(var))


def random_case(
    seed: int, profile: str = "fuzz", allow_indirect: bool = False
) -> Case:
    """Deterministically generate one random case under ``profile``."""
    p = PROFILES[profile]
    rng = random.Random((seed + 1) * 0x9E3779B1 + p["salt"])
    decls = []
    for index in range(_pick(rng, p["arrays"])):
        dims = []
        for _ in range(_pick(rng, p["ranks"])):
            size = _pick(rng, p["extents"])
            lower = _pick(rng, p["lowers"])
            dims.append((lower, lower + size - 1))
        decls.append(ArrayDecl(
            chr(ord("A") + index), dims, _pick(rng, p["elements"])
        ))

    builder = _NestBuilder(rng, p, decls, allow_indirect)
    body = [builder.top_level() for _ in range(_pick(rng, p["top"]))]
    prog = b.program(
        f"{profile}_{seed}",
        decls=builder.program_decls(),
        body=body,
        suite="corpus",
    )
    return Case(
        name=prog.name,
        seed=seed,
        prog=prog,
        layout=original_layout(prog),
        padded_layout=padded_variant(prog, rng),
        cache=_random_cache(rng),
        has_indirect=builder.has_indirect,
    )


def padded_variant(prog: Program, rng: random.Random) -> MemoryLayout:
    """A layout with randomly grown dimensions and gapped base placement."""
    layout = MemoryLayout(prog)
    for decl in prog.arrays:
        sizes = [
            dim.size + rng.choice((0, 0, 1, 2, 5, 7)) for dim in decl.dims
        ]
        layout.set_dim_sizes(decl.name, sizes)
    cursor = rng.choice((0, 64, 128))
    for decl in prog.arrays:
        align = decl.element_type.size_bytes
        cursor = ((cursor + align - 1) // align) * align
        layout.set_base(decl.name, cursor)
        cursor += layout.size_bytes(decl.name) + rng.randint(0, 6) * align
    layout.validate()
    return layout


def _fixed_case(name: str, prog: Program, cache: CacheConfig, seed: int = 0,
                expect_reason: Optional[str] = None) -> Case:
    layout = original_layout(prog)
    return Case(name=name, seed=seed, prog=prog, layout=layout,
                padded_layout=layout, cache=cache,
                expect_reason=expect_reason)


def bailout_case(kind: str, seed: int = 0) -> Case:
    """An unanalyzable program whose first bailout has a known reason."""
    rng = random.Random(seed * 0x51ED2701 + 3)
    cache = _random_cache(rng)
    if kind == "triangular":
        prog = b.program(
            "tri",
            [b.real8("A", 12, 12)],
            [b.loop("i", 1, 10, [
                b.loop("j", "i", 10, [b.stmt(b.w("A", "j", "i"))]),
            ])],
        )
        reason = "symbolic_bounds"
    elif kind == "indirect":
        prog = b.program(
            "gather",
            [b.real8("X", 16), b.int4("IDX", 16)],
            [b.loop("i", 1, 16, [
                Statement([ArrayRef("X", [b.indirect("IDX", b.idx("i"))])]),
            ])],
        )
        reason = "indirect"
    elif kind == "imperfect":
        prog = b.program(
            "mixed",
            [b.real8("A", 16), b.real8("B", 16)],
            [b.loop("i", 1, 8, [
                b.stmt(b.w("A", "i")),
                b.loop("j", 1, 8, [b.stmt(b.w("B", "j"))]),
            ])],
        )
        reason = "imperfect"
    elif kind == "symbolic":
        # A bound over a variable no loop binds: the front end only emits
        # this for unresolved params, so build the IR without validation.
        prog = Program(
            "symbolic",
            [b.real8("A", 32)],
            [Loop("i", 1, AffineExpr.var("n"), [b.stmt(b.w("A", "i"))])],
        )
        reason = "symbolic_bounds"
    else:
        raise ValueError(f"unknown bailout kind {kind!r}; "
                         f"known: {_BAILOUT_KINDS}")
    return _fixed_case(f"bailout_{kind}", prog, cache, seed=seed,
                       expect_reason=reason)


# -- deterministic perf corpus ---------------------------------------------

def _perf_nest(name: str, trips: Tuple[int, ...], refs: int) -> Program:
    """A perfect rectangular nest: `refs` 2-D references, given trip counts.

    Deep nests with small innermost trips are the interpreter's worst case
    (one Python dispatch per non-innermost iteration) and the JIT's best:
    that contrast is what the ≥5x CI gate measures.
    """
    n = max(trips) + 2
    decls = [b.real8(chr(ord("A") + i), n, n) for i in range((refs + 1) // 2)]
    loop_vars = "ijkl"[: len(trips)]
    sources = []
    for index in range(refs - 1):
        decl = decls[index % len(decls)]
        sources.append(
            b.r(decl.name,
                b.idx(loop_vars[-1], index % 2),
                b.idx(loop_vars[0] if len(trips) > 1 else loop_vars[-1], 0))
        )
    body = [b.stmt(
        b.w(decls[0].name, b.idx(loop_vars[-1], 1), b.idx(loop_vars[0], 0)),
        *sources,
    )]
    for var, trip in zip(reversed(loop_vars), reversed(trips)):
        body = [b.loop(var, 1, trip, body)]
    return b.program(name, decls=decls, body=body, suite="jit-perf")


def perf_corpus() -> List[Tuple[Program, MemoryLayout]]:
    """The seeded benchmark corpus the BENCH_7 comparison runs over."""
    shapes = [
        ("perf_deep4_narrow", (24, 24, 24, 6), 5),
        ("perf_deep4_tiny", (16, 16, 16, 4), 4),
        ("perf_deep3_wide", (40, 40, 24), 5),
        ("perf_deep3_narrow", (64, 64, 6), 4),
        ("perf_deep2", (256, 96), 5),
    ]
    corpus = []
    for name, trips, refs in shapes:
        prog = _perf_nest(name, trips, refs)
        corpus.append((prog, original_layout(prog)))
    return corpus


# -- tier-0 throughput corpus ----------------------------------------------

_TRIAD_SRC = """program triad
  param N = {n}
  real*8 A(N), B(N), C(N)
  do i = 1, N
    A(i) = B(i) + C(i)
  end do
end
"""

_STEPPED_SRC = """program stepped
  param N = {n}
  param T = {t}
  real*8 A(N,N), B(N,N)
  do t = 1, T
    do i = 2, N-1
      do j = 2, N-1
        B(j,i) = 0.25 * (A(j-1,i) + A(j,i-1) + A(j+1,i) + A(j,i+1))
      end do
    end do
    do i = 2, N-1
      do j = 2, N-1
        A(j,i) = B(j,i)
      end do
    end do
  end do
end
"""

_SWEEP_SRC = """program sweep
  param N = {n}
  real*8 A(N), B(N), C(N), D(N)
  do i = 1, N
    A(i) = B(i) * C(i) + D(i)
  end do
  do i = 1, N
    D(i) = A(i) + B(i)
  end do
end
"""


def eligible_corpus() -> List[Case]:
    """Analytic-eligible simulate requests for the tier-0 throughput gate.

    Long affine streams and time-stepped stencils: the shapes the memo
    hierarchy's tier 0 exists for.  Every case folds heavily, so the
    predictor answers from a short replayed prefix while the simulator
    pays for the full trace.
    """
    from repro.frontend import parse_program

    def case(name: str, source: str, cache=None) -> Case:
        return _fixed_case(name, parse_program(source),
                           cache or base_cache())

    return [
        case("triad_4m", _TRIAD_SRC.format(n=1 << 22)),
        case("sweep_2m", _SWEEP_SRC.format(n=1 << 21)),
        case("stepped_64x1024", _STEPPED_SRC.format(n=64, t=1024)),
        case(
            "stepped_96x512_a2",
            _STEPPED_SRC.format(n=96, t=512),
            base_cache().with_associativity(2),
        ),
    ]
