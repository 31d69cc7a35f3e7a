"""The tracing-JIT interpreter: interpret cold/ineligible code, compile
hot perfect nests, gathers included.

:class:`JitInterpreter` subclasses the exact trace interpreter and swaps
its body dispatcher: before interpreting a loop it consults a per-instance
cache of nest normal forms (:func:`~repro.ir.nest.normalize_nest` runs
once per loop node), binds the form against the enclosing environment and
— when the hotness policy agrees — streams the whole nest's address blocks
from :meth:`~repro.ir.nest.BoundNest.blocks` instead of walking it.  A
nest without a normal form falls back to the superclass machinery
*mid-trace*: the deopted level is interpreted in Python and each inner
sub-nest is reconsidered on its own, so the emitted stream is
byte-identical either way.  Gathers ``X(IDX(e))`` compile too: the
index data is seeded before the trace starts, so binding a nest reads it
and proves every gather in range; a nest it cannot prove deopts with
``gather_range`` and the interpreter reports the bad index itself.  A
deopted nest head is re-examined whenever its level is re-entered — a
triangular outer loop over a rectangular inner nest still compiles the
inner nest once per outer iteration.

The policy here is the JIT's own: the modes, the hotness threshold, and
the run-time deopt reasons ``gather_range`` and ``cold``.  The structural
preconditions and their reasons live in :mod:`repro.ir.nest`.

Form caches are keyed by loop-node identity and live exactly as long as
the interpreter.  That is deliberate: forms bake in one layout's bases and
strides, and programs share body subtrees across clones (e.g.
``truncate_outer_loops`` keeps the original inner loops), so a longer-lived
or shared cache could replay stale addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.ir.loops import BodyNode
from repro.ir.nest import (
    GATHER_RANGE, NEST_REASONS, BoundNest, NestForm, normalize_nest,
)
from repro.ir.program import Program
from repro.ir.stmts import Statement
from repro.layout.layout import MemoryLayout
from repro.obs import runtime as obs
from repro.trace.env import DataEnv
from repro.trace.interpreter import Chunk, TraceInterpreter

#: Why a nest fell back to the interpreter (``reason`` label on
#: ``repro_jit_deopt_total``): the static :data:`~repro.ir.nest.NEST_REASONS`
#: plus two issued at run time: ``gather_range`` when binding cannot prove
#: a gather in range, ``cold`` from the auto-mode hotness policy.
DEOPT_REASONS = NEST_REASONS + (GATHER_RANGE, "cold")

#: Accepted values of the ``--jit`` flag and every ``jit=`` parameter.
JIT_MODES = ("on", "off", "auto")


def resolve_mode(value) -> str:
    """Normalize a jit-mode value (``None``/bools accepted) or raise."""
    if value is None:
        return "auto"
    if value is True:
        return "on"
    if value is False:
        return "off"
    mode = str(value).lower()
    if mode not in JIT_MODES:
        raise ConfigError(
            f"unknown jit mode {value!r}; known: {', '.join(JIT_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class JitConfig:
    """Compilation policy.

    ``mode`` ``"on"`` compiles every eligible nest; ``"auto"`` compiles a
    nest once one invocation covers at least ``compile_threshold``
    accesses *or* the nest has been entered ``hot_invocations`` times
    (small nests inside hot outer loops earn compilation by repetition).
    ``"off"`` never reaches this class — :func:`make_interpreter` returns
    the plain interpreter for it.
    """

    mode: str = "auto"
    compile_threshold: int = 512
    hot_invocations: int = 8


class JitInterpreter(TraceInterpreter):
    """Trace interpreter with closed-form compilation of hot nests."""

    def __init__(
        self,
        prog: Program,
        layout: MemoryLayout,
        env: Optional[DataEnv] = None,
        chunk_target: int = 1 << 16,
        config: Optional[JitConfig] = None,
    ):
        super().__init__(prog, layout, env, chunk_target)
        self.config = config or JitConfig()
        if self.config.mode not in ("on", "auto"):
            raise ConfigError(
                f"JitInterpreter requires mode 'on' or 'auto', got "
                f"{self.config.mode!r}; use make_interpreter for 'off'"
            )
        # Both caches are keyed by loop-node id and scoped to this
        # interpreter (hence this layout) — see the module docstring.
        self._nest_forms: Dict[int, Union[NestForm, str]] = {}
        self._nest_entries: Dict[int, int] = {}

    # -- dispatch ---------------------------------------------------------

    def _run_body(
        self, body: Sequence[BodyNode], env: Dict[str, int]
    ) -> Iterator[Chunk]:
        for node in body:
            if isinstance(node, Statement):
                self._emit_statement_once(node, env)
                if self._pending_count >= self.chunk_target:
                    yield self._flush()
                continue
            bound = self._compiled_nest(node, env)
            if bound is not None:
                yield from self._emit_compiled(bound)
            elif node.is_innermost:
                self._emit_vector_loop(node, env)
                if self._pending_count >= self.chunk_target:
                    yield self._flush()
            else:
                # Deopt: interpret this level; _run_loop recurses back
                # through this dispatcher, so inner sub-nests still get
                # their own shot at compilation.
                yield from self._run_loop(node, env)

    def _compiled_nest(
        self, node, env: Mapping[str, int]
    ) -> Optional[BoundNest]:
        key = id(node)
        entry = self._nest_forms.get(key)
        if entry is None:
            entry = normalize_nest(node, self.prog, self.layout)
            self._nest_forms[key] = entry
        if isinstance(entry, str):
            self._count_deopt(entry)
            return None
        bound = entry.bind(env, self.env)
        if isinstance(bound, str):
            self._count_deopt(bound)
            return None
        if (
            self.config.mode == "auto"
            and bound.accesses < self.config.compile_threshold
        ):
            seen = self._nest_entries.get(key, 0) + 1
            self._nest_entries[key] = seen
            if seen < self.config.hot_invocations:
                self._count_deopt("cold")
                return None
        if obs.is_enabled():
            obs.counter_add(
                "repro_jit_compiled_total", 1,
                "loop-nest invocations served by compiled address generators",
            )
        return bound

    def _emit_compiled(self, bound: BoundNest) -> Iterator[Chunk]:
        enabled = obs.is_enabled()
        for addrs, writes in bound.blocks(self.chunk_target):
            self._push(addrs, writes)
            if enabled:
                obs.counter_add(
                    "repro_jit_chunks_total", 1,
                    "address blocks emitted by compiled nest generators",
                )
            if self._pending_count >= self.chunk_target:
                yield self._flush()

    @staticmethod
    def _count_deopt(reason: str) -> None:
        if obs.is_enabled():
            obs.counter_add(
                "repro_jit_deopt_total", 1,
                "nest invocations that fell back to the interpreter",
                reason=reason,
            )


def make_interpreter(
    prog: Program,
    layout: MemoryLayout,
    env: Optional[DataEnv] = None,
    chunk_target: int = 1 << 16,
    jit="auto",
    config: Optional[JitConfig] = None,
) -> TraceInterpreter:
    """Build the interpreter a jit mode asks for.

    ``"off"`` returns the plain :class:`TraceInterpreter` (guaranteed
    pre-JIT behavior, no jit counters); ``"on"``/``"auto"`` return a
    :class:`JitInterpreter` with the corresponding policy.
    """
    mode = resolve_mode(jit)
    if mode == "off":
        return TraceInterpreter(prog, layout, env, chunk_target)
    if config is None:
        config = JitConfig(mode=mode)
    elif config.mode != mode:
        from dataclasses import replace

        config = replace(config, mode=mode)
    return JitInterpreter(prog, layout, env, chunk_target, config=config)
