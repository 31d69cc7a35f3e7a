"""repro.jit — tracing JIT over the trace interpreter.

Hot perfect loop nests have closed-form address streams (gathers through
seeded index arrays included); this package compiles each into the
batched block generator of its normal form (:mod:`repro.ir.nest`) and
runs everything else through the exact interpreter
(:mod:`repro.jit.interp`).  The emitted stream — addresses,
write flags, and order — is byte-identical to interpretation by
construction, pinned by the differential fuzz battery in
``tests/test_jit_differential.py``.

Entry point: :func:`make_interpreter`, selected everywhere by the
``jit="on"/"off"/"auto"`` parameter (CLI ``--jit``).  See ``docs/JIT.md``.
"""

from repro.jit.interp import (
    DEOPT_REASONS,
    JIT_MODES,
    JitConfig,
    JitInterpreter,
    make_interpreter,
    resolve_mode,
)

__all__ = [
    "JIT_MODES",
    "DEOPT_REASONS",
    "JitConfig",
    "JitInterpreter",
    "make_interpreter",
    "resolve_mode",
]
