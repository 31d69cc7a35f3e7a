"""The JIT and the analytic predictor agree on the affine-nest normal form.

Both consume :func:`repro.ir.nest.normalize_nest`; each adds only its own
policy.  Over every top-level loop of the ``fuzz`` and ``affine``
profiles of :mod:`repro.bench.corpus` and the four bailout kinds, each
wrapped in a program of its own:

1. when all of a loop's bounds are constant, it has a normal form
   without gathers iff the predictor classifies its program as exactly
   one nest unit with no bailout, and a loop with a normal form has
   gathers iff the predictor bails out with ``indirect`` (folding needs
   translation invariance, which gathered addresses lack);
2. a structural reason other than ``imperfect`` (which the predictor can
   answer as a sequence loop) is among the predictor's bailout reasons.

The one loop the constant-bounds condition excludes is the ``symbolic``
bailout case, ``do i = 1, n`` with ``n`` unbound: the JIT compiles it
against a bound ``n``, the predictor refuses it.
"""

import pytest

from repro.analysis.predict import _NestUnit, classify_program
from repro.bench.corpus import bailout_case, random_case
from repro.ir.loops import Loop
from repro.ir.nest import NEST_REASONS, NestForm, normalize_nest
from repro.ir.program import Program
from repro.layout.layout import original_layout

pytestmark = [pytest.mark.jit, pytest.mark.predict]

SEEDS = range(400)
BAILOUT_KINDS = ("triangular", "indirect", "imperfect", "symbolic")


def _programs():
    for seed in SEEDS:
        yield random_case(seed, allow_indirect=seed % 2 == 0).prog
    for seed in SEEDS:
        yield random_case(seed, "affine").prog
    for kind in BAILOUT_KINDS:
        yield bailout_case(kind).prog


def _wrapped_loops():
    """(name, loop, program holding only that loop, its layout)."""
    for prog in _programs():
        loops = [node for node in prog.body if isinstance(node, Loop)]
        for index, loop in enumerate(loops):
            alone = Program(f"{prog.name}_loop{index}", prog.decls, [loop])
            yield alone.name, loop, alone, original_layout(alone)


def _constant_bounds(loop: Loop) -> bool:
    return all(
        level.lower.is_constant and level.upper.is_constant
        for level in (loop, *loop.inner_loops())
    )


def _verdicts():
    out = []
    for name, loop, prog, layout in _wrapped_loops():
        form = normalize_nest(loop, prog, layout)
        units, _, bailouts = classify_program(prog, layout)
        out.append((name, loop, form, units, bailouts))
    return out


VERDICTS = _verdicts()


def test_every_corpus_loop_is_checked():
    assert len(VERDICTS) == 1275
    reasons = {form for _, _, form, _, _ in VERDICTS if isinstance(form, str)}
    assert reasons <= set(NEST_REASONS)
    assert {"imperfect", "symbolic_bounds"} <= reasons
    assert "indirect" not in reasons
    forms = [form for _, _, form, _, _ in VERDICTS
             if isinstance(form, NestForm)]
    assert any(form.gathers for form in forms)
    assert any(not form.gathers for form in forms)


def test_normal_form_iff_one_nest_unit_under_constant_bounds():
    for name, loop, form, units, bailouts in VERDICTS:
        if not _constant_bounds(loop):
            continue
        one_nest = (
            not bailouts
            and units is not None
            and len(units) == 1
            and isinstance(units[0], _NestUnit)
        )
        plain = isinstance(form, NestForm) and not form.gathers
        assert plain == one_nest, (name, form, bailouts)
        if isinstance(form, NestForm):
            indirect = "indirect" in {b.reason for b in bailouts}
            assert bool(form.gathers) == indirect, (name, bailouts)


def test_structural_reasons_reach_the_predictor():
    for name, loop, form, units, bailouts in VERDICTS:
        if form in ("indirect", "shadowed", "symbolic_bounds"):
            assert form in {b.reason for b in bailouts}, (name, bailouts)


def test_symbolic_case_is_the_only_constant_bounds_exclusion():
    excluded = [
        name for name, loop, form, units, bailouts in VERDICTS
        if not _constant_bounds(loop)
        and isinstance(form, NestForm) != (not bailouts)
    ]
    assert excluded == ["symbolic_loop0"]
