"""Validation of parallel loop nests prior to model analysis.

The FS model supports the class of loops the paper handles: perfectly
nested counted loops with affine subscripts, a static round-robin
schedule, and array references in the innermost body.  ``validate_nest``
checks those properties and raises :class:`NestValidationError` with a
precise message when one fails — a deliberately compiler-like diagnostic
so users learn *why* a loop is outside the modeled class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.loops import Assign, ParallelLoopNest


class NestValidationError(ValueError):
    """A loop nest is outside the class the FS model supports."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validation: fatal errors plus advisory warnings."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def check_nest(nest: ParallelLoopNest, require_concrete: bool = True) -> ValidationReport:
    """Collect validation errors/warnings without raising."""
    errors: list[str] = []
    warnings: list[str] = []

    spine = nest.loops()
    spine_vars = [lp.var for lp in spine]

    # 1. Distinct induction variables.
    if len(set(spine_vars)) != len(spine_vars):
        errors.append(f"duplicate induction variables on spine: {spine_vars}")

    # 2. Perfect nesting: every non-innermost spine loop contains exactly
    #    one loop; statements outside the innermost loop are ignored by the
    #    model (Section III-A) and reported as warnings.
    for lp in spine[:-1]:
        subs = lp.subloops()
        if len(subs) != 1:
            errors.append(
                f"loop {lp.var!r} has {len(subs)} nested loops; the model "
                "requires a single perfect spine"
            )
        if lp.stmts():
            warnings.append(
                f"statements at loop level {lp.var!r} are outside the innermost "
                "loop and are ignored by the FS model"
            )

    # 3. Parallel loop must sit on the spine.
    if nest.parallel_var not in spine_vars:
        errors.append(f"parallel variable {nest.parallel_var!r} not on the spine")

    # 4. Innermost body must contain at least one memory access.
    innermost = spine[-1]
    if not any(isinstance(s, Assign) for s in innermost.body):
        errors.append("innermost loop has no statements")
    elif not nest.innermost_accesses():
        warnings.append(
            "innermost loop performs no array accesses; FS count will be zero"
        )

    # 5. Subscripts must be affine in spine variables / declared parameters.
    known = set(spine_vars) | set(nest.params)
    for ref in nest.innermost_accesses():
        for ix in ref.indices:
            unknown = [v for v in ix.variables() if v not in known]
            if unknown:
                errors.append(
                    f"subscript {ix} of {ref.array.name!r} uses unknown "
                    f"variables {unknown} (not loop indices or parameters)"
                )

    # 6. Bound shape checks.
    for lp in spine:
        free = set(lp.lower.variables()) | set(lp.upper.variables())
        outer = set(spine_vars[: spine_vars.index(lp.var)]) | set(nest.params)
        bad = free - outer
        if bad:
            errors.append(
                f"bounds of loop {lp.var!r} reference {sorted(bad)} which are "
                "neither enclosing loop variables nor parameters"
            )

    if require_concrete and not errors:
        try:
            counts = nest.trip_counts()
        except ValueError as exc:
            errors.append(str(exc))
        else:
            if any(c == 0 for c in counts):
                warnings.append(f"nest has an empty loop (trip counts {counts})")

    return ValidationReport(tuple(errors), tuple(warnings))


def validate_nest(nest: ParallelLoopNest, require_concrete: bool = True) -> ValidationReport:
    """Validate and raise :class:`NestValidationError` on any fatal error.

    Returns the full report (including warnings) when validation passes.
    """
    report = check_nest(nest, require_concrete=require_concrete)
    if not report.ok:
        raise NestValidationError(
            f"nest {nest.name!r} is not analyzable:\n  - " + "\n  - ".join(report.errors)
        )
    return report
