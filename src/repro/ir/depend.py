"""Data dependence analysis for parallel-loop legality.

The paper's Parallel model "helps the compiler to decide whether the
parallelization of a loop is possible" (Section II-B3).  That decision
is a dependence test: a loop may be parallelized only when no
loop-carried dependence exists on its induction variable.  This module
implements the classical affine subscript tests used by loop-nest
optimizers:

* the **GCD test** — an integer-solvability filter for a subscript pair;
* the **Banerjee bounds test** — interval analysis of the difference of
  the two address functions over the iteration space;
* a **distance test** for the common single-induction-variable (SIV)
  case, which also produces the dependence distance.

The driver :func:`analyze_dependences` runs the tests over every
read/write and write/write pair of a nest and classifies each potential
dependence as carried by a given loop or loop-independent.  A nest is
safe to parallelize at a loop when no dependence is carried by it.

These are conservative *may-depend* tests: "independent" verdicts are
proofs, "dependent" verdicts may be false positives — the standard
compiler contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from repro.ir.affine import AffineExpr
from repro.ir.loops import ParallelLoopNest
from repro.ir.refs import ArrayRef


#: Carrier sentinel: the dependence is carried by *every* enclosing loop
#: (loop-invariant colliding addresses, e.g. a scalar reduction).
ALL_LOOPS = "*"


@dataclass(frozen=True)
class Dependence:
    """One (possibly) loop-carried dependence between two references."""

    source: ArrayRef
    sink: ArrayRef
    kind: str               # "flow", "anti", "output"
    carrier: str | None     # loop var, ALL_LOOPS, or None = loop-independent
    distance: int | None    # SIV distance when computable

    def __str__(self) -> str:
        if self.carrier == ALL_LOOPS:
            where = "carried by every loop"
        elif self.carrier:
            where = f"carried by {self.carrier}"
        else:
            where = "loop-independent"
        dist = f", distance {self.distance}" if self.distance is not None else ""
        return f"{self.kind} dependence {self.source} -> {self.sink} ({where}{dist})"


@dataclass(frozen=True)
class DependenceReport:
    """All dependences of a nest, with parallelization verdicts."""

    dependences: tuple[Dependence, ...]

    def carried_by(self, var: str) -> tuple[Dependence, ...]:
        return tuple(
            d for d in self.dependences if d.carrier in (var, ALL_LOOPS)
        )

    def parallelizable(self, var: str) -> bool:
        """True when no dependence is carried by loop ``var``."""
        return not self.carried_by(var)


def _difference(a: ArrayRef, b: ArrayRef) -> AffineExpr:
    """Address-function difference h(I) = addr_a(I) − addr_b(I')
    with the sink's iteration renamed (primed) per variable."""
    da = a.offset_expr()
    db = b.offset_expr()
    primed = db.substitute({v: AffineExpr.var(v + "'") for v in db.variables()})
    return da - primed


def gcd_test(a: ArrayRef, b: ArrayRef) -> bool:
    """GCD solvability filter: can ``addr_a(I) == addr_b(I')`` have an
    integer solution at all?  Returns False when provably independent.

    >>> from repro.ir.layout import DOUBLE
    >>> from repro.ir.refs import ArrayDecl
    >>> arr = ArrayDecl.create("x", DOUBLE, (100,))
    >>> i = AffineExpr.var("i")
    >>> # x[2i] vs x[2i'+1]: 2i - 2i' = 1 has no integer solution.
    >>> gcd_test(ArrayRef(arr, (2 * i,)), ArrayRef(arr, (2 * i + 1,)))
    False
    """
    h = _difference(a, b)
    coeffs = [c for _, c in h.coeffs]
    if not coeffs:
        return h.const == 0
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    return h.const % g == 0 if g else h.const == 0


def banerjee_test(
    a: ArrayRef, b: ArrayRef, bounds: dict[str, tuple[int, int]]
) -> bool:
    """Banerjee interval test over rectangular bounds.

    ``bounds`` maps each loop variable to its inclusive (low, high)
    value range.  Returns False when the difference function cannot be
    zero anywhere in the space (proof of independence).
    """
    h = _difference(a, b)
    lo = hi = h.const
    for var, coeff in h.coeffs:
        base = var[:-1] if var.endswith("'") else var
        if base not in bounds:
            # Unknown range (symbolic parameter): stay conservative.
            return True
        vlo, vhi = bounds[base]
        if vlo > vhi:
            return False  # empty loop: no dependence possible
        lo += min(coeff * vlo, coeff * vhi)
        hi += max(coeff * vlo, coeff * vhi)
    return lo <= 0 <= hi


def siv_distance(a: ArrayRef, b: ArrayRef, var: str) -> int | None:
    """Dependence distance for a strong-SIV pair in ``var``.

    Both references must be affine with the *same* coefficient for
    ``var``; the distance is then ``(const_b − const_a) / coeff`` when
    integral.  Returns ``None`` when the pair is not strong-SIV.
    """
    da = a.offset_expr()
    db = b.offset_expr()
    ca = da.coeff(var)
    cb = db.coeff(var)
    if ca == 0 or ca != cb:
        return None
    others_a = {v: c for v, c in da.coeffs if v != var}
    others_b = {v: c for v, c in db.coeffs if v != var}
    if others_a != others_b:
        return None
    delta = da.const - db.const
    if delta % ca:
        return None  # non-integer distance: independent in this var
    return -(delta // ca)


def _loop_bounds(nest: ParallelLoopNest) -> dict[str, tuple[int, int]]:
    out: dict[str, tuple[int, int]] = {}
    for lp in nest.loops():
        if lp.lower.is_constant and lp.upper.is_constant:
            out[lp.var] = (lp.lower.as_int(), lp.upper.as_int() - 1)
    return out


def _ref_pairs(nest: ParallelLoopNest) -> Iterator[tuple[ArrayRef, ArrayRef, str]]:
    accs = nest.innermost_accesses()
    for i, a in enumerate(accs):
        for b in accs[i:]:
            if a.array.name != b.array.name:
                continue
            if not (a.is_write or b.is_write):
                continue
            if a.is_write and b.is_write:
                kind = "output"
            elif a.is_write:
                kind = "flow"
            else:
                kind = "anti"
            yield a, b, kind


def analyze_dependences(nest: ParallelLoopNest) -> DependenceReport:
    """Run the dependence tests over a bound nest.

    The returned report answers the Parallel model's legality question:
    ``report.parallelizable(nest.parallel_var)``.
    """
    bounds = _loop_bounds(nest)
    found: list[Dependence] = []
    for a, b, kind in _ref_pairs(nest):
        if not gcd_test(a, b):
            continue
        if not banerjee_test(a, b, bounds):
            continue
        # A dependence may exist; attribute it to the outermost loop
        # whose index distinguishes the two accesses.
        carrier: str | None = None
        distance: int | None = None
        for lp in nest.loops():
            d = siv_distance(a, b, lp.var)
            if d is None:
                # Variable participates but the pair is not strong-SIV:
                # conservatively mark this loop as a possible carrier if
                # the variable appears in either address function.
                if (
                    a.offset_expr().coeff(lp.var) != 0
                    or b.offset_expr().coeff(lp.var) != 0
                ):
                    carrier = lp.var
                    break
                continue
            if d != 0:
                carrier = lp.var
                distance = d
                break
        if carrier is None:
            spine_vars = {lp.var for lp in nest.loops()}
            involved = (
                set(a.offset_expr().variables())
                | set(b.offset_expr().variables())
            ) & spine_vars
            if not involved:
                # Loop-invariant colliding addresses (e.g. `s[0] += ...`):
                # every iteration pair conflicts — carried by every loop.
                found.append(Dependence(a, b, kind, ALL_LOOPS, None))
            else:
                # Same address at the same iteration only (e.g. the read
                # and write of `x[i] += ...`) — loop-independent.
                found.append(Dependence(a, b, kind, None, 0))
        else:
            found.append(Dependence(a, b, kind, carrier, distance))
    return DependenceReport(tuple(found))
