"""Loop-nest IR: statements, loops and OpenMP parallel loop nests.

This is the "High-Level IR" of the reproduction — the analogue of the
WHIRL slice the paper's compiler pass consumes.  It carries exactly the
information Section III says the model needs: loop boundaries, step
sizes, index variables, the OpenMP schedule chunk size, and the array
references (with read/write direction) made in the loop body.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Union

from repro.ir.affine import AffineExpr
from repro.ir.exprtree import Expr
from repro.ir.refs import ArrayDecl, ArrayRef


@dataclass(frozen=True)
class Assign:
    """An assignment statement ``target (op)= rhs``.

    ``target`` is an :class:`ArrayRef` for memory stores, or a plain
    variable name for stores into thread-private scalars (which generate
    no memory traffic in the model — they live in registers).
    ``augmented`` holds the compound operator for ``+=``-style updates,
    which imply an additional *read* of the target before the write.
    """

    target: Union[ArrayRef, str]
    rhs: Expr
    augmented: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.target, ArrayRef) and not self.target.is_write:
            raise ValueError(f"assignment target must be a write ref: {self.target}")
        if self.augmented is not None and self.augmented not in ("+", "-", "*", "/"):
            raise ValueError(f"unsupported compound operator {self.augmented!r}")

    def accesses(self) -> tuple[ArrayRef, ...]:
        """Memory accesses of one execution, in program order.

        Right-hand-side loads first, then the read-for-update of an
        augmented target, then the store itself.
        """
        out: list[ArrayRef] = list(self.rhs.refs())
        if isinstance(self.target, ArrayRef):
            if self.augmented is not None:
                out.append(replace(self.target, is_write=False))
            out.append(self.target)
        return tuple(out)

    def __str__(self) -> str:
        op = f"{self.augmented}=" if self.augmented else "="
        return f"{self.target} {op} {self.rhs}"


Stmt = Assign
BodyItem = Union["Loop", Assign]


@dataclass(frozen=True)
class Loop:
    """A counted loop ``for (var = lower; var < upper; var += step)``.

    Bounds are affine in enclosing loop variables and symbolic
    parameters; ``upper`` is exclusive.  ``step`` must be a positive
    constant (the canonical form the paper's LNO phase normalizes to).
    """

    var: str
    lower: AffineExpr
    upper: AffineExpr
    body: tuple[BodyItem, ...]
    step: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"loop step must be positive, got {self.step}")
        if not self.body:
            raise ValueError(f"loop over {self.var!r} has an empty body")

    @staticmethod
    def create(
        var: str,
        lower: int | AffineExpr,
        upper: int | AffineExpr,
        body: list[BodyItem] | tuple[BodyItem, ...],
        step: int = 1,
    ) -> "Loop":
        """Convenience constructor accepting int bounds."""
        lo = lower if isinstance(lower, AffineExpr) else AffineExpr.const_expr(lower)
        up = upper if isinstance(upper, AffineExpr) else AffineExpr.const_expr(upper)
        return Loop(var, lo, up, tuple(body), step)

    # -- structure -----------------------------------------------------------

    def subloops(self) -> tuple["Loop", ...]:
        return tuple(item for item in self.body if isinstance(item, Loop))

    def stmts(self) -> tuple[Assign, ...]:
        return tuple(item for item in self.body if isinstance(item, Assign))

    def walk(self) -> Iterator["Loop"]:
        """This loop and all nested loops, outermost first."""
        yield self
        for sub in self.subloops():
            yield from sub.walk()

    # -- analysis helpers ----------------------------------------------------

    def trip_count(self, env: Mapping[str, int] | None = None) -> int:
        """Number of iterations given bindings for free variables.

        >>> from repro.ir.affine import AffineExpr as A
        >>> Loop.create("i", 0, 10, [_DUMMY], step=3).trip_count()
        4
        """
        env = env or {}
        lo = self.lower.eval(env)
        up = self.upper.eval(env)
        if up <= lo:
            return 0
        return -(-(up - lo) // self.step)

    def substitute(self, bindings: Mapping[str, AffineExpr | int]) -> "Loop":
        """Substitute parameters in bounds and subscripts, recursively.

        The loop's own induction variable is protected from substitution
        inside its body (it is a fresh binding, not a free parameter).
        """
        inner = {k: v for k, v in bindings.items() if k != self.var}
        new_body: list[BodyItem] = []
        for item in self.body:
            if isinstance(item, Loop):
                new_body.append(item.substitute(inner))
            else:
                new_body.append(_substitute_assign(item, inner))
        return Loop(
            self.var,
            self.lower.substitute(dict(bindings)),
            self.upper.substitute(dict(bindings)),
            tuple(new_body),
            self.step,
        )


def _substitute_assign(stmt: Assign, bindings: Mapping[str, AffineExpr | int]) -> Assign:
    from repro.ir.exprtree import LoadExpr  # local import to avoid cycle

    int_bindings = {k: v for k, v in bindings.items() if isinstance(v, int)}

    def fix_ref(ref: ArrayRef) -> ArrayRef:
        return ArrayRef(
            ref.array.bind(int_bindings),
            tuple(ix.substitute(dict(bindings)) for ix in ref.indices),
            ref.field_path,
            ref.is_write,
            ref.extra.substitute(dict(bindings)),
        )

    def fix_expr(e: Expr) -> Expr:
        if isinstance(e, LoadExpr):
            return LoadExpr(fix_ref(e.ref))
        kids = e.children()
        if not kids:
            return e
        # All composite nodes are frozen dataclasses; rebuild generically.
        import dataclasses

        fields = {}
        for f in dataclasses.fields(e):
            v = getattr(e, f.name)
            if isinstance(v, Expr):
                fields[f.name] = fix_expr(v)
            elif isinstance(v, tuple) and v and all(isinstance(x, Expr) for x in v):
                fields[f.name] = tuple(fix_expr(x) for x in v)
            else:
                fields[f.name] = v
        return type(e)(**fields)

    target = stmt.target
    if isinstance(target, ArrayRef):
        target = fix_ref(target)
    return Assign(target, fix_expr(stmt.rhs), stmt.augmented)


# A placeholder statement for doctest purposes only.
from repro.ir.exprtree import Const as _Const  # noqa: E402
from repro.ir.layout import DOUBLE as _DOUBLE  # noqa: E402

_DUMMY = Assign("t", _Const(0.0, _DOUBLE))


@dataclass(frozen=True)
class Schedule:
    """An OpenMP loop schedule clause.

    Only ``static`` with an explicit chunk is modeled, per the paper's
    assumption that "chunks of a loop are distributed to threads in a
    round-robin fashion".  ``chunk=None`` means the default static
    blocking (one contiguous block per thread).
    """

    kind: str = "static"
    chunk: int | None = 1

    def __post_init__(self) -> None:
        if self.kind != "static":
            raise ValueError(
                f"only static schedules are modeled, got {self.kind!r}"
            )
        if self.chunk is not None and self.chunk <= 0:
            raise ValueError(f"chunk size must be positive, got {self.chunk}")

    def with_chunk(self, chunk: int | None) -> "Schedule":
        return Schedule(self.kind, chunk)

    def to_key_dict(self) -> dict:
        """Canonical dict for cache-key hashing (engine job specs)."""
        return {"kind": self.kind, "chunk": self.chunk}

    def __str__(self) -> str:
        return f"schedule({self.kind},{self.chunk})" if self.chunk else "schedule(static)"


@dataclass(frozen=True)
class ParallelLoopNest:
    """An OpenMP ``parallel for`` loop nest — the model's unit of analysis.

    Attributes
    ----------
    name:
        Human-readable kernel name for reports.
    root:
        Outermost loop of the nest.
    parallel_var:
        Induction variable of the loop carrying the worksharing construct.
    schedule:
        The static schedule (chunk size).
    private:
        Variables named in ``private(...)`` clauses (informational).
    params:
        Free symbolic parameters (e.g. ``N``, ``M``, ``num_threads``)
        appearing in bounds or extents, mapped to descriptions.
    """

    name: str
    root: Loop
    parallel_var: str
    schedule: Schedule = field(default_factory=Schedule)
    private: tuple[str, ...] = ()
    params: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.parallel_var not in [lp.var for lp in self.root.walk()]:
            raise ValueError(
                f"parallel variable {self.parallel_var!r} does not name a loop "
                f"in nest {self.name!r}"
            )

    # -- structure -----------------------------------------------------------

    def loops(self) -> tuple[Loop, ...]:
        """The perfect-nest spine: outermost loop down to the innermost.

        Follows the first (and for model-analyzable nests, only) subloop
        at each level.
        """
        spine = [self.root]
        while spine[-1].subloops():
            spine.append(spine[-1].subloops()[0])
        return tuple(spine)

    def innermost(self) -> Loop:
        return self.loops()[-1]

    def parallel_loop(self) -> Loop:
        for lp in self.loops():
            if lp.var == self.parallel_var:
                return lp
        raise ValueError(f"parallel loop {self.parallel_var!r} not on the nest spine")

    def parallel_depth(self) -> int:
        """0-based depth of the parallel loop on the spine."""
        for d, lp in enumerate(self.loops()):
            if lp.var == self.parallel_var:
                return d
        raise ValueError(f"parallel loop {self.parallel_var!r} not on the nest spine")

    def loop_vars(self) -> tuple[str, ...]:
        return tuple(lp.var for lp in self.loops())

    # -- accesses ------------------------------------------------------------

    def innermost_accesses(self) -> tuple[ArrayRef, ...]:
        """Ordered memory accesses of one innermost iteration.

        Per Section III-A the model identifies FS caused only by array
        references made in the innermost loop.
        """
        out: list[ArrayRef] = []
        for stmt in self.innermost().stmts():
            out.extend(stmt.accesses())
        return tuple(out)

    def arrays(self) -> tuple[ArrayDecl, ...]:
        """Distinct arrays referenced from the innermost loop, in order."""
        seen: dict[str, ArrayDecl] = {}
        for ref in self.innermost_accesses():
            seen.setdefault(ref.array.name, ref.array)
        return tuple(seen.values())

    # -- transformation ------------------------------------------------------

    def bind(self, params: Mapping[str, int]) -> "ParallelLoopNest":
        """Substitute symbolic parameters with concrete values."""
        return replace(
            self,
            root=self.root.substitute(dict(params)),
            params=tuple(p for p in self.params if p not in params),
        )

    def with_schedule(self, schedule: Schedule) -> "ParallelLoopNest":
        return replace(self, schedule=schedule)

    def with_chunk(self, chunk: int | None) -> "ParallelLoopNest":
        return replace(self, schedule=self.schedule.with_chunk(chunk))

    # -- shape queries -------------------------------------------------------

    def trip_counts(self) -> tuple[int, ...]:
        """Constant trip count of each spine loop (requires rectangularity)."""
        counts = []
        for lp in self.loops():
            if not (lp.lower.is_constant and lp.upper.is_constant):
                raise ValueError(
                    f"loop {lp.var!r} of {self.name!r} has non-constant bounds "
                    f"[{lp.lower}, {lp.upper}); bind parameters first"
                )
            counts.append(lp.trip_count())
        return tuple(counts)

    def total_iterations(self) -> int:
        """Total innermost iterations of the whole nest."""
        total = 1
        for c in self.trip_counts():
            total *= c
        return total

    def __str__(self) -> str:
        loops = " / ".join(
            f"{lp.var}:[{lp.lower},{lp.upper}):{lp.step}" for lp in self.loops()
        )
        return f"{self.name} [{loops}] parallel={self.parallel_var} {self.schedule}"
