"""Array declarations, array references and the virtual address space.

The paper's model (Section III-B) assumes "all array variables are
aligned with the cache line boundary, so that it would be possible to
know the relative cache lines on which array elements are located at
compile-time".  :class:`AddressSpace` implements exactly that: each
declared array receives a line-aligned (by default page-aligned) base
address in a virtual layout, and every :class:`ArrayRef` can then be
flattened to a single affine byte-address function of the loop variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.ir.affine import AffineExpr, flatten_affine
from repro.ir.layout import CType, StructType, align_up


@dataclass(frozen=True)
class ArrayDecl:
    """A declared array: name, element type and (row-major) extents.

    ``dims`` are the extents of each dimension; they may be symbolic
    (``AffineExpr`` over parameters) until :meth:`bind` resolves them.
    A scalar shared variable is represented as a 0-dimensional array.
    """

    name: str
    element: CType
    dims: tuple[AffineExpr, ...] = ()

    @staticmethod
    def create(
        name: str, element: CType, dims: Sequence[int | AffineExpr] = ()
    ) -> "ArrayDecl":
        """Convenience constructor accepting int or affine extents."""
        norm = tuple(
            d if isinstance(d, AffineExpr) else AffineExpr.const_expr(d) for d in dims
        )
        return ArrayDecl(name, element, norm)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def concrete_dims(self) -> tuple[int, ...]:
        """Integer extents; raises when any extent is still symbolic."""
        out = []
        for d in self.dims:
            if not d.is_constant:
                raise ValueError(
                    f"array {self.name!r} has symbolic extent {d}; bind parameters first"
                )
            out.append(d.as_int())
        return tuple(out)

    def bind(self, params: Mapping[str, int]) -> "ArrayDecl":
        """Substitute symbolic parameters in the extents."""
        return ArrayDecl(
            self.name,
            self.element,
            tuple(d.substitute(dict(params)) for d in self.dims),
        )

    def size_bytes(self) -> int:
        """Total footprint of the array in bytes."""
        total = self.element.size
        for d in self.concrete_dims():
            total *= d
        return total

    def strides_bytes(self) -> tuple[int, ...]:
        """Row-major byte stride of each dimension.

        >>> from repro.ir.layout import DOUBLE
        >>> ArrayDecl.create("a", DOUBLE, (4, 5)).strides_bytes()
        (40, 8)
        """
        dims = self.concrete_dims()
        strides = [0] * len(dims)
        acc = self.element.size
        for k in range(len(dims) - 1, -1, -1):
            strides[k] = acc
            acc *= dims[k]
        return tuple(strides)


@dataclass(frozen=True)
class ArrayRef:
    """One static array reference in a loop body.

    Attributes
    ----------
    array:
        The referenced :class:`ArrayDecl`.
    indices:
        One affine subscript per array dimension, in loop variables.
    field_path:
        For arrays of structs, the (possibly nested) member accessed,
        e.g. ``("sx",)`` for ``tid_args[j].sx``.
    is_write:
        Whether this reference stores to memory.
    extra:
        Additional affine byte offset inside the element, used for
        subscripted struct members such as ``s[i].arr[k]`` (the ``k``
        term cannot be expressed through the array's own dimensions).
    """

    array: ArrayDecl
    indices: tuple[AffineExpr, ...]
    field_path: tuple[str, ...] = ()
    is_write: bool = False
    extra: AffineExpr = AffineExpr.const_expr(0)

    def __post_init__(self) -> None:
        if len(self.indices) != self.array.ndim:
            raise ValueError(
                f"reference to {self.array.name!r} has {len(self.indices)} "
                f"subscripts but the array has {self.array.ndim} dimensions"
            )
        if self.field_path and not isinstance(self.array.element, StructType):
            raise TypeError(
                f"field path {self.field_path} on non-struct array "
                f"{self.array.name!r}"
            )

    @property
    def accessed_type(self) -> CType:
        """Type of the scalar actually read or written."""
        elem = self.array.element
        if self.field_path:
            assert isinstance(elem, StructType)
            return elem.field_type(self.field_path)
        return elem

    def field_offset(self) -> int:
        """Byte offset of the accessed member within the array element."""
        if not self.field_path:
            return 0
        elem = self.array.element
        assert isinstance(elem, StructType)
        return elem.field_offset(self.field_path)

    def substitute(self, bindings: Mapping[str, AffineExpr | int]) -> "ArrayRef":
        """Substitute variables/parameters inside the subscripts."""
        return ArrayRef(
            self.array.bind({k: v for k, v in bindings.items() if isinstance(v, int)}),
            tuple(ix.substitute(dict(bindings)) for ix in self.indices),
            self.field_path,
            self.is_write,
            self.extra.substitute(dict(bindings)),
        )

    def offset_expr(self) -> AffineExpr:
        """Flatten subscripts to an affine *byte offset* from the array base."""
        return (
            flatten_affine(
                self.indices, self.array.strides_bytes(), const=self.field_offset()
            )
            + self.extra
        )

    def __str__(self) -> str:
        idx = "".join(f"[{ix}]" for ix in self.indices)
        fld = "".join(f".{f}" for f in self.field_path)
        rw = "W" if self.is_write else "R"
        return f"{self.array.name}{idx}{fld}:{rw}"


class AddressSpace:
    """Line-aligned virtual layout of a set of arrays.

    Arrays are placed in registration order, each base aligned to
    ``alignment`` (default: the page size, which subsumes the paper's
    line-alignment assumption), with a guard gap so distinct arrays never
    share a cache line — inter-array false sharing is therefore never an
    artifact of the layout itself.
    """

    def __init__(self, alignment: int = 4096, guard_bytes: int = 256) -> None:
        if alignment <= 0:
            raise ValueError("alignment must be positive")
        self.alignment = alignment
        self.guard_bytes = guard_bytes
        self._bases: dict[str, int] = {}
        self._arrays: dict[str, ArrayDecl] = {}
        self._cursor = alignment  # keep address 0 unused

    def place(self, array: ArrayDecl, base: int | None = None) -> int:
        """Assign (or explicitly set) the base address of ``array``.

        Placing the same name twice must provide an identical declaration.
        Returns the base address.
        """
        if array.name in self._bases:
            if self._arrays[array.name] != array:
                raise ValueError(
                    f"array {array.name!r} already placed with a different shape"
                )
            return self._bases[array.name]
        if base is None:
            base = align_up(self._cursor, self.alignment)
        elif base % self.alignment:
            raise ValueError(
                f"explicit base {base:#x} not aligned to {self.alignment}"
            )
        self._bases[array.name] = base
        self._arrays[array.name] = array
        self._cursor = base + array.size_bytes() + self.guard_bytes
        return base

    def base(self, name: str) -> int:
        """Base address of a placed array."""
        return self._bases[name]

    def arrays(self) -> tuple[ArrayDecl, ...]:
        """All placed arrays in placement order."""
        return tuple(self._arrays.values())

    def address_expr(self, ref: ArrayRef) -> AffineExpr:
        """Absolute affine byte-address function for a reference."""
        if ref.array.name not in self._bases:
            self.place(ref.array)
        return ref.offset_expr() + self._bases[ref.array.name]

    def line_ids(
        self, ref: ArrayRef, env: Mapping[str, np.ndarray], line_size: int,
        length: int | None = None,
    ) -> np.ndarray:
        """Vectorized cache-line ids touched by ``ref`` at iteration points.

        ``env`` maps loop variables to equal-length index arrays; the
        result holds one line id per iteration point.
        """
        addr = self.address_expr(ref).eval_vectorized(env, length=length)
        return addr // line_size
