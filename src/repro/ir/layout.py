"""C type system and struct layout engine.

The false-sharing model needs *byte-accurate* addresses for every array
reference — including references into arrays of structs such as the
Phoenix linear-regression kernel's ``tid_args[j].sx`` — because false
sharing happens at cache-line granularity.  This module reimplements the
relevant slice of the System-V x86-64 ABI layout rules:

* primitive sizes/alignments (LP64),
* struct member offsets with alignment padding,
* trailing struct padding so arrays of structs tile correctly,
* nested structs and fixed-size member arrays.

The engine is deliberately independent of :mod:`pycparser`; the frontend
lowers parsed declarations into these types, and the programmatic kernel
builders construct them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def align_up(offset: int, alignment: int) -> int:
    """Round ``offset`` up to the next multiple of ``alignment``.

    >>> align_up(5, 4)
    8
    >>> align_up(8, 4)
    8
    """
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return (offset + alignment - 1) // alignment * alignment


class CType:
    """Base class for all C types.  Subclasses define size and alignment."""

    @property
    def size(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def alignment(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def is_float(self) -> bool:
        """Whether arithmetic on this type uses floating-point units."""
        return False


@dataclass(frozen=True)
class PrimitiveType(CType):
    """A scalar C type such as ``int`` or ``double`` (LP64 model)."""

    name: str
    _size: int
    _float: bool = False

    @property
    def size(self) -> int:
        return self._size

    @property
    def alignment(self) -> int:
        # On x86-64 every primitive self-aligns.
        return self._size

    @property
    def is_float(self) -> bool:
        return self._float

    def __repr__(self) -> str:
        return f"PrimitiveType({self.name})"


# LP64 primitives; ``long double`` omitted intentionally (unused by kernels
# and its 16-byte x87 layout would be the only non-self-sized alignment).
CHAR = PrimitiveType("char", 1)
UCHAR = PrimitiveType("unsigned char", 1)
SHORT = PrimitiveType("short", 2)
USHORT = PrimitiveType("unsigned short", 2)
INT = PrimitiveType("int", 4)
UINT = PrimitiveType("unsigned int", 4)
LONG = PrimitiveType("long", 8)
ULONG = PrimitiveType("unsigned long", 8)
LONGLONG = PrimitiveType("long long", 8)
FLOAT = PrimitiveType("float", 4, _float=True)
DOUBLE = PrimitiveType("double", 8, _float=True)

#: Lookup used by the frontend when resolving declaration type names.
PRIMITIVES_BY_NAME = {
    "char": CHAR,
    "signed char": CHAR,
    "unsigned char": UCHAR,
    "short": SHORT,
    "short int": SHORT,
    "unsigned short": USHORT,
    "int": INT,
    "signed": INT,
    "signed int": INT,
    "unsigned": UINT,
    "unsigned int": UINT,
    "long": LONG,
    "long int": LONG,
    "unsigned long": ULONG,
    "unsigned long int": ULONG,
    "long long": LONGLONG,
    "long long int": LONGLONG,
    "unsigned long long": ULONG,
    "float": FLOAT,
    "double": DOUBLE,
    "size_t": ULONG,
    "_Bool": UCHAR,
}


@dataclass(frozen=True)
class PointerType(CType):
    """A pointer; 8 bytes on LP64.  The pointee is kept for lowering."""

    pointee: CType

    @property
    def size(self) -> int:
        return 8

    @property
    def alignment(self) -> int:
        return 8


@dataclass(frozen=True)
class ArrayType(CType):
    """A fixed-extent C array type (as a *member* type inside structs)."""

    element: CType
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"array extent must be positive, got {self.count}")

    @property
    def size(self) -> int:
        return self.element.size * self.count

    @property
    def alignment(self) -> int:
        return self.element.alignment


@dataclass(frozen=True)
class StructField:
    """A named member of a struct, with its computed byte offset."""

    name: str
    ctype: CType
    offset: int


@dataclass(frozen=True)
class StructType(CType):
    """A C struct with ABI-conformant member offsets and padding.

    Construction computes the layout eagerly so invalid definitions fail
    fast.  Use :meth:`field_offset` to resolve (possibly nested) member
    paths such as ``("points", "x")``.
    """

    name: str
    fields: tuple[StructField, ...]
    _size: int
    _alignment: int

    @classmethod
    def create(cls, name: str, members: Iterable[tuple[str, CType]]) -> "StructType":
        """Lay out ``members`` in declaration order per the SysV ABI."""
        offset = 0
        max_align = 1
        laid: list[StructField] = []
        seen: set[str] = set()
        for mname, mtype in members:
            if mname in seen:
                raise ValueError(f"duplicate struct member {mname!r} in {name!r}")
            seen.add(mname)
            a = mtype.alignment
            offset = align_up(offset, a)
            laid.append(StructField(mname, mtype, offset))
            offset += mtype.size
            max_align = max(max_align, a)
        if not laid:
            raise ValueError(f"struct {name!r} must have at least one member")
        size = align_up(offset, max_align)
        return cls(name, tuple(laid), size, max_align)

    @property
    def size(self) -> int:
        return self._size

    @property
    def alignment(self) -> int:
        return self._alignment

    def field(self, name: str) -> StructField:
        """Return the member named ``name``."""
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"struct {self.name!r} has no member {name!r}")

    def field_offset(self, path: Sequence[str]) -> int:
        """Byte offset of a nested member path from the struct start.

        >>> pt = StructType.create("point", [("x", DOUBLE), ("y", DOUBLE)])
        >>> s = StructType.create("s", [("tag", INT), ("p", pt)])
        >>> s.field_offset(("p", "y"))
        16
        """
        offset = 0
        ctype: CType = self
        for name in path:
            if not isinstance(ctype, StructType):
                raise TypeError(
                    f"cannot resolve member {name!r}: {ctype!r} is not a struct"
                )
            f = ctype.field(name)
            offset += f.offset
            ctype = f.ctype
        return offset

    def field_type(self, path: Sequence[str]) -> CType:
        """Type of a nested member path."""
        ctype: CType = self
        for name in path:
            if not isinstance(ctype, StructType):
                raise TypeError(
                    f"cannot resolve member {name!r}: {ctype!r} is not a struct"
                )
            ctype = ctype.field(name).ctype
        return ctype

    def __repr__(self) -> str:
        return f"StructType({self.name}, size={self._size}, align={self._alignment})"
