"""Size and time unit helpers, and the checked unit vocabulary.

Conventions used across the library:

* **sizes** are plain integers in bytes,
* **times and latencies** are floats in **milliseconds** (the unit used by
  Table 2 of the paper),
* logical space is addressed in 4 KiB *subpages* (LSN) grouped into 16 KiB
  *logical pages* (LPN); physical space is PPN/slot coordinates.

The ``Annotated`` aliases below (:data:`Ms`, :data:`Bytes`, :data:`Lsn`,
…) turn those conventions into *checked interfaces*: annotate a public
signature with them and ``repro-ssd lint``'s interprocedural unit checker
(rules U001–U003, see ``docs/STATIC_ANALYSIS.md``) propagates the
dimension through assignments, arithmetic and call edges, flagging mixed
arithmetic, address-space confusion and missed scale conversions.  At
runtime the aliases are their underlying ``int``/``float`` — annotating
costs nothing.
"""

from __future__ import annotations

from typing import Annotated, Any, TypeAlias


class Unit:
    """Dimension marker carried inside the ``Annotated`` unit aliases.

    The static analyzer matches the *alias names* (``Ms``, ``Lsn``, …)
    in source; the marker exists so the dimension also survives to
    runtime introspection (``typing.get_type_hints(..., include_extras=True)``).
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Unit({self.name!r})"


#: Modelled latency / simulated clock value in milliseconds (Table 2).
Ms: TypeAlias = Annotated[float, Unit("ms")]
#: Size in bytes (the only integer size unit used in interfaces).
Bytes: TypeAlias = Annotated[int, Unit("bytes")]
#: Size expressed in KiB — multiply by :data:`KIB` before it meets a
#: :data:`Bytes` interface.
Kib: TypeAlias = Annotated[float, Unit("kib")]
#: Logical subpage number (4 KiB granularity).
Lsn: TypeAlias = Annotated[int, Unit("lsn")]
#: Logical page number (16 KiB granularity): ``lpn = lsn // subpages_per_page``.
Lpn: TypeAlias = Annotated[int, Unit("lpn")]
#: Physical page coordinate (flat physical page index / page-in-block).
Ppn: TypeAlias = Annotated[int, Unit("ppn")]
#: Count of 4 KiB subpages (capacities, transfer sizes in subpage units).
SubpageCount: TypeAlias = Annotated[int, Unit("subpages")]
#: Program/erase cycle count (wear).
PeCycles: TypeAlias = Annotated[int, Unit("pe")]

# Array-column vocabulary: the structure-of-arrays kernel
# (``nand/state.py``) stores whole columns of the scalar units above.
# The underlying type is ``Any`` on purpose — columns are numpy arrays
# (or ``None`` for region variants that do not track them), and the
# unit checker only consumes the *element* dimension.

#: Column of per-slot timestamps in milliseconds (float64).
MsArray: TypeAlias = Annotated[Any, Unit("ms[]")]
#: Column of logical subpage numbers (int64; meaningful only in the
#: slots a block's ``prog_mask`` marks programmed).
LsnArray: TypeAlias = Annotated[Any, Unit("lsn[]")]

KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB

#: Milliseconds per microsecond.
US: float = 1e-3
#: Milliseconds per second.
SEC: float = 1e3


def kib(n: float) -> Bytes:
    """Return ``n`` KiB expressed in bytes."""
    return int(n * KIB)


def fmt_bytes(n: Bytes) -> str:
    """Human-readable byte count (binary units)."""
    value = float(n)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            if suffix == "B":
                return f"{int(value)}{suffix}"
            return f"{value:.2f}{suffix}"
        value /= 1024.0
    raise AssertionError("unreachable")
