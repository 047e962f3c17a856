"""One typed JSON codec for every record the simulator persists or ships.

A :class:`Record` is a dataclass whose fields are of a kind this module
can carry through JSON: ``str``, ``int``, ``float`` and ``bool``
scalars, ``X | None``, nested records, tuples (``tuple[X, ...]`` or a
fixed ``tuple[X, Y, Z]``), ``dict[int, int]`` and 1-D float64 numpy
arrays (base64 of their little-endian bytes, exact to the bit).
:meth:`Record.to_dict` and :meth:`Record.from_dict` walk
:func:`dataclasses.fields` over a field table resolved once per class,
so the device config and its sections, the trace profiles, the fault,
front-end and fleet configs and the simulation result share one encoder
and one decoder.

Decoding follows one rule for every record.  The payload must be an
object with no unknown key and every field that has no default, and each
value must be of a type its annotation admits: a bool is not an int, an
int is a valid float, a float is finite (no NaN or infinity), and
nothing is coerced, so ``to_dict(from_dict(d)) == d``.  Any other
payload raises the record's :attr:`Record.error_type` naming the record
and the field.  A record that defines ``validate`` is validated once
decoded.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import math
import reprlib
import types
import typing
from typing import Any, Callable, ClassVar, NamedTuple, TypeVar

import numpy as np

from .errors import ConfigError, ReproError

__all__ = ["Record"]

R = TypeVar("R", bound="Record")

#: Field value -> JSON-ready value.
Encode = Callable[[Any], Any]
#: (JSON value, field path) -> field value; raises :class:`_Invalid`.
Decode = Callable[[Any, str], Any]


class _Invalid(Exception):
    """A payload fault; :meth:`Record.from_dict` re-raises it as the
    record's own error, prefixed with the record's name."""


class _Field(NamedTuple):
    encode: Encode
    decode: Decode
    #: The payload must carry the field (it has no default).
    required: bool


class Record:
    """Base of every dataclass that crosses JSON (see the module doc)."""

    #: Error a rejected payload raises.
    error_type: ClassVar[type[ReproError]] = ConfigError

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, in field order; exact inverse of
        :meth:`from_dict`."""
        table = _table(type(self))
        return {f.name: table[f.name].encode(getattr(self, f.name))
                for f in dataclasses.fields(self)}  # type: ignore[arg-type]

    @classmethod
    def from_dict(cls: type[R], data: object) -> R:
        """Rebuild a record from :meth:`to_dict` output, then validate it."""
        try:
            record = _decode_record(cls, data, "")
        except _Invalid as exc:
            raise cls.error_type(f"{cls.__name__} {exc}") from None
        validate = getattr(record, "validate", None)
        if validate is not None:
            validate()
        return record

    def to_json(self) -> str:
        """Canonical JSON (sorted keys), stable across processes."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls: type[R], text: "str | bytes") -> R:
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except (TypeError, ValueError, RecursionError) as exc:
            raise cls.error_type(
                f"{cls.__name__} JSON is malformed: {exc}") from None
        return cls.from_dict(data)


def _mistyped(value: object, path: str, expected: str) -> _Invalid:
    return _Invalid(f"field {path!r} holds {reprlib.repr(value)}, "
                    f"not {expected}")


def _decode_record(cls: type[R], data: object, path: str) -> R:
    if not isinstance(data, dict):
        if path:
            raise _mistyped(data, path, f"a {cls.__name__} object")
        raise _Invalid(
            f"payload must be a JSON object, not {type(data).__name__}")
    prefix = f"{path}." if path else ""
    table = _table(cls)
    unknown = data.keys() - table.keys()
    if unknown:
        raise _Invalid(f"has unknown fields: "
                       f"{sorted(prefix + str(k) for k in unknown)}")
    kwargs: dict[str, Any] = {}
    for name, spec in table.items():
        if name in data:
            kwargs[name] = spec.decode(data[name], prefix + name)
        elif spec.required:
            raise _Invalid(f"field {prefix + name!r} is missing")
    build: Callable[..., R] = cls
    return build(**kwargs)


def _encode_record(value: Record) -> dict[str, Any]:
    # Dispatch through the method, so a record that overrides to_dict
    # is encoded its own way when nested too.
    return value.to_dict()


def _identity(value: Any) -> Any:
    return value


#: Scalar annotation -> (the JSON types it admits, rejected subtypes).
_SCALARS: dict[object, tuple[tuple[type, ...], tuple[type, ...]]] = {
    str: ((str,), ()),
    bool: ((bool,), ()),
    int: ((int,), (bool,)),
    float: ((int, float), (bool,)),
}


def _scalar(hint: type) -> _Field:
    admits, rejects = _SCALARS[hint]

    def decode(value: Any, path: str) -> Any:
        if not isinstance(value, admits) or isinstance(value, rejects):
            raise _mistyped(value, path, hint.__name__)
        if isinstance(value, float) and not math.isfinite(value):
            raise _mistyped(value, path, "a finite float")
        return value

    return _Field(_identity, decode, False)


def _optional(inner: _Field) -> _Field:
    def encode(value: Any) -> Any:
        return None if value is None else inner.encode(value)

    def decode(value: Any, path: str) -> Any:
        return None if value is None else inner.decode(value, path)

    return _Field(encode, decode, False)


def _tuple(items: "tuple[_Field, ...]", variadic: bool) -> _Field:
    def encode(value: Any) -> Any:
        if variadic:
            return [items[0].encode(v) for v in value]
        return [item.encode(v) for item, v in zip(items, value)]

    def decode(value: Any, path: str) -> Any:
        if not isinstance(value, list):
            raise _mistyped(value, path, "a list")
        if variadic:
            return tuple(items[0].decode(v, f"{path}[{i}]")
                         for i, v in enumerate(value))
        if len(value) != len(items):
            raise _mistyped(value, path, f"a list of {len(items)}")
        return tuple(item.decode(v, f"{path}[{i}]")
                     for i, (item, v) in enumerate(zip(items, value)))

    return _Field(encode, decode, False)


def _int_key(key: object, path: str) -> int:
    # JSON objects key on strings: only an int's own spelling decodes,
    # so the key re-encodes to the same string.
    if isinstance(key, str):
        try:
            number = int(key)
        except ValueError:
            pass
        else:
            if str(number) == key:
                return number
    raise _Invalid(f"field {path!r} has key {reprlib.repr(key)}, not an int")


def _int_dict(values: _Field) -> _Field:
    def encode(value: Any) -> Any:
        return {str(k): values.encode(v) for k, v in sorted(value.items())}

    def decode(value: Any, path: str) -> Any:
        if not isinstance(value, dict):
            raise _mistyped(value, path, "an object")
        return {_int_key(k, path): values.decode(v, f"{path}[{k}]")
                for k, v in value.items()}

    return _Field(encode, decode, False)


def _encode_array(value: Any) -> Any:
    return base64.b64encode(np.asarray(value, dtype="<f8").tobytes()).decode()


def _decode_array(value: Any, path: str) -> Any:
    raw: "bytes | None" = None
    if isinstance(value, str):
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError:
            pass
    # Only the canonical spelling decodes, so it re-encodes unchanged.
    if raw is None or len(raw) % 8 or base64.b64encode(raw).decode() != value:
        raise _mistyped(value, path, "base64 of little-endian float64s")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _codec(hint: Any) -> _Field:
    """Encoder and decoder for one resolved field annotation."""
    if hint in _SCALARS:
        return _scalar(hint)
    if hint is np.ndarray:
        return _Field(_encode_array, _decode_array, False)
    if isinstance(hint, type) and issubclass(hint, Record):
        return _Field(_encode_record,
                      functools.partial(_decode_record, hint), False)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 \
            and type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        return _optional(_codec(inner))
    if origin is tuple and args:
        if len(args) == 2 and args[1] is Ellipsis:
            return _tuple((_codec(args[0]),), variadic=True)
        return _tuple(tuple(_codec(a) for a in args), variadic=False)
    if origin is dict and args == (int, int):
        return _int_dict(_codec(int))
    raise TypeError(f"no JSON codec for field annotation {hint!r}")


@functools.cache
def _table(cls: type) -> dict[str, _Field]:
    """Each field's codec, and whether a payload must carry it, resolved
    once per class."""
    hints = typing.get_type_hints(cls)
    table: dict[str, _Field] = {}
    for f in dataclasses.fields(cls):  # type: ignore[arg-type]
        codec = _codec(hints[f.name])
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        table[f.name] = codec._replace(required=required)
    return table
