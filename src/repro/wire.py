"""The wire codec: JSON encoders and decoders derived from dataclasses.

Results, plans, job specs, checkpoint records, traces and bug logs cross
process boundaries as dataclasses.  The codec walks a type's fields and
type hints once, builds an encoder and a checking decoder, and caches
both.  A dataclass is an object keyed by field name in field order;
lists and tuples are arrays, sets sorted arrays, ``Dict[str, X]``
objects, ``bytes`` hex strings and enums their values.  Bare ``dict`` and
``tuple`` carry any JSON object or array unchecked.  What the hints
cannot say is declared next to the class with :func:`layout`.

Decoding checks every node and never coerces (an int in a ``float``
field stays an int).  The ``wire_version`` check runs first; any other
mismatch raises the class's declared error, :class:`WireError` by
default, naming the JSON path.  This module imports nothing from the
package but :mod:`repro.errors`, so any module can declare a layout.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import typing
from collections.abc import Sequence
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Tuple

from .errors import ReproError

#: Wire-format version, bumped on incompatible layout changes so stale
#: shards from a different code revision are rejected instead of merged.
#: v2 added the per-campaign ``metrics`` snapshot (repro.obs); v3 the
#: ``degradation`` record (repro.faults graceful degradation); v4 the
#: ``scheduler`` knob and ``scheduler_trace`` decision log
#: (repro.core.scheduler); v5 the session-fuzzer payloads
#: (``SessionResult``/``SessionBugRecord``, repro.core.session); v6 the
#: job-service codecs (``JobSpec``/``JobStatus``, repro.serve).
WIRE_VERSION = 6


class WireError(ReproError, ValueError):
    """A wire payload does not match the expected layout or version."""


class WireVersionError(WireError):
    """A wire payload's version does not match this build's codec.

    Carries ``found`` / ``expected`` / ``context`` structurally and tells
    a payload from a **newer** build apart from a stale one, so operators
    can tell "upgrade me" from "re-run that".
    """

    def __init__(self, found: object, expected: int, context: str):
        self.found = found
        self.expected = expected
        self.context = context
        if isinstance(found, int) and found > expected:
            detail = (
                f"payload is from a NEWER wire format (v{found} > v{expected}): "
                "upgrade this build before decoding it"
            )
        elif found is None:
            detail = f"payload carries no wire_version (expected v{expected})"
        else:
            detail = f"stale wire version {found!r} != expected v{expected}"
        super().__init__(f"{context}: {detail}")


def is_zero(value: Any) -> bool:
    """Elision predicate: leave the field out when it is zero."""
    return not value


def is_negative(value: Any) -> bool:
    """Elision predicate: leave the field out when it is negative."""
    return value < 0


@dataclasses.dataclass(frozen=True)
class Layout:
    """How one class departs from the default object-per-dataclass form."""

    row: bool = False  # an array in field order, not an object
    by_name: bool = False  # enums: encode the member name, not its value
    versioned: bool = False  # carry "wire_version", checked before anything else
    const: Tuple[Tuple[str, Any], ...] = ()  # constant envelope keys
    rename: Dict[str, str] = dataclasses.field(default_factory=dict)  # field -> key
    #: field -> predicate: left out when it holds, default when missing
    elide: Dict[str, Callable[[Any], bool]] = dataclasses.field(default_factory=dict)
    #: field -> (wire type, to wire, from wire): an explicit adapter
    via: Dict[str, tuple] = dataclasses.field(default_factory=dict)
    error: type = WireError  # what a failed decode of this class raises


def layout(**facts: Any) -> Callable[[type], type]:
    """Class decorator declaring a :class:`Layout`."""

    def declare(cls: type) -> type:
        cls.__wire_layout__ = Layout(**facts)
        return cls

    return declare


def _layout_of(cls: type) -> Layout:
    return cls.__dict__.get("__wire_layout__") or Layout()


def encode(obj: Any) -> Any:
    """The JSON-clean wire form of a dataclass instance."""
    return _encoder(type(obj))(obj)


def decode(cls: type, data: Any, context: str) -> Any:
    """Rebuild a *cls* from its wire form; errors are prefixed with *context*."""
    try:
        return _decoder(cls)(data)
    except _Mismatch as exc:
        if exc.found is not _NO_VERSION:
            raise WireVersionError(exc.found, WIRE_VERSION, context) from None
        path = "".join(reversed(exc.path)).lstrip(".")
        if exc.text in ("missing field", "unknown field"):
            message = f"{exc.text} '{path}'"
        else:
            message = f"{path} {exc.text}" if path else exc.text.replace("must be", "expected", 1)
        raise _layout_of(cls).error(f"{context}: {message}") from None


def dumps_wire(wire: Any) -> str:
    """Serialise a wire value to canonical JSON (sorted keys, no spaces)."""
    return json.dumps(wire, sort_keys=True, separators=(",", ":"))


def loads_wire(text: str) -> Any:
    """Parse JSON produced by :func:`dumps_wire`; bad text is a :class:`WireError`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise WireError(f"not valid JSON: {exc}") from None


def dump_lines(records: Iterable[Any], path: Any) -> int:
    """Write one JSON line per record; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for count, record in enumerate(records, 1):
            handle.write(json.dumps(encode(record)) + "\n")
    return count


def load_file(cls: type, path: Any) -> Any:
    """Read one JSON document from *path* and decode it as a *cls*.

    Text that is not JSON raises the class's declared error, like any
    other mismatch; every error names *path*.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise _layout_of(cls).error(f"{path}: not valid JSON: {exc}") from None
    return decode(cls, data, str(path))


def load_lines(cls: type, path: Any) -> List[Any]:
    """Read a :func:`dump_lines` file; a bad line's error names ``path:line``."""
    records = []
    with open(path, "rb") as handle:  # decoded per line, so bad UTF-8 names its line
        for number, line in enumerate(handle, 1):
            if line.strip():
                try:
                    data = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError) as exc:
                    raise _layout_of(cls).error(f"{path}:{number}: not valid JSON: {exc}") from None
                records.append(decode(cls, data, f"{path}:{number}"))
    return records


# -- encoders ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _encoder(tp: Any) -> Any:
    """An encoder for *tp*, or ``None`` when its values encode as themselves."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _SCALAR_TYPES:
        return None
    if tp in (bytes, tuple):
        return bytes.hex if tp is bytes else list
    if origin is typing.Union:
        inner = _encoder(_optional(tp))
        return inner and (lambda value: None if value is None else inner(value))
    if origin is tuple and args[-1:] != (Ellipsis,):
        encoders = [_encoder(arg) for arg in args]
        if not any(encoders):
            return list
        encoders = [enc or _same for enc in encoders]
        return lambda value: [enc(item) for enc, item in zip(encoders, value)]
    if origin in (list, tuple, Sequence, set, frozenset):
        build, inner = sorted if origin in (set, frozenset) else list, _encoder(args[0])
        if inner is None:
            return build
        if build is list and dataclasses.is_dataclass(args[0]) and not _layout_of(args[0]).elide:
            source, namespace = _display(args[0])
            return eval(f"lambda value: [{source} for obj in value]", namespace)
        if build is list:
            return lambda value: [inner(item) for item in value]
        return lambda value: sorted([inner(item) for item in value])
    if origin is dict:
        inner = _encoder(args[1])
        return dict if inner is None else lambda value: {k: inner(v) for k, v in value.items()}
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return attrgetter("name" if _layout_of(tp).by_name else "value")
    if dataclasses.is_dataclass(tp):
        return _dataclass_encoder(tp)
    raise TypeError(f"wire codec: no encoding for {tp!r}")


def _same(value: Any) -> Any:
    return value


def _dataclass_encoder(cls: type) -> Callable[[Any], Any]:
    if not _layout_of(cls).elide:
        source, namespace = _display(cls)
        return eval(f"lambda obj: {source}", namespace)
    lay, hints = _layout_of(cls), typing.get_type_hints(cls)
    envelope = dict(([("wire_version", WIRE_VERSION)] if lay.versioned else []) + list(lay.const))
    plan = []
    for f in dataclasses.fields(cls):
        enc = _encoder(hints[f.name]) or _same
        plan.append((f.name, lay.rename.get(f.name, f.name), enc, lay.elide.get(f.name)))

    def encode_sparse(obj: Any) -> dict:
        out = dict(envelope)
        for name, key, enc, elide in plan:
            value = getattr(obj, name)
            if elide is None or not elide(value):
                out[key] = enc(value)
        return out

    return encode_sparse


def _display(cls: type) -> Tuple[str, Dict[str, Any]]:
    """Source of a list or dict display encoding ``obj``, and its namespace.

    Generated like the dataclass's own ``__init__``: a display runs about
    three times faster than a value built up field by field, and a list of
    dataclasses encodes as one comprehension over it.
    """
    lay, hints = _layout_of(cls), typing.get_type_hints(cls)
    namespace, values = {}, []
    for i, f in enumerate(dataclasses.fields(cls)):
        if f.name in lay.via:
            wire_type, to_wire, _ = lay.via[f.name]
            enc = _chain(to_wire, _encoder(wire_type) or _same)
        else:
            enc = _encoder(hints[f.name])
        namespace[f"enc{i}"] = enc
        values.append(f"enc{i}(obj.{f.name})" if enc else f"obj.{f.name}")
    if lay.row:
        return f"[{', '.join(values)}]", namespace
    items = [f"{key!r}: {value!r}" for key, value in lay.const]
    if lay.versioned:
        items.insert(0, f"'wire_version': {WIRE_VERSION}")
    for f, value in zip(dataclasses.fields(cls), values):
        items.append(f"{lay.rename.get(f.name, f.name)!r}: {value}")
    return f"{{{', '.join(items)}}}", namespace


def _chain(first: Callable, then: Callable) -> Callable[[Any], Any]:
    return lambda value: then(first(value))


def _optional(tp: Any) -> Any:
    args = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if len(args) != 1 or len(typing.get_args(tp)) != 2:
        raise TypeError(f"wire codec: only Optional[X] unions are supported, not {tp!r}")
    return args[0]


# -- decoders ------------------------------------------------------------------

_NO_VERSION = object()


class _Mismatch(Exception):
    """A decode failure; each container adds its key while it unwinds."""

    def __init__(self, text: str):
        super().__init__(text)
        self.text, self.found, self.path = text, _NO_VERSION, []


def _kind(value: Any) -> str:
    return "null" if value is None else type(value).__name__


def _reject(expected: str, value: Any) -> Any:
    raise _Mismatch(f"must be {expected}, got {_kind(value)}")


#: Exact Python types each JSON scalar admits: ``float`` admits ints (kept
#: as ints), ``int`` does not admit ``bool``.
_SCALAR_TYPES = {
    int: ((int,), "an integer"),
    float: ((float, int), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    dict: ((dict,), "a JSON object"),
}


def _slot(tp: Any) -> Tuple[tuple, Callable[[Any], Any]]:
    """``(types, decoder)``: a value whose exact type is in *types* stands
    for itself, anything else goes through *decoder* to convert or raise.
    Containers test scalars inline: calls per element would dominate."""
    optional = typing.get_origin(tp) is typing.Union
    base = _optional(tp) if optional else tp
    if base not in _SCALAR_TYPES:
        return (), _decoder(tp)
    types, expected = _SCALAR_TYPES[base]
    if optional:
        types, expected = types + (type(None),), expected + " or null"
    return types, functools.partial(_reject, expected)


@functools.lru_cache(maxsize=None)
def _decoder(tp: Any) -> Callable[[Any], Any]:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and _optional(tp) not in _SCALAR_TYPES:
        inner = _decoder(_optional(tp))
        return lambda value: None if value is None else inner(value)
    if tp in _SCALAR_TYPES or origin is typing.Union:
        types, reject = _slot(tp)
        return lambda value: value if type(value) in types else reject(value)
    if tp is bytes:
        return _decode_hex
    if tp is tuple:
        return lambda value: tuple(_array(value))
    if origin is tuple and args[-1:] != (Ellipsis,):
        return _row_decoder(args, lambda *values: values)
    if origin in (list, tuple, Sequence, set, frozenset):
        return _sequence_decoder(args[0], list if origin is Sequence else origin)
    if origin is dict:
        return _mapping_decoder(args[1])
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return _enum_decoder(tp)
    if dataclasses.is_dataclass(tp):
        return _dataclass_decoder(tp)
    raise TypeError(f"wire codec: no decoding for {tp!r}")


def _decode_hex(value: Any) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise _Mismatch(f"must be a hex string, got {_kind(value)}") from None


def _array(value: Any) -> list:
    return value if type(value) is list else _reject("an array", value)


# Each container first tests, at C speed, whether every element is a
# scalar of an admitted type, the common case; only otherwise does it
# decode element by element, which converts nested values or names the
# first bad one.


def _sequence_decoder(item_tp: Any, build: type) -> Callable[[Any], Any]:
    types, dec = _slot(item_tp)
    admitted = frozenset(types)

    def decode_sequence(value: Any) -> Any:
        items, out = _array(value), []
        if admitted and admitted.issuperset(map(type, items)):
            return build(items)
        try:
            for item in items:
                out.append(item if type(item) in types else dec(item))
        except _Mismatch as exc:
            exc.path.append(f"[{len(out)}]")
            raise
        return out if build is list else build(out)

    return decode_sequence


def _row_decoder(item_tps: tuple, build: Callable) -> Callable[[Any], Any]:
    """A fixed-length array; *build* takes its decoded elements as arguments."""
    slots = [_slot(tp) for tp in item_tps]
    admitted = frozenset(itertools.product(*(types for types, _ in slots)))

    def decode_row(value: Any) -> Any:
        if type(value) is list and tuple(map(type, value)) in admitted:
            return build(*value)
        if len(_array(value)) != len(slots):
            raise _Mismatch(f"must be an array of {len(slots)} elements, got {len(value)}")
        out = []
        try:
            for (types, dec), item in zip(slots, value):
                out.append(item if type(item) in types else dec(item))
        except _Mismatch as exc:
            exc.path.append(f"[{len(out)}]")
            raise
        return build(*out)

    return decode_row


def _mapping_decoder(item_tp: Any) -> Callable[[Any], Any]:
    types, dec = _slot(item_tp)
    admitted = frozenset(types)

    def decode_mapping(value: Any) -> dict:
        if type(value) is not dict:
            _reject("a JSON object", value)
        if admitted and admitted.issuperset(map(type, value.values())):
            return dict(value)
        out, key = {}, None
        try:
            for key, item in value.items():
                out[key] = item if type(item) in types else dec(item)
        except _Mismatch as exc:
            exc.path.append(f"[{key!r}]")
            raise
        return out

    return decode_mapping


def _enum_decoder(cls: type) -> Callable[[Any], Any]:
    by_name = _layout_of(cls).by_name
    members = {(m.name if by_name else m.value): m for m in cls}

    def decode_enum(value: Any) -> Any:
        try:
            return members[value]
        except (KeyError, TypeError):
            raise _Mismatch(f"must be one of {', '.join(map(repr, members))}, got {value!r}") from None

    return decode_enum


def _dataclass_decoder(cls: type) -> Callable[[Any], Any]:
    lay, hints = _layout_of(cls), typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    if lay.row:
        return _row_decoder(tuple(hints[f.name] for f in fields), cls)
    plan = []
    for f in fields:
        if f.name in lay.via:
            wire_type, _, from_wire = lay.via[f.name]
            types, dec = (), _chain(_decoder(wire_type), from_wire)
        else:
            types, dec = _slot(hints[f.name])
        plan.append((f.name, lay.rename.get(f.name, f.name), types, dec, f.name in lay.elide))
    const = ([("wire_version", WIRE_VERSION)] if lay.versioned else []) + list(lay.const)
    known = {key for _, key, _, _, _ in plan} | {key for key, _ in const}

    def decode_object(data: Any) -> Any:
        if type(data) is not dict:
            _reject("a JSON object", data)
        for key, value in const:  # the version first
            found = data.get(key)
            if found != value or type(found) is not type(value):
                exc = _Mismatch(f"must be {value!r}, got {found!r}")
                if key == "wire_version":
                    exc.found = found
                exc.path.append("." + key)
                raise exc
        kwargs, key = {}, None
        try:
            for name, key, types, dec, elidable in plan:
                if key in data:
                    raw = data[key]
                    kwargs[name] = raw if type(raw) in types else dec(raw)
                elif not elidable:
                    raise _Mismatch("missing field")
        except _Mismatch as exc:
            exc.path.append("." + key)
            raise
        if len(data) != len(kwargs) + len(const):
            exc = _Mismatch("unknown field")
            exc.path.append("." + min(map(str, set(data) - known)))
            raise exc
        return cls(**kwargs)

    return _fast_object_decoder(cls, plan, const, decode_object)


def _fast_object_decoder(cls: type, plan: list, const: list, checked: Callable) -> Callable:
    """Generated happy path for a well-formed object: one function with
    every key, constant and scalar type tested inline, like the dataclass's
    own ``__init__``.  Anything unexpected goes to *checked*, the field-by-
    field decoder above, which names the problem."""
    namespace: Dict[str, Any] = {"cls": cls, "checked": checked, "_Mismatch": _Mismatch}
    tests = ["type(data) is dict", f"len(data) == {len(plan) + len(const)}"]
    for i, (key, value) in enumerate(const):
        namespace[f"c{i}"] = value
        tests.append(f"data.get({key!r}) == c{i} and type(data[{key!r}]) is type(c{i})")
    loads, checks, args = [], ["True"], []
    for i, (_, key, types, dec, _) in enumerate(plan):
        namespace[f"t{i}"], namespace[f"d{i}"] = types, dec
        loads.append(f"v{i} = data[{key!r}]")
        checks += [f"type(v{i}) in t{i}"] if types else []
        args.append(f"v{i}" if types else f"d{i}(v{i})")
    exec(
        f"def decode(data):\n"
        f"    if {' and '.join(tests)}:\n"
        f"        try:\n"
        f"            {'; '.join(loads)}\n"
        f"            if {' and '.join(checks)}:\n"
        f"                return cls({', '.join(args)})\n"
        f"        except (KeyError, _Mismatch):\n"
        f"            pass\n"
        f"    return checked(data)\n",
        namespace,
    )
    return namespace["decode"]
