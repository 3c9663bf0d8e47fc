"""Strict JSON input: the one reader of every JSON file the package reads.

`parse` turns text into a JSON value and rejects a key repeated in one
object. `read` checks a value against a type annotation and builds the
dataclasses it names: `int` takes a JSON integer only (no bool, no 2.0),
`float` any JSON number but a bool, `str`, `bool` and `dict` that JSON type,
`X | None` X or null, `list[X]` an array of X, and a dataclass an object with
no unknown keys and every field that has no default, whose range checks stay
in its `__post_init__`. Problems raise `error` (ConfigError for the run
config, DataError for data files) as `where: dotted.key: problem`.
"""

from __future__ import annotations

import functools
import itertools
import json
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigError, DataError

# per leaf annotation: the types json gives the JSON values it takes, and its name
_LEAVES = {int: ((int,), "int"), float: ((int, float), "float"), str: ((str,), "str"),
           bool: ((bool,), "bool"), type(None): ((type(None),), "null"), dict: ((dict,), "object")}


class _Bad(Exception):
    """args: (dotted key, problem)."""


def _expected(key: str, name: str, value) -> _Bad:
    shown = repr(value)
    return _Bad(key, f"expected {name}, got {shown if len(shown) <= 60 else shown[:57] + '...'}")


def _object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        raise _Bad("", f"duplicate key {next(k for k, _ in pairs if k in seen or seen.add(k))!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def parse(text: str, path: str, error: type[Exception], line: int | None = None):
    """The JSON value of `text`: the whole file `path`, or its line `line`."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as e:
        msg = "trailing garbage after the JSON value" if e.msg == "Extra data" else e.msg
        raise error(f"{path}:{e.lineno if line is None else line}: {msg}") from None
    except _Bad as e:
        raise error(f"{path if line is None else f'{path}:{line}'}: {e.args[1]}") from None


def read(hint, value, key: str, error: type[Exception], where: str = ""):
    """`value` read as annotation `hint`; `key` is its dotted name in messages."""
    try:
        return _reader(hint)[0](value, key)
    except _Bad as e:
        raise error(": ".join(p for p in (where, e.args[0].lstrip("."), e.args[1]) if p)) from None


def load(hint, text: str, path: str, error: type[Exception], line: int | None = None):
    """`parse`, then `read` as `hint`."""
    return read(hint, parse(text, path, error, line), "", error, path if line is None else f"{path}:{line}")


def _leaf_types(hint) -> tuple | None:
    """The value types of a leaf annotation or a union of leaves, else None."""
    parts = typing.get_args(hint) if typing.get_origin(hint) in (typing.Union, types.UnionType) else (hint,)
    return tuple(t for p in parts for t in _LEAVES[p][0]) if all(p in _LEAVES for p in parts) else None


@functools.cache
def _reader(hint) -> tuple[typing.Callable, str]:
    """(read(value, key), name of the JSON type) for one annotation. Cached,
    so each dataclass's type hints are resolved once."""
    if ok := _leaf_types(hint):
        name = " or ".join(_LEAVES[p][1] for p in (typing.get_args(hint) or (hint,)))

        def read_leaf(v, key):
            if type(v) in ok:
                return v
            raise _expected(key, name, v)

        return read_leaf, name
    if is_dataclass(hint):
        return _object_reader(hint), "object"
    arg = next(a for a in typing.get_args(hint) if a is not type(None))
    item, item_name = _reader(arg)
    if typing.get_origin(hint) is not list:  # X | None
        return (lambda v, key: None if v is None else item(v, key)), f"{item_name} or null"
    name, leaf_items = f"list[{item_name}]", set(_leaf_types(arg) or ())
    leaf_rows = typing.get_origin(arg) is list and set(_leaf_types(typing.get_args(arg)[0]) or ())

    def read_list(v, key):
        if type(v) is not list:
            raise _expected(key, name, v)
        if leaf_items and set(map(type, v)) <= leaf_items:  # checked at C speed, as are rows of leaves
            return v
        if leaf_rows and set(map(type, v)) <= {list} and set(map(type, itertools.chain(*v))) <= leaf_rows:
            return v
        return [item(x, f"{key}[{i}]") for i, x in enumerate(v)]

    return read_list, name


def _object_reader(cls) -> typing.Callable:
    hints = typing.get_type_hints(cls)
    specs = [(f.name, _reader(hints[f.name])[0], f.default is MISSING and f.default_factory is MISSING)
             for f in fields(cls)]
    names = {name for name, _, _ in specs}

    def read_object(v, key):
        if type(v) is not dict:
            raise _expected(key, "object", v)
        if not v.keys() <= names:
            raise _Bad(key, f"unknown keys: {sorted(v.keys() - names)}")
        kw = {}
        for name, read_field, required in specs:
            if name in v:
                kw[name] = read_field(v[name], f"{key}.{name}")
            elif required:
                raise _Bad(f"{key}.{name}", "missing")
        try:
            return cls(**kw)
        except (ConfigError, DataError) as e:
            raise _Bad(key, str(e)) from e

    return read_object
