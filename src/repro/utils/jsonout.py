"""Indented JSON, byte-identical to ``json.dumps(obj, indent=k, sort_keys=s)``.

The stdlib falls back to its pure-Python, generator-per-token encoder
whenever ``indent`` is set (Python <= 3.12), and the serving stack's
indented documents — the canonical report, the Chrome trace, the
``check --json`` findings — are large.  This encoder writes the same
bytes with far less interpreter work:

- every dict is filled into a ``%``-template built once per
  ``(key tuple, depth)`` — the ``": "``/``",\\n"`` punctuation and the
  escaped keys are in the template, so a dict costs one ``%`` and one
  encode per value;
- scalars go straight to the C-level ``encode_basestring_ascii``,
  ``int.__repr__`` and ``float.__repr__``, with ``NaN``/``Infinity``/
  ``-Infinity`` spelled as json spells them.

The template cache lives for one call.  It stores only key tuples whose
keys are all exact ``str``: ``(1,)``, ``(True,)`` and ``(1.0,)`` are
equal tuples that json spells ``"1"``, ``"true"`` and ``"1.0"``, while a
non-str key never equals a str, so every cache hit is exact.

json's other rules hold: ``bool`` before ``int``; ``int``/``float``/
``str`` subclasses (``IntEnum``, str ``Enum``) encode as their base
type; dict keys convert by json's rules; ``sort_keys`` orders by the
original keys; anything else raises ``TypeError``.  Cycles are not
detected.

From Python 3.13 ``json`` is C-accelerated with ``indent``; once
``python_requires`` reaches it, measure this module against the stdlib
and delete it if it no longer wins.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _str
from math import isfinite
from operator import itemgetter
from typing import Callable, Iterator, List, Tuple

__all__ = ["dumps", "encoder", "iterencode"]

_int = int.__repr__
_float = float.__repr__
#: :func:`iterencode` yields the top-level container and its children
#: one element at a time; deeper values are one string each.
_STREAM_DEPTH = 2


def _float_str(value: float) -> str:
    """A float as json spells it, ``NaN`` and ``Infinity`` included."""
    if isfinite(value):
        return _float(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _key_str(key) -> str:
    """A dict key as json converts it, before escaping."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_str(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return _int(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _make_encoder(indent: int, sort_keys: bool
                  ) -> Tuple[Callable[[object, int], str],
                             Callable[[dict], List[Tuple[str, object]]]]:
    """``encode(o, level)`` and ``entries(d)`` for one call; the template
    cache lives and dies with them."""
    pad = " " * indent
    templates = {}  # (all-str key tuple, level) -> (template, getter)

    def entries(d: dict) -> List[Tuple[str, object]]:
        """``('"key": ', original key)`` in output order."""
        keys = sorted(d) if sort_keys else d
        return [(_str(_key_str(k)) + ": ", k) for k in keys]

    def template_for(d: dict, level: int):
        pairs = entries(d)
        inner = "\n" + pad * (level + 1)
        body = ("," + inner).join(
            prefix.replace("%", "%%") + "%s" for prefix, _ in pairs)
        template = "{" + inner + body + "\n" + pad * level + "}"
        order = [k for _, k in pairs]
        if len(order) == 1:
            only = order[0]
            return template, lambda d: (d[only],)
        return template, itemgetter(*order)

    def encode(o, level: int) -> str:
        kind = type(o)
        if kind is str:
            return _str(o)
        if kind is float:
            return _float(o) if isfinite(o) else _float_str(o)
        if kind is int:
            return _int(o)
        if kind is dict:
            return encode_dict(o, level)
        if kind is list or kind is tuple:
            return encode_list(o, level)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        # Subclasses (IntEnum, str Enum, ...), in json's order.
        if isinstance(o, str):
            return _str(o)
        if isinstance(o, int):
            return _int(o)
        if isinstance(o, float):
            return _float_str(o)
        if isinstance(o, (list, tuple)):
            return encode_list(o, level)
        if isinstance(o, dict):
            return encode_dict(o, level)
        raise TypeError(
            f"Object of type {o.__class__.__name__} is not JSON serializable")

    def encode_list(items, level: int) -> str:
        if not items:
            return "[]"
        inner = level + 1
        newline = "\n" + pad * inner
        return ("[" + newline
                + ("," + newline).join([encode(v, inner) for v in items])
                + "\n" + pad * level + "]")

    def encode_dict(d: dict, level: int) -> str:
        if not d:
            return "{}"
        keys = tuple(d)
        cached = templates.get((keys, level))
        if cached is None:
            cached = template_for(d, level)
            if all(type(k) is str for k in keys):
                templates[keys, level] = cached
        template, getter = cached
        inner = level + 1
        return template % tuple([encode(v, inner) for v in getter(d)])

    return encode, entries


def dumps(obj, *, indent: int, sort_keys: bool = False) -> str:
    """``json.dumps(obj, indent=indent, sort_keys=sort_keys)``, faster."""
    return encoder(indent, sort_keys=sort_keys)(obj, 0)


def encoder(indent: int, *, sort_keys: bool = False
            ) -> Callable[[object, int], str]:
    """``encode(obj, level)``: the text :func:`dumps` writes for ``obj``
    when it sits ``level`` containers deep, for a caller that splices
    values into its own templates.  One encoder shares its templates
    across calls."""
    return _make_encoder(indent, sort_keys)[0]


def iterencode(obj, *, indent: int, sort_keys: bool = False
               ) -> Iterator[str]:
    """:func:`dumps` in chunks: one string per element of the top-level
    container and of each of its child containers, for
    ``handle.writelines`` to stream without building the whole text."""
    encode, entries = _make_encoder(indent, sort_keys)
    pad = " " * indent

    def stream(o, level: int, depth: int) -> Iterator[str]:
        if not (depth and isinstance(o, (list, tuple, dict)) and o):
            yield encode(o, level)
            return
        if isinstance(o, dict):
            opener, closer = "{", "}"
            pairs = [(prefix, o[k]) for prefix, k in entries(o)]
        else:
            opener, closer = "[", "]"
            pairs = [("", v) for v in o]
        inner = level + 1
        newline = "\n" + pad * inner
        head = opener + newline
        for prefix, value in pairs:
            chunks = stream(value, inner, depth - 1)
            yield head + prefix + next(chunks)
            yield from chunks
            head = "," + newline
        yield "\n" + pad * level + closer

    return stream(obj, 0, _STREAM_DEPTH)
