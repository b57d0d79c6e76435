"""The generic string-keyed factory registry behind the plugin seams.

Two subsystems expose the same extension idiom — execution backends
(:mod:`repro.backends.registry`) and serving schedulers
(:mod:`repro.sched.registry`): factories registered under names, lazy
``"module.path:attribute"`` specs resolved on first use, and a sorted
name listing the CLI derives its choices from.  This module holds the
one implementation both wrap, parameterized by the kind of thing being
registered and the error class to raise, so a fix to spec resolution
or validation reaches every seam.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Tuple, Type, Union


class FactoryRegistry:
    """Name -> factory (or lazy ``"module:attr"`` spec) with validation.

    ``kind`` names the registered thing in error messages ("backend",
    "scheduler"); ``error`` is the exception class raised for every
    misuse, so each seam keeps its own catchable error type.
    """

    def __init__(self, kind: str, error: Type[Exception]):
        self.kind = kind
        self.error = error
        self._entries: Dict[str, Union[str, Callable]] = {}
        self._namespaces: Dict[str, Union[str, Callable]] = {}

    def register(self, name: str, factory: Union[str, Callable], *,
                 replace: bool = False) -> None:
        """Register ``factory`` under ``name`` (see module docs).

        Registering an existing name raises unless ``replace=True``
        (duplicate registrations are almost always two modules fighting
        over a name).
        """
        if not name or not isinstance(name, str):
            raise self.error(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        if name in self._entries and not replace:
            raise self.error(
                f"{self.kind} {name!r} is already registered; "
                f"pass replace=True to override"
            )
        if isinstance(factory, str):
            if ":" not in factory:
                raise self.error(
                    f"lazy {self.kind} spec must look like "
                    f"'module.path:attribute', got {factory!r}"
                )
        elif not callable(factory):
            raise self.error(
                f"{self.kind} factory must be callable, got {factory!r}"
            )
        self._entries[name] = factory

    def register_namespace(self, prefix: str, wrapper: Union[str, Callable], *,
                           replace: bool = False) -> None:
        """Register ``wrapper`` as a factory-of-factories under ``prefix``.

        A namespace turns every base entry ``inner`` into a derived name
        ``"<prefix>:<inner>"``: :meth:`get` resolves such a name by
        calling ``wrapper(inner)``, which must return a factory with the
        registry's usual signature.  ``wrapper`` may itself be a lazy
        ``"module.path:attribute"`` spec.
        """
        if not prefix or not isinstance(prefix, str) or ":" in prefix:
            raise self.error(
                f"{self.kind} namespace prefix must be a non-empty string "
                f"without ':', got {prefix!r}"
            )
        if prefix in self._namespaces and not replace:
            raise self.error(
                f"{self.kind} namespace {prefix!r} is already registered; "
                f"pass replace=True to override"
            )
        if isinstance(wrapper, str):
            if ":" not in wrapper:
                raise self.error(
                    f"lazy {self.kind} namespace spec must look like "
                    f"'module.path:attribute', got {wrapper!r}"
                )
        elif not callable(wrapper):
            raise self.error(
                f"{self.kind} namespace wrapper must be callable, "
                f"got {wrapper!r}"
            )
        self._namespaces[prefix] = wrapper

    def unregister(self, name: str) -> None:
        """Remove an entry (no-op when absent); used by tests and plugins."""
        self._entries.pop(name, None)
        self._namespaces.pop(name, None)

    def _resolve(self, name: str, spec: Union[str, Callable]) -> Callable:
        if isinstance(spec, str):
            module_name, _, attribute = spec.partition(":")
            try:
                spec = getattr(importlib.import_module(module_name), attribute)
            except (ImportError, AttributeError) as error:
                raise self.error(
                    f"{self.kind} {name!r} failed to load from "
                    f"{module_name}:{attribute}: {error}"
                ) from error
        return spec

    def get(self, name: str) -> Callable:
        """The factory registered under ``name`` (resolving lazy specs).

        Names of the form ``"<prefix>:<inner>"`` where ``prefix`` is a
        registered namespace resolve through the namespace wrapper:
        ``wrapper(inner)`` builds the derived factory.
        """
        try:
            spec = self._entries[name]
        except KeyError:
            prefix, separator, inner = name.partition(":") if isinstance(
                name, str) else ("", "", "")
            if separator and inner and prefix in self._namespaces:
                wrapper = self._resolve(prefix, self._namespaces[prefix])
                self._namespaces[prefix] = wrapper
                return wrapper(inner)
            raise self._unknown(name) from None
        spec = self._resolve(name, spec)
        self._entries[name] = spec
        return spec

    def require(self, name: str) -> None:
        """Raise :meth:`get`'s error for a name nothing is registered under.

        Resolves no lazy spec, so it imports nothing.  A namespaced
        ``"<prefix>:<inner>"`` name needs ``inner`` registered, as the
        namespace wrapper looks it up when the factory runs.
        """
        if name in self._entries:
            return
        prefix, separator, inner = name.partition(":") if isinstance(
            name, str) else ("", "", "")
        if separator and inner and prefix in self._namespaces:
            self.require(inner)
            return
        raise self._unknown(name)

    def _unknown(self, name) -> Exception:
        return self.error(
            f"unknown {self.kind} {name!r}; available: "
            f"{', '.join(self.available()) or '(none)'}"
        )

    def available(self) -> Tuple[str, ...]:
        """Registered names, sorted (the CLI derives choices from this).

        Namespaces expand over the base entries, so a ``cluster``
        namespace over ``{"fifo", "slo"}`` contributes ``cluster:fifo``
        and ``cluster:slo``.
        """
        names = set(self._entries)
        for prefix in self._namespaces:
            names.update(f"{prefix}:{base}" for base in self._entries
                         if ":" not in base)
        return tuple(sorted(names))
