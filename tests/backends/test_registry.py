"""Registry behavior: lookup, error paths, lazy specs, extension."""

import pytest

from repro.backends import (
    Backend,
    BackendError,
    available_backends,
    create_backend,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.model import ModelBackend
from repro.errors import ParameterError, ReproError
from repro.ntt.params import NTTParams

TINY = dict(width=8, rows=32, cols=32)


@pytest.fixture
def tiny_params():
    return NTTParams(n=8, q=17)


class TestLookup:
    def test_builtins_registered(self):
        assert available_backends() == ("model", "sram")

    def test_get_backend_resolves_factory(self):
        assert callable(get_backend("model"))

    def test_create_backend_builds_instances(self, tiny_params):
        for name in available_backends():
            backend = create_backend(name, tiny_params, **TINY)
            assert isinstance(backend, Backend)
            caps = backend.capabilities()
            assert caps.name == name
            assert caps.batch >= 1
            assert caps.ops == ("ntt", "intt", "polymul")

    def test_stateful_split(self, tiny_params):
        # The interpreter owns a real subarray; the pure backends do not.
        assert create_backend("sram", tiny_params, **TINY).capabilities().stateful
        assert not create_backend("model", tiny_params, **TINY).capabilities().stateful


class TestErrorPaths:
    def test_unknown_name(self):
        with pytest.raises(BackendError, match="unknown backend 'does-not-exist'"):
            get_backend("does-not-exist")

    def test_unknown_name_lists_available(self):
        with pytest.raises(BackendError, match="model"):
            get_backend("does-not-exist")

    def test_backend_error_is_catchable_as_parameter_error(self):
        with pytest.raises(ParameterError):
            get_backend("does-not-exist")
        with pytest.raises(ReproError):
            get_backend("does-not-exist")

    def test_duplicate_registration_rejected(self):
        register_backend("dup-test", ModelBackend)
        try:
            with pytest.raises(BackendError, match="already registered"):
                register_backend("dup-test", ModelBackend)
        finally:
            unregister_backend("dup-test")

    def test_replace_allows_override(self):
        register_backend("replace-test", ModelBackend)
        try:
            register_backend("replace-test", ModelBackend, replace=True)
        finally:
            unregister_backend("replace-test")

    def test_bad_name_rejected(self):
        with pytest.raises(BackendError):
            register_backend("", ModelBackend)

    def test_non_callable_factory_rejected(self):
        with pytest.raises(BackendError):
            register_backend("bad-factory", 42)

    def test_malformed_lazy_spec_rejected(self):
        with pytest.raises(BackendError, match="module.path:attribute"):
            register_backend("bad-spec", "no.colon.here")

    def test_broken_lazy_spec_fails_at_lookup(self):
        register_backend("broken-spec", "nonexistent_module_xyz:Thing")
        try:
            with pytest.raises(BackendError, match="failed to load"):
                get_backend("broken-spec")
        finally:
            unregister_backend("broken-spec")

    def test_unregister_is_idempotent(self):
        unregister_backend("never-registered")  # no raise


class TestExtension:
    def test_custom_backend_reachable_by_name(self, tiny_params):
        class EchoBackend(ModelBackend):
            name = "echo-test"
            description = "test double"

        register_backend("echo-test", EchoBackend)
        try:
            assert "echo-test" in available_backends()
            backend = create_backend("echo-test", tiny_params, **TINY)
            assert backend.capabilities().name == "echo-test"
        finally:
            unregister_backend("echo-test")

    def test_lazy_spec_resolves_and_caches(self, tiny_params):
        register_backend("lazy-test", "repro.backends.model:ModelBackend")
        try:
            factory = get_backend("lazy-test")
            assert factory is ModelBackend
            # Resolved spec is cached: second lookup returns the callable.
            assert get_backend("lazy-test") is ModelBackend
        finally:
            unregister_backend("lazy-test")
