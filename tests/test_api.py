"""Public API surface and exception hierarchy."""

import pytest

import repro
from repro import errors

#: The package roots whose ``__all__`` resolves on first access.
LAZY_ROOTS = (
    "repro", "repro.core", "repro.error", "repro.experiments",
    "repro.faults", "repro.fleet", "repro.frontend", "repro.ftl",
    "repro.metrics", "repro.nand", "repro.sim", "repro.slc_cache",
    "repro.traces",
)


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_specific_parents(self):
        assert issubclass(errors.ProgramOrderError, errors.FlashError)
        assert issubclass(errors.PartialProgramLimitError, errors.FlashError)
        assert issubclass(errors.OutOfSpaceError, errors.AllocationError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.TraceError("x")


class TestPublicApi:
    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_lazy_exports_resolve_to_their_modules(self):
        import importlib

        for package in LAZY_ROOTS:
            root = importlib.import_module(package)
            for name in root.__all__:
                namespace: dict = {}
                exec(f"from {package} import {name}", namespace)
                if name == "__version__":
                    continue
                module = importlib.import_module(root._EXPORTS[name], package)
                value = getattr(module, name)
                assert namespace[name] is value, (package, name)
                # Classes and functions record where they are defined.
                assert getattr(value, "__module__", module.__name__) == (
                    module.__name__), (package, name)
            assert set(root.__all__) <= set(dir(root)), package
            with pytest.raises(AttributeError):
                getattr(root, "NoSuchName")

    def test_scheme_registry(self):
        assert set(repro.SCHEMES) == {"baseline", "mga", "ipu", "delta"}
        for name, cls in repro.SCHEMES.items():
            assert cls.scheme_name == name

    def test_partial_programming_flags(self):
        assert not repro.BaselineFTL.uses_partial_programming
        assert repro.MGAFTL.uses_partial_programming
        assert repro.IPUFTL.uses_partial_programming
        assert repro.DeltaFTL.uses_partial_programming

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_runs(self):
        """The module docstring's quickstart must actually work."""
        from repro import IPUFTL, Simulator, scaled_config
        from repro.traces import generate, profile

        config = scaled_config("smoke", seed=1)
        trace = generate(profile("ts0"), n_requests=300, seed=1)
        result = Simulator(IPUFTL(config)).run(trace)
        assert result.n_requests == 300
