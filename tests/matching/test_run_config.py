"""RunConfig API redesign: legacy-kwarg shim parity, warning discipline,
mixing errors, and config evolution."""

import warnings

import numpy as np
import pytest

from repro.graph.generators import rmat_graph
from repro.matching import RunConfig, run_matching
from repro.matching.driver import MatchingOptions
from repro.mpisim.machine import commodity_cluster, cori_aries


def fingerprint(res):
    return (res.makespan, res.weight, res.iterations, res.total_messages(),
            res.mate.tobytes())


class TestLegacyShim:
    def test_legacy_kwargs_warn_exactly_once(self):
        g = rmat_graph(6, seed=2)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            run_matching(g, 4, "nsr", machine=cori_aries(), compute_weight=False)
        deps = [x for x in w if issubclass(x.category, DeprecationWarning)]
        assert len(deps) == 1
        assert "config=RunConfig" in str(deps[0].message)

    def test_legacy_call_bit_identical_to_config_call(self):
        """The shim packs legacy kwargs into RunConfig — same bits out."""
        g = rmat_graph(7, seed=3)
        machine = commodity_cluster()
        options = MatchingOptions(eager_reject=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            old = run_matching(
                g, 4, "ncl", machine=machine, options=options,
                max_ops=None, trace=False, scheduler="heap",
            )
        new = run_matching(
            g, 4, "ncl",
            config=RunConfig(machine=machine, options=options,
                             max_ops=None, trace=False, scheduler="heap"),
        )
        assert fingerprint(old) == fingerprint(new)

    def test_positional_machine_is_legacy(self):
        g = rmat_graph(6, seed=2)
        with pytest.warns(DeprecationWarning):
            res = run_matching(g, 4, "nsr", cori_aries())
        base = run_matching(g, 4, "nsr", config=RunConfig(machine=cori_aries()))
        assert fingerprint(res) == fingerprint(base)

    def test_no_kwargs_no_warning(self):
        g = rmat_graph(6, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_matching(g, 4, "nsr", config=RunConfig(compute_weight=False))
            run_matching(g, 4, "nsr")  # bare default call is also clean

    def test_mixing_config_and_legacy_raises(self):
        g = rmat_graph(6, seed=2)
        with pytest.raises(TypeError, match="cannot mix config="):
            run_matching(g, 4, "nsr", machine=cori_aries(),
                         config=RunConfig())

    def test_explicit_none_counts_as_legacy(self):
        """machine=None was a meaningful legacy spelling (use the default
        machine); the sentinel must distinguish it from "not passed"."""
        g = rmat_graph(6, seed=2)
        with pytest.warns(DeprecationWarning):
            res = run_matching(g, 4, "nsr", machine=None)
        assert fingerprint(res) == fingerprint(run_matching(g, 4, "nsr"))


class TestRunConfig:
    def test_frozen(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.profile = True

    def test_evolve(self):
        cfg = RunConfig(scheduler="reference")
        cfg2 = cfg.evolve(profile=True)
        assert cfg2.profile and cfg2.scheduler == "reference"
        assert not cfg.profile  # original untouched

    def test_defaults_match_legacy_defaults(self):
        cfg = RunConfig()
        assert cfg.machine is None and cfg.options is None
        assert cfg.dist is None and cfg.max_ops is None
        assert cfg.faults is None
        assert cfg.trace is False and cfg.profile is False
        assert cfg.compute_weight is True and cfg.scheduler == "heap"

    def test_engine_default_is_hermetic(self, monkeypatch):
        """The default engine is a constant, not read from the environment."""
        monkeypatch.setenv("REPRO_ENGINE", "threaded")
        assert RunConfig().engine == "coroutine"
        res = run_matching(rmat_graph(6, seed=2), 4, "nsr")
        assert res.engine.engine == "coroutine"

    def test_result_records_explicit_engine(self):
        g = rmat_graph(6, seed=2)
        res = run_matching(g, 4, "nsr", config=RunConfig(engine="threaded"))
        assert res.engine.engine == "threaded"
        assert fingerprint(res) == fingerprint(run_matching(g, 4, "nsr"))

    @pytest.mark.parametrize("field,value", [
        ("engine", "corutine"), ("engine", None), ("scheduler", "hep"),
    ])
    def test_typo_rejected_at_construction_and_by_evolve(self, field, value):
        with pytest.raises(ValueError, match=f"unknown {field}"):
            RunConfig(**{field: value})
        with pytest.raises(ValueError, match=f"unknown {field}"):
            RunConfig(profile=True).evolve(**{field: value})

    def test_compute_weight_false_yields_nan(self):
        g = rmat_graph(6, seed=2)
        res = run_matching(g, 4, "nsr", config=RunConfig(compute_weight=False))
        assert np.isnan(res.weight)
