"""The one record codec (``repro.record``): round trips and rejections.

Every :class:`~repro.record.Record` class must survive
``from_dict(to_dict(x))`` and ``from_json(to_json(x))`` unchanged, and
every bad payload — not an object, an unknown key, a missing required
field, a mistyped value, malformed JSON — must raise the class's own
:class:`~repro.errors.ReproError` subclass naming the field, never a
builtin exception.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    CacheConfig,
    GeometryConfig,
    ReliabilityConfig,
    SSDConfig,
    TimingConfig,
    TranslationConfig,
)
from repro.errors import ConfigError, ReproError, SimulationError
from repro.faults import FaultConfig
from repro.fleet import FleetConfig, TenantSpec
from repro.frontend import FrontendConfig
from repro.record import Record
from repro.sim.simulator import SimulationResult
from repro.traces.profiles import PROFILES, TraceProfile

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

FINITE = dict(allow_nan=False, allow_infinity=False)


def numbers(lo: float, hi: float) -> st.SearchStrategy:
    """Floats in ``[lo, hi]``, sometimes spelled as ints (an int is a
    valid float and must round-trip as the same int)."""
    out = st.floats(lo, hi, **FINITE)
    if math.ceil(lo) <= math.floor(hi):
        out = out | st.integers(math.ceil(lo), math.floor(hi))
    return out


def positive(hi: float = 100.0) -> st.SearchStrategy:
    return st.floats(1e-6, hi, **FINITE) | st.integers(1, int(hi))


@st.composite
def geometries(draw) -> GeometryConfig:
    channels = draw(st.integers(1, 8))
    chips = draw(st.integers(1, 4))
    planes = draw(st.integers(1, 2))
    slc_pages = draw(st.integers(1, 64))
    subpage = draw(st.sampled_from([512, 4096]))
    return GeometryConfig(
        channels=channels, chips_per_channel=chips, planes_per_chip=planes,
        total_blocks=channels * chips * planes * draw(st.integers(2, 64)),
        slc_pages_per_block=slc_pages,
        mlc_pages_per_block=draw(st.integers(slc_pages, 256)),
        page_size=subpage * draw(st.integers(1, 8)), subpage_size=subpage)


@st.composite
def timings(draw) -> TimingConfig:
    ecc_min = draw(numbers(0.0, 0.01))
    return TimingConfig(
        slc_read_ms=draw(positive()), mlc_read_ms=draw(positive()),
        slc_write_ms=draw(positive()), mlc_write_ms=draw(positive()),
        erase_ms=draw(positive()), ecc_min_ms=ecc_min,
        ecc_max_ms=draw(numbers(ecc_min, 1.0)),
        transfer_ms_per_subpage=draw(positive()),
        pipelined_bus=draw(st.booleans()))


@st.composite
def reliabilities(draw) -> ReliabilityConfig:
    fresh = draw(numbers(0.0, 1e-3))
    conventional = draw(numbers(fresh, 1e-2))
    return ReliabilityConfig(
        initial_pe_cycles=draw(st.integers(0, 10_000)),
        reference_pe_cycles=draw(st.integers(1, 10_000)),
        rber_fresh=fresh, rber_conventional_ref=conventional,
        rber_partial_ref=draw(numbers(conventional, 0.1)),
        pe_exponent=draw(positive(4.0)),
        mlc_rber_factor=draw(numbers(1.0, 4.0)),
        isr_refresh_ms=draw(numbers(0.0, 1e3)),
        neighbor_disturb_ratio=draw(numbers(0.0, 1.0)),
        read_disturb_unit_ratio=draw(numbers(0.0, 1.0)),
        retention_unit_per_ms=draw(numbers(0.0, 1.0)),
        bch_codeword_bytes=draw(st.integers(1, 4096)),
        bch_t=draw(st.integers(1, 64)),
        max_page_programs=draw(st.integers(1, 8)))


@st.composite
def caches(draw) -> CacheConfig:
    threshold = draw(st.floats(0.01, 0.5, **FINITE))
    return CacheConfig(
        slc_ratio=draw(st.floats(0.01, 0.5, **FINITE)),
        gc_threshold=threshold,
        gc_restore=draw(st.floats(threshold, 0.99, **FINITE)),
        gc_max_blocks_per_trigger=draw(st.integers(1, 8)),
        gc_pages_per_trigger=draw(st.integers(1, 64)),
        static_wear_leveling=draw(st.booleans()),
        wear_leveling_gap=draw(st.integers(1, 100)),
        wear_leveling_period=draw(st.integers(1, 100)))


translations = st.builds(TranslationConfig, enabled=st.booleans(),
                         entries_per_page=st.integers(1, 8192),
                         cache_pages=st.integers(1, 256))

ssd_configs = st.builds(
    SSDConfig, geometry=geometries(), timing=timings(),
    reliability=reliabilities(), cache=caches(), translation=translations,
    seed=st.none() | st.integers(-2**63, 2**63 - 1),
).filter(lambda c: c.mlc_blocks >= 1)


@st.composite
def trace_profiles(draw) -> TraceProfile:
    small = draw(st.floats(0.0, 0.5, **FINITE))
    mid = draw(st.floats(0.0, 0.5, **FINITE))
    return TraceProfile(
        name=draw(st.text(max_size=8)),
        n_requests=draw(st.integers(1, 10**7)),
        write_ratio=draw(numbers(1e-3, 1.0)),
        mean_write_bytes=draw(st.integers(512, 1 << 20)),
        hot_write_ratio=draw(numbers(0.0, 1.0)),
        update_size_probs=(small, mid, 1.0 - small - mid))


fault_configs = st.builds(
    FaultConfig, read_fault_scale=numbers(0.0, 1e3),
    program_fault_rate=numbers(0.0, 1.0), erase_fault_rate=numbers(0.0, 1.0),
    power_loss_per_ms=numbers(0.0, 1.0), read_retries_max=st.integers(1, 9),
    retry_success_scale=st.floats(1e-3, 1.0, **FINITE),
    relocate_after_retries=st.integers(1, 9),
    torn_window_ms=numbers(0.0, 10.0), max_retire_fraction=numbers(0.0, 1.0),
    program_retry_limit=st.integers(1, 9))

frontend_configs = st.builds(
    FrontendConfig, enabled=st.booleans(), queue_depth=st.integers(1, 256),
    buffer_subpages=st.integers(1, 4096),
    flush_watermark=st.floats(0.01, 0.99, **FINITE),
    writeback_delay_ms=numbers(0.0, 100.0),
    flush_span_subpages=st.integers(1, 64),
    write_ack_ms=numbers(0.0, 1.0), read_hit_ms=numbers(0.0, 1.0))

tenant_specs = st.builds(TenantSpec, profile=st.sampled_from(sorted(PROFILES)),
                         weight=positive())

fleet_configs = st.builds(
    FleetConfig, n_devices=st.integers(1, 16),
    tenants=st.lists(tenant_specs, min_size=1, max_size=3).map(tuple),
    scheme=st.sampled_from(["baseline", "mga", "ipu", "delta"]),
    scale=st.sampled_from(["smoke", "small"]), seed=st.integers(0, 2**32),
    n_epochs=st.integers(1, 16), epoch_requests=st.integers(1, 10**5),
    stripe_bytes=st.integers(1, 256).map(lambda k: 4096 * k),
    fault_rate=numbers(0.0, 4.0))


def _result_field(hint: object) -> st.SearchStrategy:
    if hint is np.ndarray:
        return st.lists(st.floats(**FINITE), max_size=8).map(
            lambda values: np.asarray(values, dtype=np.float64))
    if hint is int:
        return st.integers(-2**63, 2**63 - 1)
    if hint is float:
        return st.floats(**FINITE) | st.integers(-2**53, 2**53)
    if hint is str:
        return st.text(max_size=8)
    if hint == dict[int, int]:
        return st.dictionaries(st.integers(-2**31, 2**31), st.integers(0, 10**9),
                               max_size=4)
    raise AssertionError(f"no strategy for result field type {hint!r}")


simulation_results = st.builds(SimulationResult, **{
    name: _result_field(hint)
    for name, hint in typing.get_type_hints(SimulationResult).items()
    if name in {f.name for f in dataclasses.fields(SimulationResult)}})

#: A strategy of valid instances per record class.
STRATEGIES: dict[type[Record], st.SearchStrategy] = {
    GeometryConfig: geometries(),
    TimingConfig: timings(),
    ReliabilityConfig: reliabilities(),
    CacheConfig: caches(),
    TranslationConfig: translations,
    SSDConfig: ssd_configs,
    TraceProfile: trace_profiles(),
    FaultConfig: fault_configs,
    FrontendConfig: frontend_configs,
    TenantSpec: tenant_specs,
    FleetConfig: fleet_configs,
    SimulationResult: simulation_results,
}
RECORDS = sorted(STRATEGIES, key=lambda cls: cls.__name__)
IDS = [cls.__name__ for cls in RECORDS]


def subclasses(cls: type) -> set[type]:
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | subclasses(sub)
    return out


def field_types(record: Record) -> list:
    """Each field's exact type (and dtype, for an array).  ``==`` holds
    between an int and an equal float, so this is what shows a round
    trip turned one into the other."""
    return [(type(value), getattr(value, "dtype", None))
            for value in (getattr(record, f.name)
                          for f in dataclasses.fields(record))]


def wrong_values(hint: object) -> list:
    """JSON values the annotation ``hint`` must not admit."""
    origin = typing.get_origin(hint)
    if hint is bool:
        return [1, "true", None]
    if hint is int:
        return [True, 2.5, "8", None]
    if hint is float:
        return [True, "1.5", None, [1.0], math.nan, math.inf, -math.inf]
    if hint is str:
        return [1, None, ["a"]]
    if hint is np.ndarray:
        return ["1.0", "AAAA", [1.0], ["1.0"], [True], [[1.0]], {"0": 1.0},
                None]
    if hint == dict[int, int]:
        return [[1], {"x": 1}, {"01": 1}, {"1": True}, {"1": 1.5}]
    if origin is tuple:
        return ["ts0", {"profile": "ts0"}, 5, None, [1.0]]
    if isinstance(hint, type) and issubclass(hint, Record):
        return [5, "x", [1], None]
    if origin in (typing.Union, type(int | None)):
        (inner,) = (a for a in typing.get_args(hint) if a is not type(None))
        return [v for v in wrong_values(inner) if v is not None]
    raise AssertionError(f"no wrong values for {hint!r}")


def rejects(cls: type[Record], payload: object, *names: str) -> None:
    """``cls.from_dict(payload)`` raises the class's error naming every
    one of ``names``."""
    with pytest.raises(cls.error_type) as info:
        cls.from_dict(payload)
    message = str(info.value)
    assert cls.__name__ in message
    for name in names:
        assert name in message, (name, message)


def test_every_record_class_has_a_strategy():
    assert subclasses(Record) == set(STRATEGIES)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
@SETTINGS
@given(data=st.data())
def test_round_trips(cls, data):
    record = data.draw(STRATEGIES[cls])
    payload = record.to_dict()
    for decoded in (cls.from_dict(payload), cls.from_json(record.to_json())):
        assert type(decoded) is cls
        assert decoded == record
        assert field_types(decoded) == field_types(record)
    # The dict survives JSON text unchanged, and decoding coerces nothing.
    assert json.loads(json.dumps(payload)) == payload
    assert cls.from_dict(payload).to_dict() == payload


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
@SETTINGS
@given(data=st.data())
def test_rejects_non_object_unknown_and_missing(cls, data):
    record = data.draw(STRATEGIES[cls])
    payload = record.to_dict()
    not_object = data.draw(st.none() | st.integers() | st.text(max_size=4)
                           | st.lists(st.integers(), max_size=2))
    rejects(cls, not_object, type(not_object).__name__)
    key = data.draw(st.text(min_size=1, max_size=6).filter(
        lambda k: k not in payload))
    rejects(cls, {**payload, key: 1}, repr(key))
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    if required:
        name = data.draw(st.sampled_from(required))
        rejects(cls, {k: v for k, v in payload.items() if k != name},
                repr(name))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
@SETTINGS
@given(data=st.data())
def test_rejects_mistyped_values(cls, data):
    record = data.draw(STRATEGIES[cls])
    hints = typing.get_type_hints(cls)
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
    value = data.draw(st.sampled_from(wrong_values(hints[name])))
    # The path may go on into the value: 'tenants[0]', 'level_writes[1]'.
    rejects(cls, {**record.to_dict(), name: value}, f"'{name}")


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
@SETTINGS
@given(data=st.data())
def test_rejects_malformed_json(cls, data):
    text = data.draw(STRATEGIES[cls]).to_json()
    cut = data.draw(st.integers(0, len(text) - 1))
    for bad in (text[:cut], "{nope", b"\xff", None):
        with pytest.raises(cls.error_type, match=cls.__name__):
            cls.from_json(bad)


@pytest.mark.parametrize("call, field", [
    (lambda: FrontendConfig.from_dict({"queue_depth": "8"}), "queue_depth"),
    (lambda: FleetConfig.from_dict({"n_devices": 2.5}), "n_devices"),
    (lambda: FleetConfig.from_dict({"tenants": "ts0"}), "tenants"),
    (lambda: FleetConfig.from_dict({"tenants": [{"weight": 2.0}]}),
     "tenants[0].profile"),
    (lambda: SSDConfig.from_dict({"geometry": {"channels": "8"}}),
     "geometry.channels"),
    (lambda: SSDConfig.from_dict({"timing": {"warp_factor": 9}}),
     "timing.warp_factor"),
    (lambda: FaultConfig.from_dict(None), "NoneType"),
    (lambda: FleetConfig.from_json("{nope"), "malformed"),
], ids=["str-qd", "float-devices", "str-tenants", "tenant-no-profile",
        "str-channels", "unknown-nested", "none-payload", "bad-json"])
def test_config_rejections_name_the_field(call, field):
    with pytest.raises(ConfigError, match=field.replace("[", r"\[")):
        call()


def test_decoded_config_is_validated():
    with pytest.raises(ConfigError, match="slc_ratio"):
        SSDConfig.from_dict({"cache": {"slc_ratio": 2.0}})
    with pytest.raises(ConfigError, match="unknown tenant profile"):
        FleetConfig.from_dict({"tenants": [{"profile": "nope"}]})


def test_result_defaults_and_array_equality():
    empty = SimulationResult("ipu", "ts0", 0, 0.0, 0.0)
    assert empty.avg_latency_ms == 0.0
    assert empty.read_latencies.dtype == np.float64
    assert SimulationResult.from_dict(empty.to_dict()) == empty
    two = dataclasses.replace(empty, n_requests=2,
                              read_latencies=np.array([1.0, 2.0]))
    assert two == dataclasses.replace(empty, n_requests=2,
                                      read_latencies=np.array([1.0, 2.0]))
    assert two != dataclasses.replace(two, read_latencies=np.array([1.0, 3.0]))
    assert two != empty


#: float64 bit patterns: any 64-bit word, so NaN payloads, infinities,
#: subnormals and both zeros all occur.
float64_arrays = st.lists(st.integers(0, 2**64 - 1), max_size=32).map(
    lambda words: np.array(words, dtype=np.uint64).view(np.float64))


@SETTINGS
@given(array=float64_arrays)
def test_latency_arrays_round_trip_bit_exactly(array):
    array = np.concatenate([array, [-0.0, 5e-324, 2.2250738585072e-308]])
    result = SimulationResult("ipu", "ts0", 0, 0.0, 0.0,
                              read_latencies=array)
    for back in (SimulationResult.from_dict(result.to_dict()),
                 SimulationResult.from_json(result.to_json())):
        decoded = back.read_latencies
        assert decoded.dtype == np.float64 and decoded.flags.writeable
        assert decoded.tobytes() == array.tobytes()


@pytest.mark.parametrize("value", [
    [0.25, 1.0],
    "not base64!",
    base64.b64encode(bytes(7)).decode("ascii"),
    "AAAAAAAAAAB=",
], ids=["old-list", "not-base64", "odd-byte-count", "non-canonical"])
def test_bad_latency_encodings_name_the_field(value):
    payload = {**SimulationResult("ipu", "ts0", 0, 0.0, 0.0).to_dict(),
               "read_latencies": value}
    with pytest.raises(SimulationError, match="read_latencies"):
        SimulationResult.from_dict(payload)


def float_fields(cls: type[Record]) -> list[str]:
    """Fields annotated ``float`` or ``float | None``."""
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls)
            if hints[f.name] in (float, float | None)]


FLOAT_RECORDS = [cls for cls in RECORDS if float_fields(cls)]


@pytest.mark.parametrize("cls", FLOAT_RECORDS,
                         ids=[cls.__name__ for cls in FLOAT_RECORDS])
@SETTINGS
@given(data=st.data())
def test_non_finite_floats_name_the_field(cls, data):
    """NaN and both infinities are no float a record admits: JSON's
    ``NaN``/``Infinity`` spellings would otherwise slip past every
    ``value <= 0`` check."""
    payload = data.draw(STRATEGIES[cls]).to_dict()
    for name in float_fields(cls):
        for value in (math.nan, math.inf, -math.inf):
            rejects(cls, {**payload, name: value}, f"'{name}'",
                    "finite float")


def test_nan_in_a_config_file_names_the_field():
    text = '{"timing": {"slc_read_ms": NaN}}'
    with pytest.raises(ConfigError, match="'timing.slc_read_ms'.*finite"):
        SSDConfig.from_json(text)


def test_errors_are_repro_errors():
    for cls in RECORDS:
        assert issubclass(cls.error_type, ReproError)
    assert SimulationResult.error_type.__name__ == "SimulationError"
    assert TraceProfile.error_type.__name__ == "TraceError"
