"""Record contract: every glueforge record class, and every record class of
tests/oracles.py, behaves as its stdlib `dataclass(frozen=True)` twin,
built here from the same annotations, defaults and methods."""

import dataclasses
import importlib
import pkgutil

import pytest

import glueforge
from glueforge.certify import check_bounded_combinatorics
from glueforge.decompose import full_and_maximal_decomposition
from glueforge.errors import GlueforgeError, ValidationError
from glueforge.halfplane import TeichPoint
from glueforge.hypgraph import GraphBackend, GraphProjection, cycle_graph
from glueforge.hyplab import check_qconvex_stability
from glueforge.measures import slot_measures
from glueforge.model import build_skeleton, verify_thickness
from glueforge.record import FrozenRecordError, Record
from glueforge.surface import BackendHandle
from glueforge.torus import REFLECTION, FareyMarking, Slope, SurfaceMap
from glueforge.transforms import _stacks, collapse_ibundles
from builders import (
    MU,
    body_spec,
    core,
    example_builders,
    full_featured_gluing,
    split_spec,
    tmap,
    twisted_end,
)
from oracles import CompressionStep, PathWitness, build_compression, unmarked_slots

for _info in pkgutil.iter_modules(glueforge.__path__):
    importlib.import_module(f"glueforge.{_info.name}")


def _record_classes(base: type) -> list[type]:
    out = []
    for sub in base.__subclasses__():
        if sub.__module__.startswith("glueforge.") or sub.__module__ == "oracles":
            out.append(sub)
        out.extend(_record_classes(sub))
    return out


RECORDS = {cls.__qualname__: cls for cls in _record_classes(Record)}

# the methods Record supplies, which the twin gets from the decorator instead
_MACHINERY = {
    "__init__",
    "__eq__",
    "__hash__",
    "__repr__",
    "__setattr__",
    "__delattr__",
    "__dict__",
    "__weakref__",
    "_fields",
    "_defaults",
    "_values",
}


def twin_of(cls: type) -> type:
    namespace = {k: v for k, v in vars(cls).items() if k not in _MACHINERY}
    twin = type(cls.__name__, (), namespace)
    twin.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(twin)


def _collect(obj: object, into: dict, seen: set) -> None:
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Record):
        into.setdefault(type(obj).__qualname__, []).append(obj)
        for value in vars(obj).values():
            _collect(value, into, seen)
    elif isinstance(obj, (tuple, list, frozenset, set)):
        for value in obj:
            _collect(value, into, seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            _collect(value, into, seen)


@pytest.fixture(scope="module")
def samples() -> dict:
    """Records met on the pipelines over the example gluings, plus a few
    built directly for classes no pipeline result holds."""
    roots: list[object] = []
    builds = [*example_builders().values(), twisted_end, full_featured_gluing]
    for build in builds:
        x = build()
        roots.append(x)
        runs = [
            lambda: check_bounded_combinatorics(x, 6, 1),
            lambda: collapse_ibundles(x, 6, 1),
            lambda: full_and_maximal_decomposition(x),
            lambda: slot_measures(x),
        ]
        for run in runs:
            try:
                roots.append(run())
            except GlueforgeError:
                pass
        skeleton = build_skeleton(x, samples=3)
        assert skeleton.omitted == unmarked_slots(x)
        roots.extend((skeleton, verify_thickness(skeleton, 0.1)))
    stack = example_builders()["stack"]()
    roots.extend((_stacks(stack), split_spec()))
    step = CompressionStep("c0", body_spec("C0"), ("p0", "E0"), tmap(REFLECTION))
    roots.extend((step, build_compression(core("M0", MU), [step])))
    g = cycle_graph(8)
    witness = PathWitness((0, 1, 2, 3))
    roots.extend(
        (
            check_qconvex_stability(g, [0, 1, 2], 1),
            g,
            witness,
            BackendHandle.finite_graph(g, {"W": [0, 1]}, [GraphProjection((0, 1), (3,), "W0", 7)]),
        )
    )
    found: dict = {}
    _collect(roots, found, set())
    return found


def test_every_record_class_has_samples(samples):
    assert RECORDS
    missing = sorted(set(RECORDS) - set(samples))
    assert not missing


def field_names(twin: type) -> list[str]:
    return [f.name for f in dataclasses.fields(twin)]


def attempt(call):
    """What a call returns, or the type of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared: both sides must raise alike
        return type(exc)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_matches_frozen_dataclass(samples, name):
    cls = RECORDS[name]
    twin = twin_of(cls)
    names = field_names(twin)
    assert tuple(names) == cls._fields
    required = [f.name for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    group = list({repr(r): r for r in samples[name]}.values())[:4]

    def values_of(record: object) -> tuple:
        return tuple(getattr(record, n) for n in names)

    for s in group:
        values = values_of(s)
        t = twin(*values)
        assert repr(s) == repr(t)
        assert attempt(lambda: hash(s)) == attempt(lambda: hash(t))
        assert s == cls(*values) and t == twin(*values)
        assert s == cls(**dict(zip(names, values)))
        assert not (s == t) and s != t and s.__eq__(t) is NotImplemented
        assert s != object()
        # construction from required fields only, defaults filled in
        req = [getattr(s, n) for n in required]
        assert attempt(lambda: values_of(cls(*req))) == attempt(lambda: values_of(twin(*req)))
        with pytest.raises(TypeError):
            cls(*values, None)
        if names:  # a record without fields has no field to pass twice
            with pytest.raises(TypeError):
                cls(*values[:1], **{names[0]: values[0]}, **dict(zip(names[1:], values[1:])))
        with pytest.raises(TypeError):
            cls(**dict(zip(names, values)), not_a_field=1)
        for n in names:
            with pytest.raises(FrozenRecordError):
                setattr(s, n, getattr(s, n))
            with pytest.raises(AttributeError):
                delattr(s, n)
        with pytest.raises(AttributeError):
            s.not_a_field = 1
        for other in group:
            assert (s == other) == (t == twin(*values_of(other)))
            for n in names:
                change = {n: getattr(other, n)}
                changed = {**dict(zip(names, values)), **change}
                assert attempt(lambda: values_of(cls(**changed))) == attempt(
                    lambda: values_of(dataclasses.replace(t, **change))
                )


@pytest.mark.parametrize(
    "cls, args",
    [
        (Slope, (0, 0)),
        (SurfaceMap, (1, 1, 1, 1)),
        (TeichPoint, (0.0, -1.0)),
        (FareyMarking, (Slope(0, 1), Slope(0, 1))),
        (GraphBackend, (cycle_graph(6), (("far", (0, 3)),))),
        (PathWitness, ((),)),
    ],
)
def test_post_init_rejects_like_the_dataclass(cls, args):
    with pytest.raises(ValidationError):
        cls(*args)
    with pytest.raises(ValidationError):
        twin_of(cls)(*args)


def test_post_init_normalises_like_the_dataclass():
    twin = twin_of(Slope)
    assert (Slope(4, -6).p, Slope(4, -6).q) == (-2, 3) == (twin(4, -6).p, twin(4, -6).q)
    assert hash(Slope(4, -6)) == hash(twin(-2, 3)) == hash((-2, 3))



# The records whose report JSON is Record.to_json: their fields in
# declaration order
FIELD_RULE = (
    "BundleClauseReport",
    "Component",
    "CoverData",
    "DecompositionResult",
    "ProjectionResult",
    "StabilityReport",
    "ThicknessReport",
    "ThicknessRow",
)


def plain_json(value: object) -> bool:
    """value is made of JSON's own types only: no tuple, no record."""
    if isinstance(value, dict):
        return all(type(k) is str and plain_json(v) for k, v in value.items())
    if isinstance(value, list):
        return all(plain_json(v) for v in value)
    return value is None or type(value) in (str, int, float, bool)


@pytest.mark.parametrize("name", FIELD_RULE)
def test_field_rule_records_emit_their_fields_in_order(samples, name):
    cls = RECORDS[name]
    assert cls.to_json is Record.to_json
    for s in samples[name]:
        obj = s.to_json()
        assert list(obj) == list(cls._fields)
        assert plain_json(obj)
