import json
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densecode import cli, serialize
from densecode.encoding import message_set_to_json, search_message_set
from densecode.protocol import (
    BundleError,
    build_bundle,
    build_decoder,
    bundle_to_json,
    default_messages,
    report_to_json,
    simulate,
)
from densecode.serialize import dumps, matrix_from_json, matrix_to_json
from densecode.states import SchmidtSpectrum, make_schmidt_state, parse_spectrum

from conftest import SEED


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def outcome(f, doc):
    """The text ``f`` returns for ``doc``, or the type and message of what it raises."""
    try:
        return f(doc)
    except Exception as err:  # the reference's errors are part of the contract
        return type(err), str(err)


BOUNDARY_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e16, 9999999999999998.0, 1e15, 1.0000000000000002e16, 1e-5, 9.999999999999999e-06,
    0.0001, 1.7976931308237157e308, float("nan"), float("inf"), float("-inf"),
]
STRINGS = ["", "plain", "\x00\x1f\x7f", '"\\/', "é ", "\U0001f600", "\ud800", "tab\there"]

floats = st.floats() | st.sampled_from(BOUNDARY_FLOATS)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(BOUNDARY_FLOATS[:14])
texts = st.text() | st.sampled_from(STRINGS)
leaves = st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 40), 10 ** 40) | floats | texts


def nested(shape, leaf):
    """Regular nested lists (some tuples) of ``leaf`` with the given shape."""
    if not shape:
        return leaf
    rows = st.lists(nested(shape[1:], leaf), min_size=shape[0], max_size=shape[0])
    return rows | rows.map(tuple)


float_arrays = st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
    lambda shape: nested(shape, finite_floats) | nested(shape, floats)
)
json_values = st.recursive(
    leaves | float_arrays,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(json_values)
@example([1, 2.0, True, None, "x"])  # mixed int and float
@example({"b": 1, "a": [2.0, -0.0], "\u00e9": {"z": None, "y": (1e16, 1e-5)}})  # keys out of order
@example([float("nan"), float("inf"), float("-inf")])
@example({"defect": float("nan"), "mixed": [1, float("-inf")]})  # NaN outside a float array
@example([[1.0, 2.0], [3.0]])  # ragged
@example([[[1.0, 2.0]], [[3.0, 4.0, 5.0]]])  # ragged, a longer last row
@example([[1.0, 2.0], (3.0, -0.0)])  # a tuple row
@example([[[]], [], {}, ()])  # empty containers
@example({"a": [[1.0, float("nan")]], "b": 2.0})  # NaN inside a float array
@example([np.float64(0.1), np.float64(-0.0)])  # a float subclass
@example(10 ** 300)
def test_dumps_is_json_dumps(doc):
    assert outcome(dumps, doc) == outcome(reference, doc)


@pytest.mark.parametrize(
    "doc",
    [
        {1: "int key"},
        {1: "a", "b": 2},  # sorting mixed keys raises
        {(1, 2): 0.5},
        {True: 1.0, None: 2.0, 2.5: 3.0},
        {"a": {"b": [np.int64(3)]}},
        [object()],
        np.float32(1.5),
        {"x": np.bool_(True)},
        10 ** 5000,  # longer than int's default str() limit on Python >= 3.11
    ],
    ids=lambda doc: type(doc).__name__,
)
def test_values_outside_the_walk_take_the_reference(doc):
    assert outcome(dumps, doc) == outcome(reference, doc)


@pytest.mark.parametrize("value", [np.int64(3), object()])
def test_unserializable_value_raises_json_type_error(value):
    with pytest.raises(TypeError) as want:
        reference({"kind": "x", "value": [value]})
    with pytest.raises(TypeError) as got:
        dumps({"kind": "x", "value": [value]})
    assert str(got.value) == str(want.value)
    assert "is not JSON serializable" in str(got.value)


def test_circular_and_deep_input_match_json():
    loop = []
    loop.append(loop)
    assert outcome(dumps, loop) == (ValueError, "Circular reference detected")
    cycle = {"a": {}}
    cycle["a"]["b"] = cycle
    assert outcome(dumps, cycle) == outcome(reference, cycle)
    for depth in (50, 70, 400):
        deep = 1.0
        for _ in range(depth):
            deep = [deep, "x"]
        assert dumps(deep) == reference(deep)


def test_nan_error_document_is_json_text(capsys, monkeypatch):
    def refuse(*args):
        raise BundleError("invariant p_total fails", {"p_total": float("nan"), "p_t": 0.5})

    monkeypatch.setattr(cli, "build_bundle", refuse)
    assert cli.main(["bundle", "--spectrum", "0.6,0.4"]) == 1
    err = capsys.readouterr().err
    doc = {"schema": "densecode/1", "kind": "error", "error": "invariant p_total fails",
           "defects": {"p_total": float("nan"), "p_t": 0.5}}
    assert err == reference(doc) + "\n"
    assert '"p_total": NaN' in err


def _searched_bundle(values, count, search_seed):
    spectrum = SchmidtSpectrum.from_values(values)
    messages = search_message_set(spectrum, count, seed=search_seed, max_iters=1)
    assert messages is not None
    return build_bundle(spectrum, messages, seed=SEED)


@pytest.fixture(scope="module")
def searched_bundles():
    return [
        _searched_bundle([0.35, 0.33, 0.32], 7, 3),
        _searched_bundle([0.28, 0.26, 0.24, 0.22], 14, 1),
    ]


@pytest.fixture
def no_reference(monkeypatch):
    """Make the reference path fail, so a document printed under it took the fast path."""

    def refuse(*args, **kwargs):
        raise AssertionError("dumps took the json.dumps reference path")

    monkeypatch.setattr(serialize, "json", types.SimpleNamespace(dumps=refuse))


def test_library_documents_take_the_fast_path(example_bundle, example_decoder, searched_bundles, no_reference):
    bundles = [example_bundle, build_bundle(parse_spectrum("0.6,0.4"), default_messages(2), seed=7)]
    bundles += searched_bundles
    docs = [bundle_to_json(b) for b in bundles]
    docs += [message_set_to_json(b.messages, make_schmidt_state(b.spectrum), seed=3) for b in bundles]
    for variant in ("measure", "no-measure"):
        docs.append(report_to_json(simulate(example_bundle, example_decoder, 2, 1000, variant, seed=5)))
    decoder = build_decoder(searched_bundles[0])
    docs.append(report_to_json(simulate(searched_bundles[0], decoder, 7, 100, "measure", seed=5)))
    for doc in docs:
        text = dumps(doc)
        assert text == reference(json.loads(text))


@pytest.mark.parametrize(
    "argv, stream",
    [
        (["example-d2"], "out"),
        (["bundle", "--spectrum", "81/160,79/160"], "out"),
        (["simulate", "--message", "2", "--trials", "1000", "--seed", "12345"], "out"),
        (["bounds", "--d", "3", "--format", "json"], "out"),
        (["bounds", "--d", "4", "--points", "7", "--format", "json"], "out"),
        (["bundle", "--spectrum", "0.6,0.4", "--tol-bundle", "nan"], "err"),
        (["bundle", "--spectrum", "0.9,0.05,0.05"], "err"),
    ],
)
def test_cli_documents_take_the_fast_path(capsys, no_reference, argv, stream):
    cli.main(argv)
    captured = capsys.readouterr()
    text = captured.out if stream == "out" else captured.err
    assert text == reference(json.loads(text)) + "\n"


def test_search_document_takes_the_fast_path(capsys, tmp_path, no_reference):
    path = tmp_path / "msgs.json"
    argv = ["search", "--spectrum", "0.35,0.33,0.32", "--count", "7", "--seed", "3", "--max-iters", "1"]
    assert cli.main(argv + ["--out", str(path)]) == 0
    text = path.read_text()
    assert text == reference(json.loads(text)) + "\n"
    assert cli.main(["bundle", "--spectrum", "0.35,0.33,0.32", "--messages", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == reference(json.loads(out)) + "\n"


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.complex128).tobytes()


def test_matrix_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a[0, 0] = complex(-0.0, 0.0)
    a[1, 2] = complex(0.0, -0.0)
    a[2, 3] = complex(5e-324, -1e16)
    a[3, 1] = complex(1e-5, -2.2250738585072014e-308)
    for m in (a, a.T, a[:, :3], np.eye(3)):
        back = matrix_from_json(json.loads(dumps(matrix_to_json(m))))
        assert _bits(back) == _bits(m)


@pytest.mark.parametrize("shape", [(5,), (3, 3), (2, 3, 3)])
def test_matrix_to_json_matches_stacked_parts(shape):
    # The float64 view gives the same [re, im] floats as stacking .real and .imag, -0.0 included.
    rng = np.random.default_rng(5)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m.flat[0] = complex(-0.0, -0.0)
    for a in (m, m.T, m[..., ::-1], m.real):
        stacked = np.stack((a.real, np.asarray(a, dtype=complex).imag), axis=-1).tolist()
        assert dumps(matrix_to_json(a)) == reference(stacked)
