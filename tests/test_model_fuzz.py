"""Fuzzing of the model file.

Whatever a model file holds, `load_model` either returns a model that
`typespace export` can write out, or raises ModelFormatError or
ModelIntegrityError; it never ends in another exception.  The files are
drawn from a small saved model with bytes flipped, spliced in or cut out,
the header length rewritten, or a header value (a hyperparameter, an id, an
array shape, ...) replaced by another JSON value or deleted.  The checksum
is refreshed after every change, so the checks behind it are reached.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import split_model, with_crc
from typespace import synth
from typespace.evalharness import EmbeddingView
from typespace.params import (
    Hyperparams,
    ModelFormatError,
    ModelIntegrityError,
    export_text,
    init_parameters,
    load_model,
    save_model,
)

DELETE = "<delete>"  # a "set" value that deletes the field


def _base_model(path) -> bytes:
    """The bytes of a model of 5 entities, 4 words, 2 relations, one type
    and 7 groups of each side, at n = 3."""
    ts, data = synth.single_type_system("thing", 5), synth.chain_graph(5)
    hp = Hyperparams(n=3, epochs=1, seed=5)
    p = init_parameters(5, 4, ts, data.triples, hp)
    save_model(path, p.model, p.types, p.rels, hp, [f"e{i}" for i in range(5)], [f"w{j}" for j in range(4)],
               ["next", "skip"])
    return path.read_bytes()


def _paths(value, prefix=()) -> list[tuple]:
    """The path of value and of every value nested in it."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    return [prefix] + [p for key, v in items for p in _paths(v, prefix + (key,))]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**32, 2**63, 2**64, -1, 0]) | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=8,
)
POSITIONS = st.integers(0, 2**16)  # taken modulo the payload length


def mutations(paths: list[tuple]):
    """One change to a model file whose header holds the given value paths,
    as a tuple that _apply reads."""
    return st.one_of(
        st.tuples(st.just("flip"), POSITIONS, st.integers(1, 255)),
        st.tuples(st.just("splice"), POSITIONS, st.integers(0, 16), st.binary(max_size=16)),
        st.tuples(st.just("length"), st.integers(-40, 40) | st.integers(0, 2**64 - 1)),
        st.tuples(st.just("set"), st.sampled_from(paths), JSON_VALUES | st.just(DELETE)),
    )


def _apply(blob: bytes, mutation) -> bytes:
    """blob with mutation applied and its checksum refreshed."""
    kind, *args = mutation
    payload = blob[:-4]
    if kind == "flip":
        i = args[0] % len(payload)
        payload = payload[:i] + bytes([payload[i] ^ args[1]]) + payload[i + 1 :]
    elif kind == "splice":
        i = args[0] % len(payload)
        payload = payload[:i] + args[2] + payload[i + args[1] :]
    elif kind == "length":  # small offsets from the true size, or any u64
        size = args[0] + len(split_model(blob)[1]) if args[0] < 0 else args[0]
        payload = payload[:16] + struct.pack("<Q", size % 2**64) + payload[24:]
    else:
        (path, value), (start, header, body) = args, split_model(blob)
        try:  # the header or the path may be gone after an earlier change
            header = json.loads(header)
            obj = header
            for key in path[:-1]:
                obj = obj[key]
            if not path:
                header = value
            elif value == DELETE:
                del obj[path[-1]]
            else:
                obj[path[-1]] = value
        except (ValueError, LookupError, TypeError):
            return blob
        raw = json.dumps(header).encode()
        payload = start + struct.pack("<Q", len(raw)) + raw + body
    return with_crc(payload)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The base model's bytes, the paths of its header's values, and a scratch directory."""
    work = tmp_path_factory.mktemp("model_fuzz")
    blob = _base_model(work / "base.bin")
    return blob, _paths(json.loads(split_model(blob)[1])), work


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_model_file_loads_or_raises_a_model_error(base, data):
    blob, paths, work = base
    for mutation in data.draw(st.lists(mutations(paths), min_size=1, max_size=3)):
        blob = _apply(blob, mutation)
    path = work / "model.bin"
    path.write_bytes(blob)
    try:
        loaded = load_model(path)
    except (ModelFormatError, ModelIntegrityError):
        return
    EmbeddingView.from_loaded(loaded)
    export_text(work / "emb.txt", loaded.model, loaded.entity_ids, loaded.word_ids)
