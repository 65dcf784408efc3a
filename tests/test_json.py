"""write_object writes the bytes of json.dump(sort_keys=True, indent=2)."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dohazard._json import _FLOATS_PER_WRITE, write_object


def long_floats(seed_and_extra):
    """More finite floats than one write takes, from a seeded generator;
    an odd extra puts a NaN among them, so the list leaves the float path."""
    seed, extra = seed_and_extra
    values = np.random.default_rng(seed).standard_normal(_FLOATS_PER_WRITE + extra).tolist()
    if extra % 2:
        values[extra] = float("nan")
    return values


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**53, max_value=2**80).flatmap(lambda i: st.sampled_from([i, -i]))
    | st.floats()
    | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e17])
    | st.text()
    | st.sampled_from(['"quoted"', "back\\slash", "é ü 中 🙂", "\x00\n\t"])
)
float_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12) | st.tuples(
    st.integers(0, 2**32 - 1), st.integers(0, 3000)
).map(long_floats)
values = st.recursive(
    scalars | float_lists,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=6), children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=6), values, max_size=6))
def test_write_object_writes_json_dumps_bytes(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_object(path, payload)
    assert path.read_bytes() == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
