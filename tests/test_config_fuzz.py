"""parse_config on any JSON value at any key path of a full run document: it
accepts the document or names the problem, and never fails otherwise."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from harvest.config import parse_config
from harvest.errors import ConfigError, ParameterError

FULL_DOC = {
    "system": {
        "delta1": 3.0, "delta3": 3.0, "kappa": 0.3, "alpha": 0.05,
        "beta": 0.02, "mu": -0.005, "nu": 0.005, "tau1": 0.6, "tau2": 2.5,
    },
    "noise": {"D": 0.005, "c": 0.3},
    "excitation": {"eps": 0.1, "G": 0.1, "Omega": 0.05},
    "sim": {
        "dt": 0.01, "t_total": 120.0, "t_transient": 20.0, "n_traj": 4,
        "seed": 7, "x0": 1.0, "v0": 0.0, "V0": 0.0,
        "grid": {"x_min": -2.5, "x_max": 2.5, "nx": 64,
                 "v_min": -3.0, "v_max": 3.0, "nv": 64},
        "psd": {"segment_time": 150.0, "overlap": 0.5, "n_bootstrap": 200},
    },
    "sweep": {
        "axes": [
            {"param": "system.tau1", "start": 0.0, "stop": 1.0, "count": 3},
            {"param": "noise.D", "start": 1e-3, "stop": 1e-1, "count": 3,
             "scale": "log"},
        ],
        "quantities": ["power", "v_rms"],
    },
    "output": {"dir": "out", "prefix": "fuzz"},
}


def _paths(node, prefix=()):
    """Every key path of node: the keys of its objects, the indices of its
    lists."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(FULL_DOC))

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def test_the_full_document_parses():
    parse_config(copy.deepcopy(FULL_DOC))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(path=st.sampled_from(PATHS), value=JSON)
def test_any_value_anywhere_is_accepted_or_named(path, value):
    doc = copy.deepcopy(FULL_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        parse_config(doc)
    except (ConfigError, ParameterError):
        pass
