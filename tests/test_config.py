import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvclust.cli import main
from mvclust.data import make_synthetic
from mvclust.pipeline import SCHEMA, VARIANTS

KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

# no digits and none of "inf"/"nan": neither int() nor float() accepts these
UNPARSABLE = st.text(alphabet="abdgkxyz.,+-_ ", max_size=8)


def _invalid_text(default, rule):
    """Config text for a key that either fails to parse or breaks its rule."""
    if isinstance(default, str):
        if rule == "non-empty":
            return st.just("")
        return st.text(alphabet="ACEFLNOSUx+ ", max_size=8).filter(
            lambda t: t.strip() not in VARIANTS)
    if isinstance(default, float):
        below = st.floats(max_value=0.0)
        above = st.floats(min_value=1.0, exclude_min=rule == "in (0, 1]")
        out = {">= 0": st.floats(max_value=-5e-324), "> 0": below,
               "in (0, 1)": below | above, "in (0, 1]": below | above}[rule]
        return UNPARSABLE | st.sampled_from(["nan", "inf", "-inf"]) | out.map(repr)
    bad = st.integers(max_value={">= 0": -1, ">= 1": 0}[rule])
    if isinstance(default, tuple):
        good = st.lists(st.integers(min_value=1, max_value=512), max_size=2)
        bad = st.tuples(good, bad, good).map(
            lambda t: ",".join(map(str, t[0] + [t[1]] + t[2])))
    return UNPARSABLE | bad.map(str)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return make_synthetic(str(tmp_path_factory.mktemp("data")), clusters=3,
                          samples=60, views=2, noise=0.1, seed=0)


@pytest.mark.parametrize("section,key", KEYS)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_every_invalid_value_exits_2_naming_its_key(manifest, section, key, data):
    text = data.draw(_invalid_text(*SCHEMA[section][key]), label=f"{section}.{key}")
    with tempfile.TemporaryDirectory() as tmp:
        sections = {"experiment": {"manifest": manifest,
                                   "out": os.path.join(tmp, "out")}}
        sections.setdefault(section, {})[key] = text
        cfg = os.path.join(tmp, "bad.cfg")
        with open(cfg, "w") as fh:
            for name, keys in sections.items():
                fh.write(f"[{name}]\n")
                fh.writelines(f"{k} = {v}\n" for k, v in keys.items())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["run", "--config", cfg]) == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and f"{section}.{key}" in lines[0], lines
        assert os.listdir(tmp) == ["bad.cfg"]


def test_readme_config_reference_matches_schema():
    with open(README) as fh:
        text = fh.read()
    start = text.index("```ini\n", text.index("### Config reference")) + len("```ini\n")
    documented, section = {}, None
    for line in text[start:text.index("```", start)].splitlines():
        if line.startswith("["):
            section = line.strip("[]")
            documented[section] = {}
        elif line.strip():
            key, _, rest = line.partition("=")
            value, _, comment = rest.partition(";")
            documented[section][key.strip()] = (value.strip(),
                                                comment.split(";")[0].strip())
    assert {s: set(k) for s, k in documented.items()} == \
        {s: set(k) for s, k in SCHEMA.items()}
    for section, keys in SCHEMA.items():
        for key, (default, rule) in keys.items():
            text, doc_rule = documented[section][key]
            if isinstance(default, tuple):
                value = tuple(int(w) for w in text.split(","))
            else:
                value = type(default)(text)
            assert (value, doc_rule) == (default, rule), f"{section}.{key}"
