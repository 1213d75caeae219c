import contextlib
import dataclasses
import inspect
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvclust.cli import main
from mvclust.cluster import kmeans
from mvclust.data import make_synthetic
from mvclust.difficulty import build_reconciler, train_reconciler
from mvclust.network import GOLDEN_SECTION, build_model, train
from mvclust.pipeline import SCHEMA, VARIANTS, _parse
from mvclust.sampling import PaceSchedule

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


# 10**11 is a size numpy refuses at once, being more memory than any machine
# has or more elements than an array may hold; a size it might try to page
# in has no place in a test
@pytest.mark.parametrize("section,key,variant", [
    ("network", "latent_width", "NONE"),
    ("reconcile", "head_width", "FULL"),
    ("clustering", "restarts", "NONE"),
])
def test_oversized_key_exits_2_naming_it(manifest, section, key, variant):
    with tempfile.TemporaryDirectory() as tmp:
        sections = {"experiment": {"manifest": manifest, "variant": variant,
                                   "out": os.path.join(tmp, "out")},
                    "reconcile": {"epochs": 1}, "network": {"epochs": 2}}
        sections.setdefault(section, {})[key] = 10 ** 11
        cfg = os.path.join(tmp, "big.cfg")
        with open(cfg, "w") as fh:
            for name, keys in sections.items():
                fh.write(f"[{name}]\n")
                fh.writelines(f"{k} = {v}\n" for k, v in keys.items())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["run", "--config", cfg]) == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert f"{section}.{key}" in lines[0], lines


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
            if (section, key) == ("experiment", "manifest"):
                value = text     # required, so its empty default breaks its rule
            else:
                value = _parse(f"{section}.{key}", text, default, rule)
            assert (value, doc_rule) == (default, rule), f"{section}.{key}"


def _defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_schema_defaults_are_the_library_defaults():
    # each default is written in SCHEMA and again where the library takes
    # it; reconcile.epochs and network.epochs have no library default
    reconcile = {**_defaults(build_reconciler), **_defaults(train_reconciler)}
    pace = {f.name: f.default for f in dataclasses.fields(PaceSchedule)}
    library = {
        ("data", "mu"): GOLDEN_SECTION,
        **{("reconcile", key): reconcile[key]
           for key in SCHEMA["reconcile"] if key != "epochs"},
        ("network", "batch_size"): _defaults(train)["batch_size"],
        ("network", "learning_rate"): _defaults(train)["learning_rate"],
        ("network", "hidden"): _defaults(build_model)["hidden"],
        ("network", "initial_fraction"): pace["initial_fraction"],
        ("network", "full_inclusion_fraction"):
            pace["full_inclusion_epoch_fraction"],
        **{("clustering", key): _defaults(kmeans)[key]
           for key in SCHEMA["clustering"]},
    }
    for (section, key), value in library.items():
        assert SCHEMA[section][key][0] == value, f"{section}.{key}"


# --- synth flags and eval label files ----------------------------------------

NEGATIVE = st.floats(max_value=-5e-324)
# out of range, or (noise) so large that the generated views overflow
SYNTH_INVALID = {
    "--clusters": st.integers(max_value=1),
    "--samples": st.integers(max_value=29),          # 3 clusters need 30
    "--views": st.integers(max_value=1),
    "--seed": st.integers(max_value=-1),
    "--noise": NEGATIVE | st.floats(min_value=1e308) | st.just(float("nan")),
    "--outlier-fraction": NEGATIVE | st.floats(min_value=1.0, exclude_min=True)
    | st.just(float("nan")),
    "--outlier-scale": NEGATIVE | st.sampled_from([float("inf"), float("nan")]),
}


def _one_line_exit(argv, code):
    """Run the CLI; it must exit with ``code`` and write one stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == code, argv
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines
    return lines[0]


@pytest.mark.parametrize("flag", SYNTH_INVALID)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_every_invalid_synth_flag_exits_3_and_writes_nothing(flag, data):
    value = data.draw(SYNTH_INVALID[flag], label=flag)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "blobs")
        # "--flag=value": argparse reads a lone "-1e+16" as an option
        _one_line_exit(["synth", "--out", out, "--samples", "40",
                        f"{flag}={value!r}"], 3)
        assert os.listdir(tmp) == []


def test_synth_into_an_uncreatable_out_exits_3_naming_it():
    with tempfile.TemporaryDirectory() as tmp:
        regular = os.path.join(tmp, "file")
        with open(regular, "w") as fh:
            fh.write("kept\n")
        out = os.path.join(regular, "blobs")
        line = _one_line_exit(["synth", "--out", out, "--samples", "40"], 3)
        assert out in line
        assert os.listdir(tmp) == ["file"]
        with open(regular) as fh:
            assert fh.read() == "kept\n"


def test_synth_failed_write_leaves_no_partial_file():
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "manifest.txt"))   # a directory in its place
        line = _one_line_exit(["synth", "--out", tmp, "--samples", "40"], 3)
        assert os.path.join(tmp, "manifest.txt") in line
        assert sorted(os.listdir(tmp)) == ["labels.csv", "manifest.txt",
                                           "view0.csv", "view1.csv"]
        assert os.listdir(os.path.join(tmp, "manifest.txt")) == []


INT_LABEL = st.integers(-5, 5).map(str)
# one line that is no integer label below 2**53
BAD_LABEL = (
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1_0", "0x1", "\u0661"])
    | st.floats(allow_nan=False, allow_infinity=False)
    .filter(lambda x: not x.is_integer()).map(repr)
    | st.integers(min_value=2**53).map(str)
    | st.integers(max_value=-2**53).map(str)
    | st.tuples(INT_LABEL, st.text(alphabet="abdgkxyz", min_size=1, max_size=4))
    .map("".join)
    | st.tuples(st.lists(INT_LABEL, min_size=2, max_size=3),
                st.sampled_from([",", ";"])).map(lambda t: t[1].join(t[0]))
)


@st.composite
def bad_label_file(draw):
    """Contents of a label file that ``eval`` must reject in one line, next
    to a valid file of two labels."""
    kind = draw(st.sampled_from(["line", "length", "blank", "binary"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "\n", "  \n\n"])).encode()
    if kind == "binary":
        return b"0\n\xff\xfe\n"
    if kind == "length":
        lines = draw(st.lists(INT_LABEL, min_size=1, max_size=6)
                     .filter(lambda lines: len(lines) != 2))
    else:
        lines = draw(st.lists(INT_LABEL, max_size=4))
        lines.insert(draw(st.integers(0, len(lines))), draw(BAD_LABEL))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("side", ["--pred", "--truth"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(contents=bad_label_file())
def test_every_invalid_label_file_exits_3_naming_it(side, contents):
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = os.path.join(tmp, "good.txt"), os.path.join(tmp, "bad.txt")
        with open(good, "w") as fh:
            fh.write("0\n1\n")
        with open(bad, "wb") as fh:
            fh.write(contents)
        other = "--truth" if side == "--pred" else "--pred"
        assert bad in _one_line_exit(["eval", side, bad, other, good], 3)
