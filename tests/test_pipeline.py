import os
import subprocess
import sys

import numpy as np
import pytest

import mvclust
from mvclust.cli import main
from mvclust.data import make_synthetic
from mvclust.errors import ConfigError
from mvclust.pipeline import (VARIANTS, ablate, export_embeddings, load_config,
                              run)


def small_config(tmp_path, n=120, noise=0.1, data_seed=0):
    """A fast experiment config over a fresh synthetic dataset."""
    data_dir = tmp_path / "data"
    manifest = make_synthetic(str(data_dir), clusters=3, samples=n, views=2,
                              noise=noise, seed=data_seed)
    lines = [
        "[experiment]",
        f"manifest = {manifest}",
        f"out = {tmp_path / 'out'}",
        "[reconcile]",
        "epochs = 10",
        "[network]",
        "epochs = 20",
        "latent_width = 6",
        "hidden = 16,8",
    ]
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_config_defaults(tmp_path):
    cfg = load_config(small_config(tmp_path))
    assert cfg.variant == "FULL"
    assert cfg.seed == 0
    assert cfg.hidden_widths == (16, 8)
    assert cfg.network["epochs"] == 20
    assert cfg.reconcile["t_steps"] == 3  # untouched default


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nmanifest = x\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        load_config(str(path))


def test_load_config_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nmanifest = x\n[mystery]\na = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(str(path))


def test_load_config_bad_variant(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nmanifest = x\nvariant = SOMETIMES\n")
    with pytest.raises(ConfigError, match="SOMETIMES"):
        load_config(str(path))


def test_load_config_manifest_required(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nout = y\n")
    with pytest.raises(ConfigError, match="manifest"):
        load_config(str(path))


def test_load_config_overrides(tmp_path):
    cfg = load_config(small_config(tmp_path),
                      {"experiment.seed": 7, "experiment.variant": "NONE"})
    assert cfg.seed == 7 and cfg.variant == "NONE"
    with pytest.raises(ConfigError, match="unknown override"):
        load_config(small_config(tmp_path), {"experiment.nope": 1})


def test_load_config_takes_percent_signs_literally(tmp_path):
    path = tmp_path / "pct.cfg"
    path.write_text("[experiment]\nmanifest = m%1.txt\nout = 100%\n")
    cfg = load_config(str(path))
    assert cfg.out == "100%" and cfg.manifest.endswith("m%1.txt")


def test_run_full_writes_artifacts(tmp_path):
    cfg = load_config(small_config(tmp_path))
    report = run(cfg)
    assert report.metrics is not None
    assert 0.0 <= report.metrics.acc <= 1.0
    for name in ("artifacts.npz", "checkpoint.npz", "metrics.txt",
                 "run_info.txt", "training_log.csv"):
        assert os.path.exists(os.path.join(cfg.out, name)), name
    art = np.load(os.path.join(cfg.out, "artifacts.npz"))
    assert art["z"].shape == (120, 6)
    assert art["predicted"].shape == (120,)


def test_run_none_variant_uses_everything_every_epoch(tmp_path):
    cfg = load_config(small_config(tmp_path), {"experiment.variant": "NONE"})
    report = run(cfg)
    assert report.gate_opened_epoch == 0
    assert all(r["mask_size"] == 120 for r in report.log_rows)
    assert report.n_inconsistent_pairs == 0  # reconciliation skipped
    assert not os.path.exists(os.path.join(cfg.out, "difficulty.csv"))


def test_run_cs_variant_picks_a_view(tmp_path):
    cfg = load_config(small_config(tmp_path), {"experiment.variant": "CS"})
    report = run(cfg)
    assert report.best_view in (0, 1)
    assert report.gate_opened_epoch == 0  # forced open


def test_run_full_variant_reconciles(tmp_path):
    cfg = load_config(small_config(tmp_path))
    report = run(cfg)
    if report.n_inconsistent_pairs:
        assert os.path.exists(os.path.join(cfg.out, "difficulty.csv"))
    # the gate obeys the golden section, so it cannot open before the mask does
    opened = report.gate_opened_epoch
    if opened >= 0:
        assert report.log_rows[opened]["gate"] == 1
        if opened > 0:
            assert report.log_rows[opened - 1]["gate"] == 0


def test_run_deterministic(tmp_path):
    cfg_path = small_config(tmp_path)
    cfg1 = load_config(cfg_path, {"experiment.out": str(tmp_path / "r1")})
    cfg2 = load_config(cfg_path, {"experiment.out": str(tmp_path / "r2")})
    run(cfg1)
    run(cfg2)
    m1 = (tmp_path / "r1" / "metrics.txt").read_bytes()
    m2 = (tmp_path / "r2" / "metrics.txt").read_bytes()
    assert m1 == m2
    a1 = np.load(tmp_path / "r1" / "artifacts.npz")
    a2 = np.load(tmp_path / "r2" / "artifacts.npz")
    np.testing.assert_array_equal(a1["z"], a2["z"])
    np.testing.assert_array_equal(a1["predicted"], a2["predicted"])


def test_export_embeddings_roundtrip(tmp_path):
    cfg = load_config(small_config(tmp_path))
    run(cfg)
    dest = export_embeddings(cfg.out)
    with open(dest) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "z0,z1,z2,z3,z4,z5,cluster"
    assert len(lines) == 121
    # re-export is byte identical
    again = export_embeddings(cfg.out, str(tmp_path / "again.csv"))
    with open(dest, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


def test_ablate_runs_all_variants(tmp_path):
    cfg = load_config(small_config(tmp_path, n=80),
                      {"network.epochs": 8, "reconcile.epochs": 3})
    reports = ablate(cfg, ("NONE", "CS+GS"))
    assert set(reports) == {"NONE", "CS+GS"}
    assert os.path.exists(os.path.join(cfg.out, "ablation_summary.txt"))
    assert os.path.isdir(os.path.join(cfg.out, "CS_GS"))


# --- CLI ---------------------------------------------------------------------

def test_cli_synth_and_run(tmp_path, capsys):
    data_dir = tmp_path / "blobs"
    assert main(["synth", "--out", str(data_dir), "--samples", "90",
                 "--clusters", "3", "--seed", "1"]) == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"[experiment]\nmanifest = {data_dir / 'manifest.txt'}\n"
        f"out = {tmp_path / 'out'}\n"
        "[reconcile]\nepochs = 5\n"
        "[network]\nepochs = 10\nlatent_width = 4\nhidden = 8\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "ACC" in out
    assert os.path.exists(tmp_path / "out" / "metrics.txt")


def test_cli_export_and_eval(tmp_path, capsys):
    test_cli_synth_and_run(tmp_path, capsys)
    assert main(["export", "--run-dir", str(tmp_path / "out"),
                 "--dest", str(tmp_path / "emb.csv")]) == 0
    assert os.path.exists(tmp_path / "emb.csv")
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("0\n0\n1\n1\n")
    truth.write_text("1\n1\n0\n0\n")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
    assert "1.0000" in capsys.readouterr().out


def test_cli_exit_codes(tmp_path, capsys):
    # config error: missing config file
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    # config error: bad variant override
    cfg = small_config(tmp_path)
    assert main(["run", "--config", cfg, "--variant", "BOGUS"]) == 2
    # config error: negative seed override
    assert main(["run", "--config", cfg, "--seed", "-1"]) == 2
    assert not (tmp_path / "out").exists()
    # config errors: out-of-range or unreadable values, each reported in one
    # line before any stage runs; and a data error, experiment.out naming an
    # existing file
    afile = tmp_path / "afile"
    afile.write_text("")
    for section, key, value, code in (
        ("reconcile", "batch_size", "0", 2),
        ("reconcile", "t_steps", "0", 2),
        ("reconcile", "epochs", "0", 2),
        ("reconcile", "embed_width", "0", 2),
        ("reconcile", "head_width", "0", 2),
        ("reconcile", "margin", "-1", 2),
        ("reconcile", "learning_rate", "-1", 2),
        ("reconcile", "learning_rate", "0", 2),
        ("reconcile", "sim_weight", "-5", 2),
        ("reconcile", "adv_weight", "inf", 2),
        ("reconcile", "pseudo_label", "nan", 2),
        ("network", "learning_rate", "nan", 2),
        ("clustering", "restarts", "0", 2),
        ("clustering", "max_iter", "0", 2),
        ("clustering", "max_iter", "-3", 2),
        ("network", "hidden", "64,,32", 2),
        ("network", "initial_fraction", "0", 2),
        ("network", "full_inclusion_fraction", "1.5", 2),
        ("network", "epochs", "ten", 2),
        ("experiment", "seed", "-1", 2),
        ("experiment", "clusters", "-3", 2),
        ("experiment", "out", "", 2),
        ("data", "k_neighbors", "-5", 2),
        ("experiment", "out", afile, 3),
    ):
        sections = {"experiment": {"manifest": load_config(cfg).manifest,
                                   "out": tmp_path / "out"}}
        sections.setdefault(section, {})[key] = value
        bad = tmp_path / "bad.cfg"
        bad.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()))
        capsys.readouterr()
        assert main(["run", "--config", str(bad)]) == code, (section, key, value)
        err = capsys.readouterr().err
        assert err.startswith({2: "config error: ", 3: "data error: "}[code])
        assert f"{section}.{key}" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
    # data error: export from a directory with no artifacts
    assert main(["export", "--run-dir", str(tmp_path)]) == 3
    # data errors, each in one line: unreadable, malformed or unequal label
    # files for eval (rows numbered from 1, blank lines counted), bad synth
    # flags, and ablate into an existing file
    good, short, broken = (tmp_path / name
                           for name in ("good", "short", "broken"))
    good.write_text("0\n1\n1\n")
    short.write_text("0\n1\n")
    broken.write_text("0\n\n1,oops\n")
    for argv, expected in (
        (["eval", "--pred", str(tmp_path / "no.txt"),
          "--truth", str(tmp_path / "no.txt")], "no.txt"),
        (["eval", "--pred", str(good), "--truth", str(short)],
         f"{good} has 3 labels, {short} has 2"),
        (["eval", "--pred", str(broken), "--truth", str(good)],
         "non-numeric cell at row 3, column 2"),
        (["synth", "--out", str(tmp_path / "blobs"), "--views", "1"], "views"),
        (["synth", "--out", str(tmp_path / "blobs"), "--noise", "-1"], "noise"),
        (["synth", "--out", str(tmp_path / "blobs"), "--noise", "nan"], "noise"),
        (["synth", "--out", str(tmp_path / "blobs"), "--outlier-scale", "-1"],
         "outlier_scale"),
        (["synth", "--out", str(tmp_path / "blobs"), "--outlier-fraction", "2"],
         "outlier_fraction"),
        (["synth", "--out", str(tmp_path / "blobs"), "--outlier-fraction", "-0.5"],
         "outlier_fraction"),
        (["ablate", "--config", cfg, "--variants", "NONE", "--out", str(afile)],
         "experiment.out"),
    ):
        capsys.readouterr()
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and expected in err, argv
        assert err.count("\n") == 1
    assert not (tmp_path / "blobs").exists()


def test_cli_ablate_subset(tmp_path, capsys):
    cfg = small_config(tmp_path, n=80)
    assert main(["ablate", "--config", cfg, "--variants", "NONE",
                 "--out", str(tmp_path / "abl")]) == 0
    assert "NONE" in capsys.readouterr().out
    for variants in ("NOPE", "", "NONE,NONE"):
        out = tmp_path / "bad_abl"
        capsys.readouterr()
        assert main(["ablate", "--config", cfg, "--variants", variants,
                     "--out", str(out)]) == 2, variants
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()
    with pytest.raises(ConfigError, match="BOGUS"):
        ablate(load_config(cfg, {"experiment.out": str(tmp_path / "lib")}),
               ["BOGUS"])
    assert not (tmp_path / "lib").exists()


def test_cli_more_clusters_or_neighbors_than_samples_fail_before_any_output(
        tmp_path, capsys):
    cfg = small_config(tmp_path, n=60)
    for extra in ("clusters = 500\n[reconcile]",
                  "[data]\nk_neighbors = 500\n[reconcile]"):
        bad = tmp_path / "bad.cfg"
        with open(cfg) as fh:
            bad.write_text(fh.read().replace("[reconcile]", extra))
        capsys.readouterr()
        assert main(["run", "--config", str(bad)]) == 3, extra
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_three_view_full_run_is_identical_across_blas_threads(tmp_path):
    # the CLI in fresh processes, so the BLAS thread count is read at start-up
    manifest = make_synthetic(str(tmp_path / "data"), clusters=3, samples=150,
                              views=3, noise=0.1, seed=0)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[experiment]\nmanifest = {manifest}\n"
                   "[reconcile]\nepochs = 10\n"
                   "[network]\nepochs = 20\nlearning_rate = 1e-3\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvclust.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mvclust.cli", "run", "--config", str(cfg),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        info = (out / "run_info.txt").read_text()
        opened = int(info.split("gate_opened_epoch = ")[1].split()[0])
        assert opened >= 0, "the gate must open"
        outputs.append([(out / name).read_bytes()
                        for name in ("metrics.txt", "artifacts.npz")])
    assert outputs[0] == outputs[1]
