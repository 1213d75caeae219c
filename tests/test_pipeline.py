import argparse
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import mvclust
from mvclust import data, difficulty, pipeline
from mvclust.cli import main
from mvclust.data import make_synthetic
from mvclust.errors import ConfigError
from mvclust.nets import Net
from mvclust.pipeline import (VARIANTS, ablate, export_embeddings, load_config,
                              run)


def small_config(tmp_path, n=120, noise=0.1, data_seed=0, views=2):
    """A fast experiment config over a fresh synthetic dataset."""
    data_dir = tmp_path / "data"
    manifest = make_synthetic(str(data_dir), clusters=3, samples=n, views=views,
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


def unlabelled_config(tmp_path, labelled):
    """A copy of the config ``labelled`` over the same views without their
    labels, with clusters = 3."""
    manifest = tmp_path / "data" / "manifest.txt"
    no_labels = tmp_path / "data" / "no_labels.txt"
    no_labels.write_text(manifest.read_text().replace("labels = labels.csv\n", ""))
    unlabelled = tmp_path / "unlabelled.cfg"
    with open(labelled) as fh:
        unlabelled.write_text(fh.read().replace(
            str(manifest), f"{no_labels}\nclusters = 3"))
    return str(unlabelled)


def test_load_config_defaults(tmp_path):
    cfg = load_config(small_config(tmp_path))
    assert cfg.variant == "FULL"
    assert cfg.seed == 0
    assert cfg.network["hidden"] == (16, 8)
    assert cfg.network["epochs"] == 20
    assert cfg.reconcile["t_steps"] == 3  # untouched default


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read .*nope.cfg"):
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


def test_best_view_is_the_first_of_equals(tmp_path):
    # k-means from one seed clusters identical views alike, so they tie
    cfg = load_config(small_config(tmp_path))
    ds = data.load_manifest(cfg.manifest)
    good = ds.views[0]
    noise = np.random.default_rng(0).normal(size=good.shape)
    for views, want in (([good, good], 0), ([noise, good, good], 1)):
        dataset = data.MultiViewDataset(views, ds.labels)
        assert pipeline._pick_best_view(cfg, dataset, 3) == want


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


def ablate_config(tmp_path, views):
    return load_config(small_config(tmp_path, n=80, noise=0.3, views=views),
                       {"network.epochs": 6, "reconcile.epochs": 2})


@pytest.mark.parametrize("views", [2, 3])
def test_ablate_runs_each_shared_stage_once_per_call(tmp_path, monkeypatch,
                                                     views):
    counts = Counter()
    for module, name in ((data, "load_manifest"), (difficulty, "train_reconciler"),
                         (pipeline, "_pick_best_view"), (pipeline, "run")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cfg = ablate_config(tmp_path, views)
    for calls in (1, 2):  # a second call on the same config redoes the work
        reports = ablate(cfg)
        assert reports["FULL"].n_inconsistent_pairs > 0
        assert counts == {"load_manifest": calls, "train_reconciler": calls,
                          "_pick_best_view": calls, "run": calls * len(VARIANTS)}


def test_full_run_embeds_its_pairs_once_after_training(tmp_path, monkeypatch):
    # label resolution and the direction rate share one embedder pass
    models, training, trunk_forwards = [], [], Counter()
    build, train, forward = (difficulty.build_reconciler,
                             difficulty.train_reconciler, Net.forward)

    def built(*args, **kwargs):
        models.append(build(*args, **kwargs))
        return models[-1]

    def trained(*args, **kwargs):
        training.append(True)
        try:
            return train(*args, **kwargs)
        finally:
            training.pop()

    def counted(net, x):
        if models and net is models[-1].trunk:
            trunk_forwards["training" if training else "after"] += 1
        return forward(net, x)

    monkeypatch.setattr(difficulty, "build_reconciler", built)
    monkeypatch.setattr(difficulty, "train_reconciler", trained)
    monkeypatch.setattr(Net, "forward", counted)
    cfg = load_config(small_config(tmp_path, n=80),
                      {"network.epochs": 4, "reconcile.epochs": 2})
    assert run(cfg).n_inconsistent_pairs > 0
    assert len(models) == 1 and trunk_forwards["training"] > 0
    assert trunk_forwards["after"] == 1


@pytest.mark.parametrize("views", [2, 3])
def test_ablate_outputs_match_independent_runs(tmp_path, views):
    cfg = ablate_config(tmp_path, views)
    ablate(cfg)
    for variant in VARIANTS:
        name = variant.replace("+", "_")
        shared = tmp_path / "out" / name
        alone = tmp_path / "alone" / name
        run(replace(cfg, variant=variant, out=str(alone)))
        files = sorted(os.listdir(shared))
        assert files == sorted(os.listdir(alone))
        assert ("difficulty.csv" in files) == (variant in ("AIS+CS", "FULL"))
        for f in files:
            if f != "run_info.txt":
                assert (shared / f).read_bytes() == (alone / f).read_bytes(), \
                    (variant, f)


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
    # config errors: a config file that is missing, a directory or not text
    undecodable_cfg = tmp_path / "undecodable.cfg"
    undecodable_cfg.write_bytes(b"[experiment]\nmanifest = \xff\xfe\n")
    for path in (tmp_path / "absent.cfg", tmp_path, undecodable_cfg):
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 2, path
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {path}: ")
        assert err.count("\n") == 1
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
    # data errors: a manifest that names a directory or is not text
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"view = \xff\xfe\n")
    for manifest in (tmp_path, undecodable):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[experiment]\nmanifest = {manifest}\n"
                       f"out = {tmp_path / 'out'}\n")
        capsys.readouterr()
        assert main(["run", "--config", str(bad)]) == 3, manifest
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {manifest}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
    # argparse's own errors, each in one line with no usage text: a flag value
    # that does not parse, and a negative number in exponent form given as its
    # own word. An argparse that reads that word as an option refuses it (exit
    # 2); one that reads it as a number passes it to synth's range check (3).
    probe = argparse.ArgumentParser()
    probe.add_argument("value", nargs="?")
    exponent_is_option = probe.parse_known_args(["-1e-3"])[0].value is None
    for argv, code, expected in (
        (["synth", "--out", str(tmp_path / "blobs"), "--clusters", "abc"],
         2, "argument --clusters: invalid int value"),
        (["synth", "--out", str(tmp_path / "blobs"), "--outlier-scale", "-1e-3"],
         *((2, "argument --outlier-scale: expected one argument")
           if exponent_is_option else (3, "outlier_scale"))),
    ):
        capsys.readouterr()
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith({2: "config error: ", 3: "data error: "}[code])
        assert expected in err, argv
        assert err.count("\n") == 1
    # data error: export from a directory with no artifacts
    assert main(["export", "--run-dir", str(tmp_path)]) == 3
    # data errors, each in one line: unreadable, malformed or unequal label
    # files for eval (rows numbered from 1, blank lines counted), bad synth
    # flags (noise that overflows the views among them), a view that
    # overflows when normalized or, left unnormalized, in its distances to
    # the anchor, ablate into an existing file, an artifacts.npz that is no
    # npz archive, lacks z or holds a 1-D z, an export into a missing
    # directory, and run or ablate output files that cannot be written
    huge = tmp_path / "huge"
    make_synthetic(str(huge), clusters=2, samples=20, noise=1e300)
    huge_cfg = tmp_path / "huge.cfg"
    huge_cfg.write_text(f"[experiment]\nmanifest = {huge / 'manifest.txt'}\n"
                        f"out = {tmp_path / 'out'}\n")
    # the same views unnormalized: their distances to the anchor overflow
    (huge / "raw.txt").write_text((huge / "manifest.txt").read_text()
                                  .replace("normalize = zscore",
                                           "normalize = none"))
    raw_cfg = tmp_path / "raw.cfg"
    raw_cfg.write_text(f"[experiment]\nmanifest = {huge / 'raw.txt'}\n"
                       f"out = {tmp_path / 'out'}\n")
    good, short, broken = (tmp_path / name
                           for name in ("good", "short", "broken"))
    not_npz, no_z, flat_z, run_dir = (
        tmp_path / name for name in ("not_npz", "no_z", "flat_z", "run_dir"))
    for d in (not_npz, no_z, flat_z, run_dir):
        d.mkdir()
    (not_npz / "artifacts.npz").write_text("z = 1\n")
    np.savez(no_z / "artifacts.npz", predicted=np.zeros(3, dtype=int))
    np.savez(flat_z / "artifacts.npz", z=np.zeros(3),
             predicted=np.zeros(3, dtype=int))
    np.savez(run_dir / "artifacts.npz", z=np.zeros((3, 2)),
             predicted=np.zeros(3, dtype=int))
    good.write_text("0\n1\n1\n")
    short.write_text("0\n1\n")
    broken.write_text("0\n\n1,oops\n")
    # a directory where run or ablate writes one of its output files
    blocked = []
    for name in ("difficulty.csv", "training_log.csv", "artifacts.npz",
                 "checkpoint.npz", "metrics.txt", "run_info.txt"):
        out = tmp_path / f"blocked_{name}"
        (out / name).mkdir(parents=True)
        blocked.append((["run", "--config", cfg, "--out", str(out)],
                        f"cannot write {out / name}: Is a directory"))
    out = tmp_path / "blocked_ablate"
    (out / "ablation_summary.txt").mkdir(parents=True)
    blocked.append((["ablate", "--config", cfg, "--variants", "NONE",
                     "--out", str(out)],
                    f"cannot write {out / 'ablation_summary.txt'}: Is a directory"))
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
        (["synth", "--out", str(tmp_path / "blobs"), "--seed", "-1"], "seed"),
        (["synth", "--out", str(tmp_path / "blobs"), "--clusters", "2",
          "--samples", "20", "--noise", "1e308"], "noise"),
        (["synth", "--out", str(tmp_path / "blobs"),
          "--samples=100000000000"], "samples"),
        (["run", "--config", str(huge_cfg)],
         f"{huge / 'view0.csv'}: zscore normalization overflows"),
        (["run", "--config", str(raw_cfg)],
         "view 0: squared distances to the anchor overflow float64"),
        (["ablate", "--config", cfg, "--variants", "NONE", "--out", str(afile)],
         "experiment.out"),
        (["export", "--run-dir", str(not_npz)], "artifacts.npz"),
        (["export", "--run-dir", str(no_z)], "artifacts.npz"),
        (["export", "--run-dir", str(flat_z)], "artifacts.npz"),
        (["export", "--run-dir", str(run_dir),
          "--dest", str(tmp_path / "missing" / "emb.csv")], "missing"),
        *blocked,
    ):
        capsys.readouterr()
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and expected in err, argv
        assert err.count("\n") == 1
    assert not (tmp_path / "blobs").exists()
    assert not (tmp_path / "out").exists()


def test_run_whose_write_fails_partway_leaves_only_whole_files(tmp_path):
    # a file-size limit in a fresh process makes a write stop partway through
    # the first file larger than the limit ("File too large"); the run ends in
    # one exit-3 line naming that file, and out holds exactly the files
    # written before it, each byte for byte as a run without the limit writes
    # it, with no temporary file beside them
    cfg = small_config(tmp_path)
    whole = tmp_path / "whole"
    assert main(["run", "--config", cfg, "--out", str(whole)]) == 0
    sizes = {p.name: p.stat().st_size for p in whole.iterdir()}
    order = [name for name in ("difficulty.csv", "training_log.csv",
                               "artifacts.npz", "checkpoint.npz",
                               "metrics.txt", "run_info.txt")
             if name in sizes]
    assert sorted(order) == sorted(sizes)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvclust.__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    for limit in (max(sizes.values()) - 1, 100):
        failing = next(name for name in order if sizes[name] > limit)
        out = tmp_path / f"limited{limit}"
        script = ("import resource, sys\n"
                  "from mvclust.cli import main\n"
                  "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
                  f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
                  f"sys.exit(main(['run', '--config', {cfg!r}, "
                  f"'--out', {str(out)!r}]))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 3, proc.stderr
        errors = [line for line in proc.stderr.splitlines()
                  if not line.startswith(("INFO ", "WARNING "))]
        assert errors == [
            f"data error: cannot write {out / failing}: File too large"]
        written = order[:order.index(failing)]
        assert sorted(p.name for p in out.iterdir()) == sorted(written)
        for name in written:
            assert (out / name).read_bytes() == (whole / name).read_bytes(), name


def test_run_that_fails_before_its_write_stage_leaves_out_as_it_was(
        tmp_path, capsys):
    # a FULL run into out, then a rerun that diverges in network training
    # (exit 4) after its reconciler has settled 6 disagreeing pairs, where
    # seed 0 settled 2: no file of out may change, and none may be added
    cfg = small_config(tmp_path, n=60)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "difficulty.csv" in before
    rerun = replace(load_config(cfg), seed=2)
    assert len(difficulty.collect_inconsistent(
        pipeline._prepare(rerun).raw_labels)) == 6
    diverging = tmp_path / "diverging.cfg"
    with open(cfg) as fh:
        diverging.write_text(fh.read().replace(
            "[network]", "[network]\nlearning_rate = 1e300"))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(diverging), "--seed", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_rerun_removes_the_earlier_outputs_it_does_not_write(tmp_path):
    # a NONE run writes no difficulty.csv and an unlabelled run no
    # metrics.txt, so a rerun into the same out removes the earlier run's;
    # a directory of either name is left alone
    cfg = small_config(tmp_path, n=60)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg]) == 0
    assert (out / "difficulty.csv").is_file()
    assert (out / "metrics.txt").is_file()
    assert main(["run", "--config", cfg, "--variant", "NONE"]) == 0
    assert not (out / "difficulty.csv").exists()
    assert (out / "metrics.txt").is_file()
    assert main(["run", "--config", unlabelled_config(tmp_path, cfg),
                 "--variant", "NONE"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "artifacts.npz", "checkpoint.npz", "run_info.txt", "training_log.csv"]
    blocked = tmp_path / "blocked"
    (blocked / "difficulty.csv").mkdir(parents=True)
    assert main(["run", "--config", cfg, "--variant", "NONE",
                 "--out", str(blocked)]) == 0
    assert (blocked / "difficulty.csv").is_dir()


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
    # --variant is a run flag; ablate refuses it, in full or as a prefix of
    # --variants, rather than run what --variants names
    capsys.readouterr()
    assert main(["ablate", "--config", cfg, "--variant", "FULL",
                 "--variants", "NONE", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "unrecognized arguments: --variant FULL" in err
    assert not out.exists()
    with pytest.raises(ConfigError, match="BOGUS"):
        ablate(load_config(cfg, {"experiment.out": str(tmp_path / "lib")}),
               ["BOGUS"])
    assert not (tmp_path / "lib").exists()


def test_cli_ablate_prints_the_summary_file(tmp_path, capsys):
    labelled = small_config(tmp_path, n=80)
    unlabelled = unlabelled_config(tmp_path, labelled)
    for cfg, row in ((labelled, "NONE     0."),
                     (unlabelled, "NONE     (no labels)")):
        out = tmp_path / f"abl_{os.path.basename(cfg)}"
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg), "--variants", "NONE",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed == (out / "ablation_summary.txt").read_text()
        assert printed.splitlines()[1].startswith(row)


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


def cli_env():
    """The environment of a CLI subprocess that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvclust.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_run_at_a_huge_learning_rate_warns_nothing(tmp_path):
    # the sigmoid's exp overflows at this learning rate; its result, 0, is
    # exact, so the run succeeds even with warnings turned into errors
    manifest = make_synthetic(str(tmp_path / "data"), clusters=3, samples=40,
                              seed=0)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[experiment]\nmanifest = {manifest}\n"
                   "[reconcile]\nepochs = 2\n"
                   "[network]\nepochs = 4\nhidden = 8\nlearning_rate = 1e10\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "mvclust.cli", "run",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=cli_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("INFO ") for line in lines), lines
    assert "ACC" in proc.stdout


def test_three_view_full_run_is_identical_across_blas_threads(tmp_path):
    # the CLI in fresh processes, so the BLAS thread count is read at start-up
    manifest = make_synthetic(str(tmp_path / "data"), clusters=3, samples=150,
                              views=3, noise=0.1, seed=0)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[experiment]\nmanifest = {manifest}\n"
                   "[reconcile]\nepochs = 10\n"
                   "[network]\nepochs = 20\nlearning_rate = 1e-3\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(cli_env(), OPENBLAS_NUM_THREADS=threads)
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
