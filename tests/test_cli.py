import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from eqspike import cli
from eqspike import pipeline as pl
from eqspike.checkpoint import (FORMAT_VERSION, decode_array, encode_array,
                                save_student)
from eqspike.cli import main
from eqspike.data import CLS

SMALL_CFG = {
    "model": {"hidden_dim": 8, "intermediate_dim": 12, "num_heads": 2,
              "num_layers": 2, "max_len": 8, "quant_mode": "1.58bit"},
    "teacher": {"hidden_dim": 8, "intermediate_dim": 12, "num_heads": 2,
                "num_layers": 2, "epochs": 2},
    "train": {"kd_epochs": 1, "finetune_epochs": 1},
    "data": {"train_size": 8, "dev_size": 8},
    "energy": {"timesteps": 30},
}
# a student as format version 2 wrote it, with its codes next to its latents
STUDENT_V2 = Path(__file__).parent / "data" / "student_v2.json"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(SMALL_CFG))
    return root, str(cfg_path)


@pytest.fixture(scope="module")
def artifacts(workdir):
    """Run the full CLI pipeline once; downstream tests inspect the files."""
    root, cfg = workdir
    out = str(root / "out")
    assert main(["train-teacher", "--config", cfg, "--out", out]) == 0
    assert main(["distill", "--config", cfg, "--out", out,
                 "--teacher", f"{out}/teacher.json"]) == 0
    assert main(["finetune", "--config", cfg, "--out", out,
                 "--student", f"{out}/student_kd.json"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out,
                 "--student", f"{out}/student_finetuned.json"]) == 0
    # a full-precision student for the energy comparison
    out_fp = str(root / "out_fp")
    assert main(["distill", "--config", cfg, "--out", out_fp, "--quant", "fp",
                 "--teacher", f"{out}/teacher.json"]) == 0
    assert main(["energy", "--config", cfg, "--out", out,
                 "--quant-ckpt", f"{out}/student_kd.json",
                 "--fp-ckpt", f"{out_fp}/student_kd.json",
                 "--eval-size", "2"]) == 0
    assert main(["eval", "--config", cfg, "--out", out,
                 "--student", f"{out}/student_finetuned.json"]) == 0
    return out, out_fp


def test_all_artifacts_exist(artifacts):
    out, _ = artifacts
    for name in ("teacher.json", "teacher_metrics.json", "student_kd.json",
                 "kd_report.csv", "student_finetuned.json",
                 "finetune_metrics.json", "trace.csv", "simulate_summary.json",
                 "energy_report.json", "eval_metrics.json"):
        assert os.path.exists(os.path.join(out, name)), name


def test_artifact_contents_parse(artifacts):
    out, _ = artifacts
    with open(os.path.join(out, "finetune_metrics.json")) as fh:
        metrics = json.load(fh)
    assert metrics["history"][-1]["epoch"] == "selected"
    with open(os.path.join(out, "energy_report.json")) as fh:
        energy = json.load(fh)
    assert 0.0 < energy["norm_ops_ratio"]
    assert energy["energy_ratio"] == pytest.approx(
        energy["norm_ops_ratio"] / 9.0, rel=1e-9)
    lines = Path(out, "kd_report.csv").read_text().splitlines()
    assert lines[0] == "epoch,pair_index,mse,total"


def test_finetune_refuses_non_kd_checkpoint(workdir, artifacts):
    root, cfg = workdir
    out, _ = artifacts
    rc = main(["finetune", "--config", cfg, "--out", str(root / "gate"),
               "--student", f"{out}/student_finetuned.json"])
    assert rc == 2
    rc = main(["finetune", "--config", cfg, "--out", str(root / "gate"),
               "--student", f"{out}/student_finetuned.json", "--allow-skip-kd"])
    assert rc == 0


def test_missing_checkpoint_is_io_error(workdir):
    root, cfg = workdir
    rc = main(["eval", "--config", cfg, "--out", str(root / "x"),
               "--student", str(root / "nope.json")])
    assert rc == 4


@pytest.mark.parametrize("key, text", [
    ("nonsense", "nonsense: 1\n"),
    ("solver", "solver: {damping: 0.5}\n"),
    ("vjp", "vjp: {max_terms: 5}\n"),
    ("solver", "solver: {max_iters: 500}\n"),
    ("solver", "solver: {tol: 1.0e-8}\n"),
    ("train.adam_beta1", "train: {adam_beta1: 0.9}\n"),
    ("train.adam_beta2", "train: {adam_beta2: 0.999}\n"),
    ("energy.float_acc_pj", "energy: {float_acc_pj: 0.9}\n"),
    ("energy.int_acc_pj", "energy: {int_acc_pj: 0.1}\n"),
    ("seed", "seed: x\n"), ("data.train_size", "data: {train_size: 3.0}\n"),
    ("data.path", "data: {path: 3}\n"), ("data.path", "data: {path: ''}\n"),
    ("kd", "kd: {layer_map: 3}\n"),
    ("kd", "kd: {layer_map: [true, 1]}\n"),
    ("kd", "kd: {loss_weights: 3}\n"),
    ("kd", "kd: {loss_weights: [a, 1]}\n"),
    ("kd", "kd: {loss_weights: [true, 1]}\n"),
    ("seed", "seed: -1\n"),
    ("teacher.epochs", "teacher: {epochs: -3}\n"),
    ("train.kd_epochs", "train: {kd_epochs: -2}\n"),
    ("train.finetune_epochs", "train: {finetune_epochs: 0}\n"),
    ("train.lr", "train: {lr: -0.5}\n"), ("train.lr", "train: {lr: .nan}\n"),
    ("teacher.lr", "teacher: {lr: 0}\n"), ("teacher.lr", "teacher: {lr: .inf}\n"),
    ("train.batch_size", "train: {batch_size: 0}\n"),
    ("teacher.batch_size", "teacher: {batch_size: 0}\n"),
    ("energy.timesteps", "energy: {timesteps: 0}\n"),
    ("data.train_size", "data: {train_size: 1}\n"),
    ("data.dev_size", "data: {dev_size: 1}\n")],
    ids=["nonsense", "solver.damping", "vjp.max_terms", "solver.max_iters",
         "solver.tol",
         "train.adam_beta1", "train.adam_beta2", "energy.float_acc_pj",
         "energy.int_acc_pj", "seed", "data.train_size", "data.path",
         "data.path-empty", "kd.layer_map", "kd.layer_map-bool-entry",
         "kd.loss_weights", "kd.loss_weights-str-entry",
         "kd.loss_weights-bool-entry", "seed-negative",
         "teacher.epochs-negative",
         "train.kd_epochs-negative", "train.finetune_epochs-zero",
         "train.lr-negative", "train.lr-nan", "teacher.lr-zero",
         "teacher.lr-inf", "train.batch_size-zero", "teacher.batch_size-zero",
         "energy.timesteps-zero", "data.train_size-one", "data.dev_size-one"])
def test_bad_config_key_is_config_error(workdir, capsys, key, text):
    root, _ = workdir
    bad = root / "bad.yaml"
    bad.write_text(text)
    rc = main(["train-teacher", "--config", str(bad), "--out", str(root / "y")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{key}'" in err


@pytest.mark.parametrize("shape", [{"num_heads": 0}, {"hidden_dim": 0},
                                   {"intermediate_dim": 0}, {"num_layers": 0},
                                   {"num_heads": 3}],
                         ids=["num_heads", "hidden_dim", "intermediate_dim",
                              "num_layers", "num_heads-indivisible"])
def test_bad_teacher_shape_is_config_error(workdir, capsys, shape):
    root, _ = workdir
    bad = root / "bad_teacher.yaml"
    bad.write_text(yaml.safe_dump({**SMALL_CFG, "teacher": {
        **SMALL_CFG["teacher"], **shape}}))
    rc = main(["train-teacher", "--config", str(bad), "--out", str(root / "t")])
    assert rc == 2
    assert "config error: config section 'teacher'" in capsys.readouterr().err


def test_zero_timesteps_flag_is_config_error_naming_the_key(workdir, capsys):
    root, cfg = workdir
    rc = main(["simulate", "--config", cfg, "--out", str(root / "t0"),
               "--student", str(root / "nope.json"), "--timesteps", "0"])
    assert rc == 2
    assert "'energy.timesteps'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["eval", "--student", "s.json", "--quant", "1bit"],
                                  ["finetune", "--student", "s.json",
                                   "--timesteps", "5"]],
                         ids=["eval--quant", "finetune--timesteps"])
def test_subcommand_rejects_flags_it_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_malformed_yaml_is_config_error(workdir, capsys):
    root, _ = workdir
    bad = root / "malformed.yaml"
    bad.write_text("model: {hidden_dim: 8\n")
    rc = main(["train-teacher", "--config", str(bad), "--out", str(root / "m")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["student", "teacher"])
def test_truncated_checkpoint_is_config_error(workdir, capsys, kind):
    root, cfg = workdir
    ckpt = root / f"truncated_{kind}.json"
    ckpt.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                "kind": kind}))
    argv = (["eval", "--student", str(ckpt)] if kind == "student"
            else ["distill", "--teacher", str(ckpt)])
    rc = main(argv + ["--config", cfg, "--out", str(root / "t")])
    assert rc == 2
    assert "malformed checkpoint" in capsys.readouterr().err


def _poison_on_load(monkeypatch, path, name, index):
    """Make the CLI load the student at `path` with a NaN at params[name][index].

    A checkpoint file with a non-finite number is refused at load, so this
    reaches the numeric checks behind it with a loaded student.
    """
    load = cli.load_student

    def poisoned(p):
        stack, stage = load(p)
        if p == path:
            stack.params[name][index] = np.nan
        return stack, stage

    monkeypatch.setattr(cli, "load_student", poisoned)


def test_non_finite_weight_is_numeric_error(workdir, artifacts, capsys,
                                            monkeypatch):
    root, cfg = workdir
    out, _ = artifacts
    ckpt = f"{out}/student_kd.json"
    _poison_on_load(monkeypatch, ckpt, "blk0.q.w", (0, 0))
    rc = main(["finetune", "--config", cfg, "--out", str(root / "n"),
               "--student", ckpt])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


# a NaN in the embedding reaches every rate; one in the head only the logits
@pytest.mark.parametrize("name,index", [("tok_emb", (CLS, 0)),
                                        ("cls.w", (0, 0)), ("cls.b", (0,))],
                         ids=["tok_emb", "cls.w", "cls.b"])
def test_eval_of_non_finite_student_is_numeric_error(workdir, artifacts,
                                                     capsys, monkeypatch,
                                                     name, index):
    root, cfg = workdir
    out, _ = artifacts
    ckpt = f"{out}/student_finetuned.json"
    _poison_on_load(monkeypatch, ckpt, name, index)
    rc = main(["eval", "--config", cfg, "--out", str(root / "nan_eval"),
               "--student", ckpt])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def _with_nan_embedding(obj):
    """`obj` with a NaN in its `tok_emb` row for CLS, validly encoded."""
    cfg = obj["config"]
    emb = decode_array(obj["params"]["tok_emb"],
                       (cfg["vocab_size"], cfg["hidden_dim"]), "tok_emb").copy()
    emb[CLS, 0] = np.nan
    obj["params"]["tok_emb"] = encode_array(emb)


# the message each defect's check gives, where a test names one
DEFECT_MESSAGE = {
    "nan-param": "parameter tok_emb is not finite",
    "cls-shape": "parameter cls.b: 24 bytes, not the 16 of 2 float64 values",
    "gamma": "unknown ['gamma']",
    "parent-format": "unknown ['gamma', 'v_th']",
    "unknown-param": "unknown ['bogus.w']",
    "format-v1": f"format_version 1; this eqspike reads {FORMAT_VERSION}",
    "format-v2": f"format_version 2; this eqspike reads {FORMAT_VERSION}",
    "bogus-stage": "unknown student stage ['bogus']",
    "finetuned-stage": "unknown teacher stage 'finetuned'",
}


def _corrupt(obj, defect):
    if defect == "nan-param":
        _with_nan_embedding(obj)
    elif defect == "unknown-field":
        obj["config"]["bogus"] = 1
    elif defect == "missing-field":
        del obj["config"]["binary_output_scale"]
    elif defect == "max_len":
        obj["config"]["max_len"] = 0
    elif defect == "gamma":
        obj["config"]["gamma"] = 2.0
    elif defect == "parent-format":  # the neuron knobs a student once saved
        obj["config"].update(gamma=1.0, v_th=1.0)
    elif defect == "unknown-param":
        obj["params"]["bogus.w"] = obj["params"]["cls.b"]
    elif defect == "format-v1":  # every checkpoint written before format 2
        obj["format_version"] = 1
    elif defect == "bogus-stage":
        obj["stage"] = ["bogus"]


def _write_checkpoint(path, obj, defect):
    """`obj` as a checkpoint at `path`; cut off mid-file for "truncated-json"."""
    text = json.dumps(obj)
    path.write_text(text[:len(text) // 2] if defect == "truncated-json"
                    else text)


@pytest.mark.parametrize("defect", ["nan-param", "gamma", "max_len",
                                    "unknown-field", "missing-field",
                                    "parent-format", "unknown-param",
                                    "format-v1", "format-v2", "truncated-json",
                                    "bogus-stage"])
def test_invalid_student_checkpoint_is_config_error(workdir, artifacts, capsys,
                                                    defect):
    root, cfg = workdir
    out, _ = artifacts
    source = STUDENT_V2 if defect == "format-v2" \
        else Path(out, "student_finetuned.json")
    obj = json.loads(source.read_text())
    _corrupt(obj, defect)
    ckpt = root / f"invalid_{defect}.json"
    _write_checkpoint(ckpt, obj, defect)
    rc = main(["eval", "--config", cfg, "--out", str(root / "invalid"),
               "--student", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(ckpt) in err
    assert DEFECT_MESSAGE.get(defect, "") in err


@pytest.mark.parametrize("defect", ["nan-param", "unknown-field",
                                    "missing-field", "cls-shape",
                                    "unknown-param", "format-v1",
                                    "format-v2", "truncated-json",
                                    "finetuned-stage"])
def test_invalid_teacher_checkpoint_is_config_error(workdir, artifacts, capsys,
                                                    defect):
    root, cfg = workdir
    out, _ = artifacts
    obj = json.loads(Path(out, "teacher.json").read_text())
    if defect == "nan-param":
        _with_nan_embedding(obj)
    elif defect == "unknown-field":
        obj["config"]["bogus"] = 1
    elif defect == "missing-field":
        del obj["config"]["num_heads"]
    elif defect == "unknown-param":  # a block the 2-block teacher lacks
        obj["params"]["blk7.q.w"] = obj["params"]["blk0.q.w"]
    elif defect == "cls-shape":
        obj["params"]["cls.b"] = encode_array(np.zeros(3))  # one value too long
    elif defect in ("format-v1", "format-v2"):
        # a version-2 teacher is this file, saying version 2
        obj["format_version"] = int(defect[-1])
    elif defect == "finetuned-stage":
        obj["stage"] = "finetuned"
    ckpt = root / f"invalid_teacher_{defect}.json"
    _write_checkpoint(ckpt, obj, defect)
    dest = root / "invalid_teacher"
    rc = main(["distill", "--config", cfg, "--out", str(dest),
               "--teacher", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(ckpt) in err
    assert {**DEFECT_MESSAGE, "unknown-param": "unknown ['blk7.q.w']"}.get(
        defect, "") in err
    assert not os.path.exists(dest / "student_kd.json")


def test_distill_with_bad_gamma_is_config_error(workdir, artifacts, capsys):
    root, _ = workdir
    out, _ = artifacts
    bad = root / "bad_gamma.yaml"
    bad.write_text(yaml.safe_dump({**SMALL_CFG, "model": {
        **SMALL_CFG["model"], "gamma": 1.5}}))
    dest = root / "bad_gamma"
    rc = main(["distill", "--config", str(bad), "--out", str(dest),
               "--teacher", f"{out}/teacher.json"])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err
    assert not os.path.exists(dest / "student_kd.json")


@pytest.mark.parametrize("kd", [{"layer_map": [-1, 0]}, {"layer_map": [0.5, 1]},
                                {"layer_map": [0]},
                                {"loss_weights": [1.0, -1.0]},
                                {"layer_map": [0, 1]}],
                         ids=["negative-index", "float-index", "short-map",
                              "negative-weight", "default-map"])
def test_distill_with_bad_kd_config_is_config_error(workdir, artifacts, capsys,
                                                    kd):
    root, _ = workdir
    out, _ = artifacts
    bad = root / "bad_kd.yaml"
    bad.write_text(yaml.safe_dump({**SMALL_CFG, "kd": kd}))
    dest = root / "bad_kd"
    rc = main(["distill", "--config", str(bad), "--out", str(dest),
               "--teacher", f"{out}/teacher.json"])
    assert rc == 2
    # the map follows the two depths and every pair weighs 1: even the
    # default map is no longer a key
    assert "config error: unknown config key 'kd'" in capsys.readouterr().err
    assert not os.path.exists(dest / "student_kd.json")


@pytest.mark.parametrize("config, message", [
    ({"model": {"quant_mode": "3bit"}}, "config section 'model'"),
    ({"model": {"gamma": 1.5}}, "unknown config key 'model.gamma'"),
    ({"model": {"num_heads": 3, "hidden_dim": 8}}, "config section 'model'"),
    ({"model": {"v_th": 0}}, "unknown config key 'model.v_th'"),
    ({"model": {"max_len": 0}}, "config section 'model'"),
    ({"kd": {"layer_map": [5, 7]}}, "unknown config key 'kd'")],
    ids=["quant_mode", "gamma", "num_heads", "v_th", "max_len", "kd-layer_map"])
def test_bad_model_section_is_config_error(workdir, capsys, config, message):
    # train-teacher builds no student, so the model section is checked at
    # load, before a teacher is trained; the neuron knobs gamma and v_th
    # and the kd section are no longer keys
    root, _ = workdir
    bad = root / "badmode.yaml"
    bad.write_text(yaml.safe_dump(config))
    rc = main(["train-teacher", "--config", str(bad), "--out", str(root / "z")])
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(root / "z" / "teacher.json")


def test_train_teacher_rerun_is_byte_identical(workdir):
    root, cfg = workdir
    a, b = str(root / "det_a"), str(root / "det_b")
    for out in (a, b):
        assert main(["train-teacher", "--config", cfg, "--out", out]) == 0
    for name in ("teacher.json", "teacher_metrics.json"):
        assert Path(a, name).read_bytes() == Path(b, name).read_bytes()


def test_teacher_trains_with_scipy_unimportable(workdir):
    """The teacher's GELU runs on numpy alone: a process in which scipy
    cannot be imported trains the same teacher, byte for byte."""
    root, cfg = workdir
    here, alone = str(root / "scipy_here"), str(root / "scipy_none")
    assert main(["train-teacher", "--config", cfg, "--out", here]) == 0
    code = ("import sys; sys.modules['scipy'] = None; "
            "from eqspike.cli import main; "
            f"sys.exit(main(['train-teacher', '--config', {cfg!r}, "
            f"'--out', {alone!r}]))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in ("teacher.json", "teacher_metrics.json"):
        assert Path(here, name).read_bytes() == Path(alone, name).read_bytes()


def test_simulate_and_energy_rerun_byte_identical(workdir, artifacts):
    root, cfg = workdir
    out, out_fp = artifacts
    a, b = str(root / "sim_a"), str(root / "sim_b")
    for dest in (a, b):
        assert main(["simulate", "--config", cfg, "--out", dest,
                     "--student", f"{out}/student_finetuned.json"]) == 0
        assert main(["energy", "--config", cfg, "--out", dest,
                     "--quant-ckpt", f"{out}/student_kd.json",
                     "--fp-ckpt", f"{out_fp}/student_kd.json",
                     "--eval-size", "2"]) == 0
    for name in ("trace.csv", "simulate_summary.json", "energy_report.json"):
        assert Path(a, name).read_bytes() == Path(b, name).read_bytes()


def _energy(cfg, out, quant_ckpt, fp_ckpt, *extra):
    return main(["energy", "--config", cfg, "--out", out, "--quant-ckpt",
                 quant_ckpt, "--fp-ckpt", fp_ckpt, *extra])


@pytest.mark.parametrize("size", ["0", "-1"])
def test_energy_eval_size_below_one_is_config_error(workdir, artifacts, capsys,
                                                    size):
    root, cfg = workdir
    out, out_fp = artifacts
    rc = _energy(cfg, str(root / "e0"), f"{out}/student_kd.json",
                 f"{out_fp}/student_kd.json", "--eval-size", size)
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_energy_on_mixed_lengths_is_config_error(workdir, artifacts, capsys,
                                                 monkeypatch):
    root, cfg = workdir
    out, out_fp = artifacts
    make_dataset = pl.make_dataset

    def mixed(config):
        tok, train, dev, labels = make_dataset(config)
        dev[1] = (dev[1][0][:-1], dev[1][1])
        return tok, train, dev, labels

    monkeypatch.setattr(pl, "make_dataset", mixed)
    rc = _energy(cfg, str(root / "mixed"), f"{out}/student_kd.json",
                 f"{out_fp}/student_kd.json", "--eval-size", "2")
    assert rc == 2
    assert "equal-length" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("hidden_dim", 16), ("intermediate_dim", 16), ("num_heads", 4),
    ("num_layers", 1), ("max_len", 10), ("num_labels", 3)])
def test_energy_architecture_mismatch_is_config_error(workdir, artifacts,
                                                      capsys, field, value):
    root, cfg = workdir
    out, _ = artifacts
    config = pl.load_config(cfg, {"model": {"quant_mode": "fp"}})
    num_labels = value if field == "num_labels" else 2
    if field != "num_labels":
        config["model"][field] = value
    tok, _train, _dev, _labels = pl.make_dataset(pl.load_config(cfg))
    ckpt = str(root / f"fp_{field}.json")
    save_student(pl.build_student(config, tok, num_labels=num_labels),
                 "kd", ckpt)
    rc = _energy(cfg, str(root / "arch"), f"{out}/student_kd.json", ckpt)
    assert rc == 2
    assert f"{field} differ" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["energy", "simulate"])
def test_spike_path_on_non_finite_student_is_numeric_error(
        workdir, artifacts, capsys, monkeypatch, command):
    root, cfg = workdir
    out, out_fp = artifacts
    ckpt = f"{out}/student_kd.json"
    _poison_on_load(monkeypatch, ckpt, "tok_emb", (CLS, 0))
    dest = str(root / f"nan_{command}")
    if command == "energy":
        rc = _energy(cfg, dest, ckpt, f"{out_fp}/student_kd.json")
    else:
        rc = main(["simulate", "--config", cfg, "--out", dest,
                   "--student", ckpt])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def wide_vocab_cfg(workdir):
    """A config whose TSV data has a 200-word vocabulary, wider than the
    synthetic task's that the pipeline's students were built with."""
    root, _cfg = workdir
    data = root / "wide_vocab"
    data.mkdir()
    rows = [f"{' '.join(f'w{i + j}' for j in range(5))}\t{i % 2}"
            for i in range(0, 200, 5)]
    for split in ("train", "dev"):
        (data / f"{split}.tsv").write_text("text_a\tlabel\n"
                                           + "\n".join(rows) + "\n")
    cfg_path = root / "wide_vocab.yaml"
    cfg_path.write_text(yaml.safe_dump(
        {**SMALL_CFG, "data": {**SMALL_CFG["data"], "path": str(data)}}))
    return str(cfg_path)


def _tsv_data(root, dev_labels):
    """A TSV data directory whose train split has the labels neg and pos,
    and whose dev rows carry `dev_labels`."""
    data = root / "tsv"
    data.mkdir()
    (data / "train.tsv").write_text("text_a\tlabel\ngood day\tpos\n"
                                    "bad day\tneg\n")
    (data / "dev.tsv").write_text("text_a\tlabel\n" + "".join(
        f"fine day\t{label}\n" for label in dev_labels))
    return data


def test_dev_labels_take_the_training_split_ids(tmp_path):
    # a dev split without neg must not renumber pos as 0
    cfg = pl.load_config(overrides={"data": {
        "path": str(_tsv_data(tmp_path, ["pos", "pos"]))}})
    _tok, train, dev, labels = pl.make_dataset(cfg)
    assert labels == ["neg", "pos"]
    assert [label for _tokens, label in train] == [1, 0]
    assert [label for _tokens, label in dev] == [1, 1]


def test_unknown_dev_label_is_config_error(tmp_path, capsys):
    data = _tsv_data(tmp_path, ["pos", "maybe"])
    cfg = tmp_path / "maybe.yaml"
    cfg.write_text(yaml.safe_dump(
        {**SMALL_CFG, "data": {**SMALL_CFG["data"], "path": str(data)}}))
    rc = main(["train-teacher", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{data / 'dev.tsv'}:3: label 'maybe'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "teacher.json")


@pytest.mark.parametrize("command", ["eval", "finetune", "simulate", "energy"])
def test_out_of_vocabulary_tokens_are_config_error(workdir, artifacts,
                                                   wide_vocab_cfg, capsys,
                                                   command):
    root, _cfg = workdir
    out, out_fp = artifacts
    dest = str(root / f"oov_{command}")
    if command == "energy":
        rc = _energy(wide_vocab_cfg, dest, f"{out}/student_kd.json",
                     f"{out_fp}/student_kd.json")
    else:
        rc = main([command, "--config", wide_vocab_cfg, "--out", dest,
                   "--student", f"{out}/student_kd.json"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "vocabulary" in err and "Traceback" not in err
