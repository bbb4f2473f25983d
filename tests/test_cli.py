import json
import os

import pytest
import yaml

from eqspike.cli import main

SMALL_CFG = {
    "model": {"hidden_dim": 8, "intermediate_dim": 12, "num_heads": 2,
              "num_layers": 2, "max_len": 8, "quant_mode": "1.58bit"},
    "teacher": {"hidden_dim": 8, "intermediate_dim": 12, "num_heads": 2,
                "num_layers": 2, "epochs": 2},
    "train": {"kd_epochs": 1, "finetune_epochs": 1},
    "data": {"train_size": 8, "dev_size": 8},
    "energy": {"timesteps": 30},
}


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
    lines = open(os.path.join(out, "kd_report.csv")).read().splitlines()
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


@pytest.mark.parametrize("text", ["nonsense: 1\n", "solver: {damping: 0.5}\n",
                                  "vjp: {max_terms: 5}\n"],
                         ids=["nonsense", "solver.damping", "vjp.max_terms"])
def test_bad_config_key_is_config_error(workdir, capsys, text):
    root, _ = workdir
    bad = root / "bad.yaml"
    bad.write_text(text)
    rc = main(["train-teacher", "--config", str(bad), "--out", str(root / "y")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_bad_quant_mode_is_config_error(workdir):
    root, _ = workdir
    bad = root / "badmode.yaml"
    bad.write_text("model:\n  quant_mode: 3bit\n")
    rc = main(["train-teacher", "--config", str(bad), "--out", str(root / "z")])
    assert rc == 2


def test_train_teacher_rerun_is_byte_identical(workdir):
    root, cfg = workdir
    a, b = str(root / "det_a"), str(root / "det_b")
    for out in (a, b):
        assert main(["train-teacher", "--config", cfg, "--out", out]) == 0
    for name in ("teacher.json", "teacher_metrics.json"):
        assert open(f"{a}/{name}", "rb").read() == open(f"{b}/{name}", "rb").read()


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
        assert open(f"{a}/{name}", "rb").read() == open(f"{b}/{name}", "rb").read()
