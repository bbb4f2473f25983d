"""Smoke tests of the benchmark itself, at a tiny shape (d=8, one epoch, T=30).

    python3 -m pytest eqbench

Every workload runs untraced and traced in a process of its own, the way
the benchmark is driven; the tests check that each run emits every metric
named in BENCHMARK.json with its unit and that the traced run's call-count
assertions hold.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "infer-long", "simulate")
NAMED = {"train": ("train_examples_per_s", "train_pipeline_s", "dev_accuracy"),
         "infer-long": ("infer_examples_per_s", "solve_ms_p50"),
         "simulate": ("sim_timesteps_per_s", "sim_ms_p50")}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--shape", "tiny"],
        capture_output=True, text=True, timeout=600, cwd=cwd, check=False)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    result = _result(proc)
    assert _units(result) == {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for name, m in result["metrics"].items()
               if name != "ok_frac")
    named = json.loads(next(line[6:] for line in proc.stdout.splitlines()
                            if line.startswith("named ")))
    for name in ("setup_s", "peak_rss_mb", "failed_frac") + NAMED[workload]:
        assert named[name]["unit"], name
    env = json.loads(next(line[4:] for line in proc.stdout.splitlines()
                          if line.startswith("env ")))
    assert env["blas_threads"] <= env["nproc"] and env["seed"] == 0
    if workload != "train":
        # test_kd_efficacy's bound belongs to the default epoch budget, so a
        # one-epoch tiny chain may miss it; the other checks hold at any shape
        assert result["correct"] and result["failed"] == 0, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_counts_hold(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    results = [_result(first), _result(second)]
    assert "call counts" not in first.stderr + second.stderr
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    for result in results:
        assert _units(result) == want
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if m["unit"] in ("count", "ratio", "frac")} for r in results]
    assert counts[0] == counts[1]  # counts repeat exactly between runs
    if workload != "train":
        assert results[0]["correct"], first.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "eqbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("infer-long", 0, cwd=tmp_path,
                script=str(tmp_path / "eqbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_patches_every_binding_and_restores_it():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    tracer_mod = importlib.import_module("tracer")
    model = importlib.import_module("eqspike.model")
    neuron = importlib.import_module("eqspike.neuron")
    implicit_grad = importlib.import_module("eqspike.implicit_grad")
    pipeline = importlib.import_module("eqspike.pipeline")
    originals = (neuron.lif_step, model.EncoderStack.__dict__["sweep"],
                 implicit_grad.solve_fixed_point)
    tracer = tracer_mod.Tracer().install()
    try:
        assert model.lif_step is neuron.lif_step is not originals[0]
        assert pipeline.solve_fixed_point is implicit_grad.solve_fixed_point
        assert implicit_grad.solve_fixed_point is not originals[2]
    finally:
        tracer.uninstall()
    assert model.lif_step is neuron.lif_step is originals[0]
    assert model.EncoderStack.__dict__["sweep"] is originals[1]
    assert pipeline.solve_fixed_point is originals[2]
