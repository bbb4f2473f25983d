"""Acceptance suite: one test per release criterion, each printing a
single PASS line with the measured values when it succeeds.

The heavyweight training fixtures (teacher + distillation + fine-tuning
across five seeds and three weight modes) are shared between the
distillation-efficacy and quantization-ordering criteria.
"""

import filecmp
import os

import numpy as np
import pytest
import yaml

from eqspike import pipeline as pl
from eqspike.cli import main as cli_main
from eqspike.data import encode_corpus, synth_task
from eqspike.equilibrium import solve_fixed_point
from eqspike.implicit_grad import ce_loss
from eqspike.model import EncoderStack, StackConfig
from eqspike.quantizer import QuantMode, quantize_1bit, quantize_158bit
from oracles import example_gradient_dict

SEEDS = (0, 1, 2, 3, 4)


def report(line):
    print(f"\nPASS: {line}")


# -- 1. temporal ASR converges to the solved equilibrium ----------------

def test_temporal_equilibrium_equivalence():
    tol, T = 0.02, 500
    worst = 0.0
    for seed in SEEDS:
        cfg = StackConfig(vocab_size=24, hidden_dim=64, intermediate_dim=128,
                          num_heads=2, num_layers=2, max_len=8, num_labels=2,
                          quant_mode=QuantMode.FULL_PRECISION)
        stack = EncoderStack(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(1000 + seed)
        tokens = rng.integers(2, 24, size=6)
        sol = solve_fixed_point(stack, tokens)
        _, asrs, _ = stack.temporal_simulate(tokens, T)
        for i, target in enumerate(sol.asr_star):
            dev = float(np.mean(np.abs(asrs[f"blk{i}.out"] - target)))
            worst = max(worst, dev)
            assert dev <= tol, f"seed {seed} layer {i}: deviation {dev:.4f}"
    report(f"temporal-equilibrium equivalence: worst mean-abs deviation "
           f"{worst:.4f} <= {tol} at T={T} over {len(SEEDS)} seeds")


# -- 2. implicit gradients match finite differences ---------------------

def test_implicit_gradient_correctness():
    h, tol = 1e-4, 1e-2
    worst, checked = 0.0, 0
    for seed in SEEDS:
        cfg = StackConfig(vocab_size=11, hidden_dim=8, intermediate_dim=16,
                          num_heads=2, num_layers=2, max_len=6, num_labels=2,
                          quant_mode=QuantMode.FULL_PRECISION)
        stack = EncoderStack(cfg, np.random.default_rng(seed))
        tokens, label = np.array([2, 4, 5, 6]), 1
        _, grads = example_gradient_dict(stack, tokens, label, ce_loss, {})
        params = stack.params

        def loss():
            s = solve_fixed_point(stack, tokens)
            logits = stack.cls_w @ s.asr_star[-1][0] + stack.cls_b
            shifted = logits - logits.max()
            return -(shifted[label] - np.log(np.exp(shifted).sum()))

        for name, grad in grads.items():
            flat_p = params[name].reshape(-1)
            flat_g = grad.reshape(-1)
            for i in range(flat_p.size):
                if abs(flat_g[i]) <= 1e-6:
                    continue
                x0 = flat_p[i]
                flat_p[i] = x0 + h
                f_plus = loss()
                flat_p[i] = x0 - h
                f_minus = loss()
                flat_p[i] = x0
                fd = (f_plus - f_minus) / (2 * h)
                rel = abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]))
                worst = max(worst, rel)
                checked += 1
                assert rel <= tol, f"seed {seed} {name}[{i}]: rel err {rel:.2e}"
    report(f"implicit-gradient correctness: worst relative error {worst:.2e} "
           f"<= {tol} over {checked} coordinates, {len(SEEDS)} seeds")


# -- 3. quantizer exactness over 10^4 random matrices -------------------

def test_quantizer_exactness():
    rng = np.random.default_rng(0)
    trials = 10_000
    for _ in range(trials):
        rows, cols = rng.integers(2, 9, size=2)
        w = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-2, 2)

        q1, alpha = quantize_1bit(w)
        assert set(np.unique(q1)) <= {-1.0, 1.0}
        assert abs(alpha - w.mean()) <= 1e-12

        q2, beta = quantize_158bit(w)
        assert set(np.unique(q2)) <= {-1.0, 0.0, 1.0}
        assert abs(beta - np.abs(w).mean()) <= 1e-12

        # shift equivariance: binary codes ignore a common offset
        shift = float(rng.normal()) * 5.0
        assert np.array_equal(quantize_1bit(w + shift)[0], q1)

        # positive-scale invariance: ternary codes ignore a positive gain
        scale = 10.0 ** rng.uniform(-3, 3)
        assert np.array_equal(quantize_158bit(scale * w)[0], q2)
    report(f"quantizer exactness: {trials} random matrices, binary codes in "
           "{-1,+1} with exact mean offset, ternary codes in {-1,0,+1} with "
           "exact mean-abs scale, shift/scale invariance held")


# -- shared training grid for criteria 4 and 5 --------------------------

@pytest.fixture(scope="module")
def training_grid():
    """Per-seed results of the staged pipeline in all three weight modes,
    plus the KD-disabled ablation of the ternary arm.  Each arm's selected
    student is also scored once on a held-out set of 512 sentences that
    neither training nor selection saw ("held_out")."""
    grid = {}
    for seed in SEEDS:
        cfg = pl.load_config(None, {"seed": seed})
        tok, train, dev, labels = pl.make_dataset(cfg)
        held = encode_corpus(tok, synth_task(cfg["data"]["task"], 512,
                                             seed + 2000))
        teacher = pl.build_teacher(cfg, tok, num_labels=len(labels))
        pl.train_teacher(cfg, teacher, train, dev)
        row = {"held_out": {}}

        def score(arm, stack, history):
            row[arm] = history[-1]["dev_accuracy"]
            row["held_out"][arm] = pl.student_accuracy(stack, held)

        for mode in ("fp", "1.58bit", "1bit"):
            stack = pl.build_student(cfg, tok, quant_mode=mode,
                                     num_labels=len(labels))
            kd_report, _ = pl.distill_student(cfg, stack, teacher, train)
            score(mode, stack, pl.finetune_student(cfg, stack, train, dev))
            if mode == "1.58bit":
                row["kd_first"] = kd_report.epochs[0][2]
                row["kd_last"] = kd_report.epochs[-1][2]
                ablation = pl.build_student(cfg, tok, quant_mode=mode,
                                            num_labels=len(labels))
                score("no_kd", ablation,
                      pl.finetune_student(cfg, ablation, train, dev))
        grid[seed] = row
    return grid


# -- 4. distillation halves its loss and lifts final accuracy -----------

def test_kd_efficacy(training_grid):
    for seed, row in training_grid.items():
        assert row["kd_last"] <= 0.5 * row["kd_first"], (
            f"seed {seed}: KD loss {row['kd_first']:.3f} -> "
            f"{row['kd_last']:.3f} misses the 50% reduction")
    wins = sum(row["1.58bit"] > row["no_kd"] for row in training_grid.values())
    assert wins >= 4, f"KD beat the no-KD ablation on only {wins}/5 seeds"
    reductions = [row["kd_last"] / row["kd_first"]
                  for row in training_grid.values()]
    report(f"KD efficacy: loss reduced to {max(reductions):.0%} of initial "
           f"(worst seed) within the epoch budget; KD pipeline beat the "
           f"no-KD ablation on {wins}/5 seeds")


# -- 5. accuracy ordering across weight precisions ----------------------

def test_quantization_ordering(training_grid):
    ordered = sum(row["fp"] >= row["1.58bit"] >= row["1bit"]
                  for row in training_grid.values())
    assert ordered >= 3, f"precision ordering held on only {ordered}/5 seeds"
    ternary = sorted(row["1.58bit"] for row in training_grid.values())
    median = ternary[len(ternary) // 2]
    threshold = 0.85
    assert median >= threshold, (
        f"median ternary dev accuracy {median:.3f} below {threshold}")

    def held_out(row):
        return "/".join(f"{row['held_out'][arm]:.3f}"
                        for arm in ("fp", "1.58bit", "1bit", "no_kd"))

    per_seed = "; ".join(
        f"seed {seed} {row['fp']:.3f}/{row['1.58bit']:.3f}/{row['1bit']:.3f}"
        f" (held-out {held_out(row)})" for seed, row in training_grid.items())
    report(f"quantization ordering: full >= ternary >= binary on {ordered}/5 "
           f"seeds; median ternary dev accuracy {median:.3f} >= {threshold}; "
           f"dev accuracy fp/1.58-bit/1-bit (held-out fp/1.58-bit/1-bit/no-KD):"
           f" {per_seed}")


# -- 6. spike-weighted operation and energy accounting ------------------

def test_energy_accounting():
    cfg = pl.load_config(None, {"seed": 0})
    tok, _train, dev, labels = pl.make_dataset(cfg)
    quant = pl.build_student(cfg, tok, quant_mode="1.58bit",
                             num_labels=len(labels))
    full = pl.build_student(cfg, tok, quant_mode="fp", num_labels=len(labels))
    result = pl.energy_compare(cfg, quant, full, dev[:8],
                               T=cfg["energy"]["timesteps"])
    ratio = result["norm_ops_ratio"]
    assert 0.8 <= ratio <= 1.25, f"Norm#OPS ratio {ratio:.3f} outside [0.8, 1.25]"
    kernel = result["quantized"]["kernel_ops"]
    expected = result["quantized"]["expected_ops"]
    assert kernel == expected, "kernel and spike-log op counts disagree"
    energy_ratio = result["energy_ratio"]
    assert energy_ratio == pytest.approx(ratio / 9.0, rel=1e-9), (
        f"energy ratio {energy_ratio:.4f} is not Norm#OPS ratio / 9")
    report(f"energy accounting: Norm#OPS ratio {ratio:.3f} in [0.8, 1.25]; "
           f"kernel op counts match the spike log exactly on "
           f"{len(kernel)} linears; energy ratio {energy_ratio:.4f} = ratio/9")


# -- 7. convergence-curve artifact --------------------------------------

BURN_IN = 10
CHECKPOINT_STEPS = (10, 16, 25, 40, 63, 100, 158, 251, 398, 500)


def _trace_residuals(stack, tokens, T):
    rows, _summary = pl.simulate(None, stack, tokens, T)
    by_layer = {}
    for step, layer, _mean, resid in rows:
        by_layer.setdefault(layer, []).append(resid)
    return by_layer


def _steps_to_tolerance(residuals, frac=0.1):
    """Mean over layers of the first step (after burn-in) at which the
    residual falls to `frac` of its burn-in value and stays there."""
    steps = []
    for res in residuals.values():
        target = frac * res[BURN_IN - 1]
        hit = next((i + 1 for i in range(BURN_IN - 1, len(res))
                    if max(res[i:]) <= target), len(res))
        steps.append(hit)
    return float(np.mean(steps))


def test_convergence_curve_artifact():
    T = 500
    cfg = pl.load_config(None, {"seed": 0})
    tok, _train, dev, labels = pl.make_dataset(cfg)
    tokens = dev[0][0]
    iters = {}
    for mode in ("fp", "1bit"):
        stack = pl.build_student(cfg, tok, quant_mode=mode,
                                 num_labels=len(labels))
        residuals = _trace_residuals(stack, tokens, T)
        # residuals sampled on a geometric step grid (the log-axis reading
        # of the trace) must be nonincreasing after the burn-in
        for layer, res in residuals.items():
            vals = [res[s - 1] for s in CHECKPOINT_STEPS]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), (
                f"{mode} {layer}: residual rose after burn-in: {vals}")
        iters[mode] = _steps_to_tolerance(residuals)
    gap = abs(iters["1bit"] - iters["fp"]) / iters["fp"]
    assert gap <= 0.20, (
        f"iteration-to-tolerance gap {gap:.0%} exceeds 20% "
        f"(fp {iters['fp']:.1f}, 1bit {iters['1bit']:.1f})")
    report(f"convergence traces: residuals nonincreasing after {BURN_IN}-step "
           f"burn-in on the geometric grid; iterations-to-tolerance fp "
           f"{iters['fp']:.1f} vs 1bit {iters['1bit']:.1f} ({gap:.0%} apart)")


# -- 8. byte-identical CLI artifacts ------------------------------------

CLI_CFG = {
    "model": {"hidden_dim": 8, "intermediate_dim": 12, "num_heads": 2,
              "num_layers": 2, "max_len": 8, "quant_mode": "1.58bit"},
    "teacher": {"hidden_dim": 8, "intermediate_dim": 12, "num_heads": 2,
                "num_layers": 2, "epochs": 2},
    "train": {"kd_epochs": 1, "finetune_epochs": 1},
    "data": {"train_size": 8, "dev_size": 8},
    "energy": {"timesteps": 30},
}


def test_cli_determinism(tmp_path):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(CLI_CFG))
    cfg = str(cfg_path)

    def run_all(out):
        fp_out = out + "_fp"
        assert cli_main(["train-teacher", "--config", cfg, "--out", out]) == 0
        assert cli_main(["distill", "--config", cfg, "--out", out,
                         "--teacher", f"{out}/teacher.json"]) == 0
        assert cli_main(["finetune", "--config", cfg, "--out", out,
                         "--student", f"{out}/student_kd.json"]) == 0
        assert cli_main(["simulate", "--config", cfg, "--out", out,
                         "--student", f"{out}/student_finetuned.json"]) == 0
        assert cli_main(["distill", "--config", cfg, "--out", fp_out,
                         "--quant", "fp",
                         "--teacher", f"{out}/teacher.json"]) == 0
        assert cli_main(["energy", "--config", cfg, "--out", out,
                         "--quant-ckpt", f"{out}/student_kd.json",
                         "--fp-ckpt", f"{fp_out}/student_kd.json",
                         "--eval-size", "2"]) == 0
        assert cli_main(["eval", "--config", cfg, "--out", out,
                         "--student", f"{out}/student_finetuned.json"]) == 0

    a, b = str(tmp_path / "run_a"), str(tmp_path / "run_b")
    run_all(a)
    run_all(b)
    names = sorted(os.listdir(a))
    assert names  # every command above must have produced artifacts
    mismatch = [n for n in names
                if not filecmp.cmp(os.path.join(a, n), os.path.join(b, n),
                                   shallow=False)]
    assert not mismatch, f"artifacts differ between reruns: {mismatch}"
    report(f"determinism: {len(names)} CLI artifacts byte-identical across "
           "two identically seeded end-to-end runs")
