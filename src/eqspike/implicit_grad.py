"""Training through the equilibrium: exact gradients and the optimizer step.

Gradients never unroll the temporal simulation.  Why one sweep with its
caches and one closed-form `backward` solve the implicit-function
adjoint exactly is in the `model` module docstring.

A loss has one signature, `loss(tokens, labels, a_blocks, params, grads)
-> (loss, g_blocks)`.  The labels are class ids for `ce_loss` and item
positions for the distillation loss.  `a_blocks` are the block outputs,
(seq, d) for one example or (B, seq, d) for a stacked batch.  `params`
and `grads` map every trained name (the model's, then the
`extra_params`') to its array and to its view in a gradient buffer.  The
loss reads the parameters it needs, adds their gradients into `grads` and
returns the loss summed over the batch and its gradient on each block
output (None where it does not read one).  The model's `backward` then
adds the rest of the gradients into the same `grads`.  The teacher shares
all of this with the student.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import stack_items
from .equilibrium import solve_fixed_point  # noqa: F401  (public re-export)
from .numerics import AdamState, FlatParams, adam_step_many


def ce_loss(tokens, labels, a_blocks, params, grads):
    """Cross-entropy on the classifier over the final block's CLS rate.

    The logits are one `linear` over the batch's CLS rows, and their
    gradient goes back through that linear's `linear_backward`.
    """
    final = a_blocks[-1]
    cls = final[..., 0, :]
    loss, g_logits = ad.cross_entropy(
        ad.linear(cls, params["cls.w"], params["cls.b"]), labels)
    g_cls, g_w, g_b = ad.linear_backward(g_logits, cls, params["cls.w"])
    grads["cls.w"] += g_w
    grads["cls.b"] += g_b
    g_final = np.zeros_like(final)
    g_final[..., 0, :] = g_cls
    return loss, [None] * (len(a_blocks) - 1) + [g_final]


def _owners(model, extra_params: FlatParams | None) -> list:
    """The parameter buffers a step trains: the model's, then any extras."""
    return [model.params] + ([extra_params] if extra_params else [])


def _by_name(buffers: list) -> dict:
    return {name: a for buf in buffers for name, a in buf.items()}


def example_gradients(model, tokens, labels, loss, params: dict,
                      grads: dict) -> float:
    """Adds the gradient of `loss` on one example or a batch into `grads`.

    `model` is the student `EncoderStack` or a `TeacherModel`; `tokens` is
    (seq,) with an int label, or a stacked batch (B, seq) with labels (B,).
    Runs the sweep with its caches (it raises NumericError on a non-finite
    block output), the loss and the model's backward, and returns the loss.
    """
    caches = []
    a_blocks = model.sweep(tokens, caches=caches)
    value, g_blocks = loss(tokens, labels, a_blocks, params, grads)
    model.backward(caches, g_blocks, grads)
    return value


def batch_gradients(model, batch, loss=ce_loss,
                    extra_params: FlatParams | None = None):
    """(mean loss, gradient buffers) of a batch of (tokens, label) pairs.

    One `FlatParams.zeros` per owner, the model's then `extra_params`'.
    The batch is stacked into one `(B, seq)` array (`data.stack_items`),
    whose `example_gradients` adds into those buffers; each is then
    divided once by the batch size.  An entry the loss does not reach
    stays zero (the classifier's under the KD loss).
    """
    owners = _owners(model, extra_params)
    buffers = [p.zeros() for p in owners]
    params, grads = _by_name(owners), _by_name(buffers)
    tokens, labels = stack_items(batch)
    total = example_gradients(model, tokens, labels, loss, params, grads)
    n = len(batch)
    for buf in buffers:
        buf.flat /= n
    return total / n, buffers


def training_step(stack, batch, optimizer: AdamState, loss=ce_loss,
                  extra_params: FlatParams | None = None):
    """One Adam step of the student over a batch of (tokens, label) pairs.

    `batch_gradients`, then one `adam_step_many` over its buffers, which
    checks every gradient finite before it writes any parameter or
    optimizer state.  Returns what `batch_gradients` returns.
    """
    value, buffers = batch_gradients(stack, batch, loss, extra_params)
    adam_step_many(_owners(stack, extra_params), buffers, optimizer)
    return value, buffers
