"""Per-request token means of a workload.

The paper evaluates at "low", "medium" and "high" Poisson arrival rates
but never prints the absolute rates (Figure 9 caption).  The harness
anchors the tiers at *measured* cluster capacity instead, as the paper's
Section V anchors them at platform capacity: a saturated probe
simulation gives the capacity, and ``EvalSettings.load_factors`` scale
it (see :meth:`repro.harness.runner.EvalSettings.rates_for`).  What the
runner needs from the workload itself are the two means below, which
size its traces by how many requests the GPU pools hold at once.
"""

from __future__ import annotations

from repro.workload.datasets import DatasetSpec, MixedDataset, mean_request_tokens


def mixture_mean_request_tokens(dataset: DatasetSpec | MixedDataset) -> float:
    """Expected prompt+reasoning+answering tokens of one request."""
    if isinstance(dataset, MixedDataset):
        return sum(
            weight * mean_request_tokens(spec)
            for spec, weight in dataset.components
        )
    return mean_request_tokens(dataset)


def mixture_mean_decode_tokens(dataset: DatasetSpec | MixedDataset) -> float:
    """Expected decode (reasoning+answering) tokens of one request."""
    if isinstance(dataset, MixedDataset):
        return sum(
            weight * (spec.reasoning.mean + spec.answering.mean)
            for spec, weight in dataset.components
        )
    return dataset.reasoning.mean + dataset.answering.mean
