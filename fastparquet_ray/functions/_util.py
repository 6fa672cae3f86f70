"""Shared helpers for the operator modules."""

from __future__ import annotations


def pool_max(divisor: int = 4, lo: int = 2) -> int:
    """Autoscaling actor-pool CAP sized to the session: cpus/divisor,
    at least ``lo``. Pools keep min=1 so stacked pipelines can never
    reserve every CPU ahead of their upstream read stage (the 4-CPU
    test-session wedge), while a 32-CPU box gets real parallelism for
    heavy per-batch kernels (minhash/shingle/verify/lang-id/ANN)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4))
    return max(lo, cpus // divisor)
