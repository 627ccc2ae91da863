"""Fig. 5 — execution time breakdown by model layer category.

The paper's categories: Mixtral — input normalization, attention,
post-attention normalization, MoE; BlackMamba — RMS layernorm, Mamba,
MoE. Headline claim: the MoE layer averages ~85% of execution time.
"""

from __future__ import annotations

import numpy as np

from ..gpu import A40
from ..models import BLACKMAMBA_2_8B, MIXTRAL_8X7B
from ..scenarios import SimulationCache, resolve_cache
from .common import ExperimentResult
from .fig4_stages import BLACKMAMBA_POINTS, MIXTRAL_POINTS, SEQ_LEN

PAPER_MOE_SHARE_AVG = 0.85


def run(gpu=A40, cache: SimulationCache | None = None) -> ExperimentResult:
    result = ExperimentResult("fig5", "Layer-level time breakdown")
    cache = resolve_cache(cache)
    moe_shares = []
    for cfg, points in ((MIXTRAL_8X7B, MIXTRAL_POINTS), (BLACKMAMBA_2_8B, BLACKMAMBA_POINTS)):
        for dense, batch in points:
            trace = cache.trace(cfg, gpu, batch, SEQ_LEN, dense=dense)
            layers = trace.layer_seconds()
            layers.pop("optimizer", None)
            total = sum(layers.values())
            tag = f"{cfg.family}_{'D' if dense else 'S'}{batch}"
            for layer_name, seconds in sorted(layers.items()):
                result.add(f"{tag}_{layer_name}_share", seconds / total)
            moe_shares.append(trace.moe_fraction())
    result.add("average_moe_share", float(np.mean(moe_shares)), PAPER_MOE_SHARE_AVG,
               note="paper: MoE accounts for ~85% on average")
    return result
