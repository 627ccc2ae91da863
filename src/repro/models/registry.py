"""Model registry: paper-scale specs and tiny trainable instantiations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from .config import (
    BLACKMAMBA_2_8B,
    BLACKMAMBA_TINY,
    BlackMambaConfig,
    MIXTRAL_8X7B,
    MIXTRAL_TINY,
    MixtralConfig,
)
from .params import model_memory_gb, param_breakdown

ModelConfig = Union[MixtralConfig, BlackMambaConfig]


@dataclass(frozen=True)
class ModelSpec:
    """A named model with its fine-tuning recipe, as evaluated in the paper."""

    key: str
    config: ModelConfig
    finetune_method: str  # "qlora" or "full"
    display_name: str

    @property
    def family(self) -> str:
        return self.config.family

    @property
    def params_total(self) -> int:
        return param_breakdown(self.config).total

    @property
    def memory_gb(self) -> float:
        return model_memory_gb(self.config)

    def build(self, rng: Optional[np.random.Generator] = None):
        """Instantiate a trainable model. Paper-scale configs are refused —
        they exist for analytic use only."""
        if self.params_total > 50_000_000:
            raise ValueError(
                f"{self.key} is a paper-scale config ({self.params_total/1e9:.1f}B params); "
                "instantiate a tiny spec for actual training"
            )
        if isinstance(self.config, MixtralConfig):
            from .mixtral import MixtralModel

            return MixtralModel(self.config, finetune_mode=self.finetune_method, rng=rng)
        from .blackmamba import BlackMambaModel

        return BlackMambaModel(self.config, rng=rng)


MODEL_REGISTRY: Dict[str, ModelSpec] = {
    "mixtral-8x7b": ModelSpec(
        key="mixtral-8x7b",
        config=MIXTRAL_8X7B,
        finetune_method="qlora",
        display_name="Mixtral",
    ),
    "blackmamba-2.8b": ModelSpec(
        key="blackmamba-2.8b",
        config=BLACKMAMBA_2_8B,
        finetune_method="full",
        display_name="BlackMamba",
    ),
    "mixtral-tiny": ModelSpec(
        key="mixtral-tiny",
        config=MIXTRAL_TINY,
        finetune_method="qlora",
        display_name="Mixtral (tiny)",
    ),
    "blackmamba-tiny": ModelSpec(
        key="blackmamba-tiny",
        config=BLACKMAMBA_TINY,
        finetune_method="full",
        display_name="BlackMamba (tiny)",
    ),
}


def get_model_spec(key: str) -> ModelSpec:
    if key not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {key!r}; available: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[key]
