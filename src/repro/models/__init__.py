"""Model zoo (substrate S5): Mixtral and BlackMamba families.

Paper-scale configs (:data:`MIXTRAL_8X7B`, :data:`BLACKMAMBA_2_8B`) are
used analytically — parameter counts, memory, FLOPs. Tiny configs
(:data:`MIXTRAL_TINY`, :data:`BLACKMAMBA_TINY`) instantiate real trainable
models on the autograd engine for the accuracy and load-balance studies.

The trainable models — ``BlackMambaModel``, ``MambaLayer``,
``MoEFFNLayer``, ``MixtralBlock``, ``MixtralModel`` and
``convert_to_qlora`` — are resolved on first access, so a planner that
only reads configs and parameter counts never imports the autograd,
layer and quantization stacks under them.
"""

from ..lazy import lazy_exports

from .config import (
    BLACKMAMBA_2_8B,
    BLACKMAMBA_TINY,
    BlackMambaConfig,
    MIXTRAL_8X7B,
    MIXTRAL_TINY,
    MixtralConfig,
    MoESettings,
)
from .params import (
    GB,
    ParamBreakdown,
    blackmamba_param_breakdown,
    lora_adapter_parameters,
    mixtral_param_breakdown,
    model_memory_gb,
    param_breakdown,
    trainable_parameters,
    weight_bytes_per_param,
)
from .registry import MODEL_REGISTRY, ModelSpec, get_model_spec

#: Name → submodule for the names resolved on first access.
_LAZY = {
    "BlackMambaModel": ".blackmamba",
    "MambaLayer": ".blackmamba",
    "MoEFFNLayer": ".blackmamba",
    "MixtralBlock": ".mixtral",
    "MixtralModel": ".mixtral",
    "convert_to_qlora": ".mixtral",
}

__all__ = [
    "BLACKMAMBA_2_8B",
    "BLACKMAMBA_TINY",
    "BlackMambaConfig",
    "BlackMambaModel",
    "GB",
    "MIXTRAL_8X7B",
    "MIXTRAL_TINY",
    "MODEL_REGISTRY",
    "MambaLayer",
    "MixtralBlock",
    "MixtralConfig",
    "MixtralModel",
    "MoEFFNLayer",
    "MoESettings",
    "ModelSpec",
    "ParamBreakdown",
    "blackmamba_param_breakdown",
    "convert_to_qlora",
    "get_model_spec",
    "lora_adapter_parameters",
    "mixtral_param_breakdown",
    "model_memory_gb",
    "param_breakdown",
    "trainable_parameters",
    "weight_bytes_per_param",
]


__getattr__, __dir__ = lazy_exports(globals(), _LAZY, ("blackmamba", "mixtral"))
