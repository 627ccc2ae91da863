"""repro — reproduction of "Understanding the Performance and Estimating the
Cost of LLM Fine-Tuning" (IISWC 2024, arXiv:2408.04693).

The package is organized as a set of substrates (autograd engine, layer
library, quantizer, model zoo, dataset generators, GPU simulator, memory
estimator, profiler, cloud pricing) underneath the paper's primary
contribution, the analytical fine-tuning cost model in :mod:`repro.core`.

Quickstart::

    from repro.core import FineTuningCostModel, dataset_num_queries
    from repro.gpu import GPU_REGISTRY
    from repro.models import MIXTRAL_8X7B

    model = FineTuningCostModel.for_dataset(MIXTRAL_8X7B, "math14k")
    estimate = model.estimate(
        GPU_REGISTRY["H100-80GB"], dataset_num_queries("math14k"), epochs=10
    )
    print(estimate.dollars, estimate.hours)
"""

__version__ = "1.0.0"
