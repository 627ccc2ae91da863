"""Quickstart: how much does it cost to fine-tune Mixtral on your data?

Answers the paper's headline question in a dozen lines: given a dataset
size and a GPU, estimate max batch size, throughput, hours and dollars.
Then shows the scenario engine: declare a custom sweep as a grid, run it
through the shared simulation cache, and observe that rerunning the same
grid costs zero additional simulations.

Run:  python examples/quickstart.py
"""

from repro.core import FineTuningCostModel
from repro.gpu import A40, A100_80, H100
from repro.models import MIXTRAL_8X7B
from repro.scenarios import ScenarioGrid, SweepRunner, default_cache


def custom_sweep() -> None:
    """A custom grid + cached sweep: sparse vs dense Mixtral on the A40
    across batch sizes, at the CS dataset's median sequence length."""
    grid = ScenarioGrid.product(
        models=(MIXTRAL_8X7B,),
        gpus=(A40,),
        datasets=("commonsense15k",),
        dense=(True, False),
        batch_sizes=(1, 2, 4, 8),
    )
    runner = SweepRunner()  # serial; rows come back in grid order
    print(f"\nCustom sweep ({len(grid)} scenarios):")
    for point in runner.run(grid):
        print(f"  {point.label:<28} {point.queries_per_second:>6.2f} queries/s")
    before = default_cache().stats()
    runner.run(grid)  # rerun: every lookup is a cache hit
    after = default_cache().stats()
    print(f"Rerunning the sweep: +{after.hits - before.hits} hits, "
          f"+{after.misses - before.misses} simulations — warm sweeps are free.")


def main() -> None:
    # Sparse (top-2 of 8 experts) QLoRA fine-tuning on a MATH-14k-like
    # corpus — the configuration of the paper's Table IV.
    cost_model = FineTuningCostModel.for_dataset(MIXTRAL_8X7B, "gsm8k", dense=False)

    print("Fine-tuning Mixtral-8x7B (sparse QLoRA), 14k queries x 10 epochs\n")
    print(f"{'GPU':<12} {'max batch':>9} {'queries/s':>10} {'hours':>7} {'cost':>8}")
    for estimate in cost_model.rank_gpus([A40, A100_80, H100], num_queries=14000, epochs=10):
        print(
            f"{estimate.gpu_name:<12} {estimate.max_batch_size:>9} "
            f"{estimate.throughput_qps:>10.2f} {estimate.hours:>7.1f} "
            f"${estimate.dollars:>7.1f}"
        )
    print("\nPaper's Table IV: A40 $32.7, A100-80GB $25.4, H100 $17.9 — H100 wins.")
    custom_sweep()


if __name__ == "__main__":
    main()
