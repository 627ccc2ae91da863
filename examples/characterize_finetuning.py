"""Scenario: characterize a fine-tuning step the way the paper's Section IV does.

Prints the Fig. 4 stage, Fig. 5 layer and Fig. 6 kernel breakdowns for
Mixtral and BlackMamba on a simulated A40 (the rows the experiment report
shows), then two characterization takeaways: the memory-bound ->
compute-bound transition as batch grows, and sparse vs dense throughput.

Run:  python examples/characterize_finetuning.py
"""

from repro.experiments import fig4_stages, fig5_layers, fig6_kernels
from repro.gpu import A40, GPUSimulator
from repro.models import MIXTRAL_8X7B

SEQ_LEN = 128


def breakdowns() -> None:
    for experiment in (fig4_stages, fig5_layers, fig6_kernels):
        print(experiment.run().to_table())
        print()


def batch_transition(sim: GPUSimulator) -> None:
    print("=== Takeaway 5: memory-bound -> compute-bound as batch grows ===")
    print(f"{'batch':>5} {'SM% (tw)':>9} {'DRAM% (tw)':>11} {'queries/s':>10}")
    for batch in (1, 4, 10, 32):
        trace = sim.simulate_step(MIXTRAL_8X7B, batch, SEQ_LEN, dense=False)
        print(
            f"{batch:>5} {trace.time_weighted_sm('moe'):>9.0f} "
            f"{trace.time_weighted_dram('moe'):>11.0f} {trace.queries_per_second:>10.2f}"
        )
    print()


def sparse_dense_comparison(sim: GPUSimulator) -> None:
    print("=== Sparse vs dense at the same and at max batch sizes ===")
    traces = [
        sim.simulate_step(MIXTRAL_8X7B, 2, SEQ_LEN, dense=True, label="dense bsz=2"),
        sim.simulate_step(MIXTRAL_8X7B, 2, SEQ_LEN, dense=False, label="sparse bsz=2"),
        sim.simulate_step(MIXTRAL_8X7B, 8, SEQ_LEN, dense=False, label="sparse bsz=8 (max-ish)"),
    ]
    print(f"{'configuration':<40} {'queries/s':>18}")
    for trace in traces:
        print(f"{trace.label:<40} {trace.queries_per_second:18.3f}")
    print()


def main() -> None:
    breakdowns()
    sim = GPUSimulator(A40)
    batch_transition(sim)
    sparse_dense_comparison(sim)


if __name__ == "__main__":
    main()
