"""Unit 6 tour: serving configurations under a tight performance budget.

The lab's task (paper §3.6): "preparing multiple model serving
configurations that balance cost, latency, disk space and throughput under
tight performance budgets" — model-level optimizations on a server GPU,
the same model on an edge device, then Triton-style system optimizations.

Run:  python examples/serving_optimization.py
"""

from repro.common.tables import format_table
from repro.serving import (
    DEVICE_CATALOG,
    InferenceEngine,
    LoadProfile,
    TritonServer,
    food11_classifier,
)


def model_level(device_name="a100"):
    device = DEVICE_CATALOG[device_name]
    base = food11_classifier()
    variants = {
        "baseline fp32": base,
        "graph-optimized": base.graph_optimized(),
        "graph + INT8": base.graph_optimized().quantized(),
        "graph + INT8 + prune 0.5": base.graph_optimized().quantized().pruned(0.5),
        "distilled 4x": base.distilled(4),
    }
    rows = []
    for name, model in variants.items():
        eng = InferenceEngine(model, device)
        rows.append([name, model.size_mb, eng.latency_ms(1), eng.throughput_rps(16),
                     model.accuracy])
    print(format_table(
        ["variant", "size MB", "latency@1 ms", "rps@16", "accuracy"],
        rows,
        title=f"Model-level optimizations on {device.name}:",
        float_fmt=",.2f",
    ))
    return variants


def edge_part(variants):
    pi = DEVICE_CATALOG["raspberrypi5"]
    rows = []
    for name, model in variants.items():
        if not pi.supports(model.precision.value):
            rows.append([name, None, None])
            continue
        eng = InferenceEngine(model, pi)
        rows.append([name, eng.latency_ms(1), eng.throughput_rps(1)])
    print(format_table(
        ["variant", "latency@1 ms", "rps@1"],
        rows,
        title="The same models on a Raspberry Pi 5 (CHI@Edge):",
        float_fmt=",.1f",
    ))


def system_level():
    server = TritonServer(DEVICE_CATALOG["a100"], gpus=2)
    model = food11_classifier().graph_optimized().quantized()
    server.load_model(model)
    load = LoadProfile(rate_rps=4000, n_requests=6000, seed=1)
    metrics = server.sweep(model.name, load,
                           batch_sizes=[1, 8, 32], delays_ms=[0.0, 5.0])
    rows = [[m.config_name.split("/", 1)[1], m.p50_ms, m.p99_ms,
             m.throughput_rps, m.mean_batch] for m in metrics]
    print(format_table(
        ["batching config", "p50 ms", "p99 ms", "rps", "mean batch"],
        rows,
        title="System-level (Triton-style) sweep on 2x A100 @ 4000 rps:",
        float_fmt=",.2f",
    ))

    budget = dict(latency_budget_ms=25.0, min_throughput_rps=3500, min_accuracy=0.88)
    winners = [m for m in metrics if m.meets(**budget)]
    print(f"\nconfigs meeting the budget (p95<=25ms, >=3500rps, acc>=0.88): "
          f"{len(winners)}")
    if winners:
        best = min(winners, key=lambda m: m.p99_ms)
        print(f"recommended: {best.config_name} (p99 {best.p99_ms:.1f} ms, "
              f"{best.throughput_rps:,.0f} rps, ${best.hourly_cost_usd:.2f}/h)")


def main() -> None:
    variants = model_level()
    print()
    edge_part(variants)
    print()
    system_level()


if __name__ == "__main__":
    main()
