"""One benchmark pass in a fresh process, as one `lrlab` invocation runs.

    python3 perfbench/child.py <workload> <seed> <workdir> <trace 0|1>

Sets the workload up, runs one pass, checks it against the reference and
prints one JSON line: setup_s (from before the first import of numpy and
lrlab until the inputs and reference are built), run_s (the pass), the
process's peak RSS, the check result and, for a traced pass, its per-layer
metrics.  run.py starts these one after another.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# layers whose self time is reported; "bench" is the benchmark's own glue
LAYERS = ("propagation", "adiabatic", "locality", "blocks", "models", "experiment", "svgplot")


def layer_metrics(setup_spans, spans, wall: float) -> dict:
    """Per-layer metrics of one traced pass, as name -> [value, unit]."""
    from spans import attr_sum, layer_self_times, total

    def ratio(a, b):
        return a / b if b else 0.0

    evolve = "propagation.evolve_on_grid"
    evolve_ad = "adiabatic.evolve_adiabatic"
    substeps = attr_sum(spans, evolve, "substeps")
    ad_substeps = attr_sum(spans, evolve_ad, "substeps")
    evolve_s, evolve_ad_s = total(spans, evolve), total(spans, evolve_ad)
    audit_s = total(spans, "propagation.bound_audit")
    audit_pairs = sum(1 for s in spans if s.name == "propagation.bound_audit")
    defects = [s.attrs["unitarity_defect"] for s in spans if "unitarity_defect" in s.attrs]
    intertwining = [s.attrs["intertwining_defect"] for s in spans if "intertwining_defect" in s.attrs]
    runs_T = [s.duration for s in spans if s.name == "experiment.run_T"]
    sweep = [s for s in spans if s.name == "experiment.sweep"]
    pool_eff = ratio(sum(runs_T), sweep[0].attrs["workers"] * sweep[0].duration) if sweep else 0.0
    self_by_layer = layer_self_times(spans)
    unattributed = self_by_layer.get("bench", 0.0)
    m = {
        "propagation.evolve_s": (evolve_s, "s"),
        "propagation.substeps": (substeps, "count"),
        "propagation.halvings": (attr_sum(spans, evolve, "halvings"), "count"),
        "propagation.useful_frac": (ratio(attr_sum(spans, evolve, "useful"), substeps), "1"),
        "propagation.substeps_per_s": (ratio(substeps, evolve_s), "1/s"),
        "propagation.unitarity_defect": (max(defects, default=0.0), "1"),
        "propagation.audit_s": (audit_s, "s"),
        "propagation.audit_pairs": (audit_pairs, "count"),
        "propagation.audit_pairs_per_s": (ratio(audit_pairs, audit_s), "1/s"),
        "adiabatic.flow_s": (total(spans, "adiabatic.spectral_flow"), "s"),
        "adiabatic.evolve_ad_s": (evolve_ad_s, "s"),
        "adiabatic.ad_substeps": (ad_substeps, "count"),
        "adiabatic.ad_substeps_per_s": (ratio(ad_substeps, evolve_ad_s), "1/s"),
        "adiabatic.wave_op_s": (total(spans, "adiabatic.wave_operator_errors"), "s"),
        "adiabatic.condition_s": (total(spans, "adiabatic.condition_report"), "s"),
        "adiabatic.intertwining_defect": (max(intertwining, default=0.0), "1"),
        "locality.certify_s": (total(spans, "locality.certify"), "s"),
        "locality.optimize_mu_s": (total(spans, "locality.optimize_mu_generic"), "s"),
        "locality.a_mu_s": (total(spans, "locality.a_mu_pointwise"), "s"),
        "blocks.decompose_s": (total(spans, "blocks.pairwise_decompose"), "s"),
        # models are built during set-up, except fig1's per-T ramps
        "models.build_s": (
            sum(s.duration for s in setup_spans + spans if s.layer == "models"), "s"
        ),
        "experiment.v_lr_s": (total(spans, "experiment.empirical_v_lr"), "s"),
        "experiment.slowest_T_s": (max(runs_T, default=0.0), "s"),
        "experiment.pool_efficiency": (pool_eff, "1"),
        "svgplot.plot_s": (total(spans, "svgplot.line_plot"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer.get(layer, 0.0), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.coverage"] = (1.0 - ratio(unattributed, wall), "1")
    return m


def main() -> int:
    name, seed, workdir, trace = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1"
    import workloads
    from spans import Tracer, to_json

    tracer = Tracer() if trace else workloads.NULL_TRACER
    with tracer.span("bench.setup"):
        w = workloads.WORKLOADS[name](seed, workdir, tracer)
    setup_s = time.perf_counter() - START
    n_setup = len(tracer.spans) if trace else 0

    t0 = time.perf_counter()
    with tracer.span("bench.pass"):
        outputs = w.run(tracer)
    run_s = time.perf_counter() - t0

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **w.check(outputs),
    }
    if trace:
        result["layers"] = layer_metrics(tracer.spans[:n_setup], tracer.spans[n_setup:], run_s)
        spans_path = workloads.ROOT / ".bench_build" / "perfbench" / "traces" / f"{name}-seed{seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(to_json(tracer.spans)) + "\n")
        result["spans_path"] = str(spans_path.relative_to(workloads.ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
