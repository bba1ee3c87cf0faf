"""End-to-end + per-layer performance benchmark of the repo's two user paths.

``python -m benchmarks.perf`` times the ``run_faulty_stream`` epoch (four
stream workloads) and the paper's one-shot queries (one workload) from the
outside, reports host time and simulated bits side by side, and — in a
separate traced pass — attributes each operation's time to the layers
underneath by wrapping their public entry points from this package only.

Module map:

* :mod:`benchmarks.perf.spec` — the fixed names: workloads, end-to-end
  metrics with their regression bounds, per-layer metrics, named errors;
* :mod:`benchmarks.perf.workloads` — seed → inputs for each workload;
* :mod:`benchmarks.perf.tracing` — the span recorder and the layer wrappers;
* :mod:`benchmarks.perf.repeat` — one repeat (set-up + timed ops) of one
  workload, run inside a fresh child interpreter;
* :mod:`benchmarks.perf.verify` — answer-vs-guarantee scoring and the
  per-edge differential check;
* :mod:`benchmarks.perf.layers` — isolated micro-benches and the
  execution-path table;
* :mod:`benchmarks.perf.harness` — child orchestration, pooling, reports;
* :mod:`benchmarks.perf.compare` — verdicts between two result files.

See ``README.md`` beside this file for the metric glossary and the
comparison protocol later PRs must follow.
"""
