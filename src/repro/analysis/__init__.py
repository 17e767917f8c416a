"""The hot-path counters of the complexity analysis (slide 19).

They live on :data:`repro.obs.metrics.process_registry`;
:mod:`repro.analysis.instrumentation` is the façade older callers read
them through.
"""

__all__: list[str] = []
