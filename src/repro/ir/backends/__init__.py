"""The tiled plan executor and its kernels.

* :mod:`.numpy_tiled` — the executor :func:`repro.ir.execute.run_plan`
  dispatches to: fused pairs, tiled exact integer GEMVs, the LIF scan
  readout and threaded row blocks over the runtime's shared walk.
* :mod:`.tiles` — the cache-blocked and fused GEMV kernels.
* :mod:`.lif_scan` — the chunked first-spike scan for the timed SNN.

Every kernel here is bitwise-equal to the serial interpreter
(:func:`repro.ir.interpret.run_plan_serial`), the one oracle.
"""
