"""The tiled plan executor and its kernels.

* :mod:`.numpy_tiled` — the executor :func:`repro.ir.execute.run_plan`
  dispatches to: one block per batch over the runtime's shared walk,
  with fused QUANT+GEMV, the exact integer GEMV and the LIF scan
  readout substituted in.
* :mod:`.tiles` — the exact fused and integer GEMV kernels.
* :mod:`.lif_scan` — the chunked first-spike scan for the timed SNN.

Every kernel here is bitwise-equal to the serial interpreter
(:func:`repro.ir.interpret.run_plan_serial`), the one oracle.
"""
