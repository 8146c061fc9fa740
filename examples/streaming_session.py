"""Streaming sessions: compile once, push ndarray chunks forever.

A 256-tap FIR low-pass is compiled into a push session (the plan
backend, with the graph collapsed to one matrix kernel), then fed a
signal in irregular chunks — the way samples arrive from a socket or a
sound card.  The outputs are bit-for-bit the outputs of one batch run:
the session carries the filter's 255-sample lookahead window across
chunk boundaries.

Run:  python examples/streaming_session.py
"""

import math

import numpy as np

import repro
from repro.apps.common import low_pass_filter
from repro.runtime import run_stream


def main():
    rng = np.random.default_rng(7)
    signal = np.sin(np.linspace(0, 40 * math.pi, 4096)) \
        + 0.3 * rng.standard_normal(4096)

    # compile once: rewrite -> plan -> probe, all paid here
    session = repro.compile(low_pass_filter(1.0, math.pi / 8, 256),
                            optimize="linear")

    # stream the signal in irregular chunks
    outputs = []
    pos = 0
    while pos < len(signal):
        n = int(rng.integers(64, 513))
        outputs.append(session.push(signal[pos:pos + n]))
        pos += n
    streamed = np.concatenate(outputs)
    print(f"pushed {session.consumed} samples in irregular chunks, "
          f"got {len(streamed)} outputs")
    print(f"cumulative FLOPs: {session.profile.counts.flops:,}")

    # the batch reference: one run_stream call over the whole signal
    batch = run_stream(low_pass_filter(1.0, math.pi / 8, 256),
                       signal.tolist(), len(streamed), backend="plan")
    print("chunked == batch:", np.allclose(streamed, batch, atol=1e-9))

    # resumable pull sessions work on complete programs too
    from repro.apps import iir
    pull = repro.compile(iir.build(), optimize="auto")
    a, b = pull.run(1000), pull.run(1000)
    print(f"IIR session: two advances, {len(a) + len(b)} outputs, "
          f"state carried across the boundary")
    print(pull.report())


if __name__ == "__main__":
    main()
