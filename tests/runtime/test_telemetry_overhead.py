"""No-op telemetry overhead: disabled spans must be invisible.

This pins the observability layer's acceptance bar — with tracing
disabled, entering/exiting a span is one boolean check plus the shared
no-op singleton, so the instrumentation inside ``frame_cube_from_facets``
must cost well under 1% of the frame simulation it wraps.
"""

import time

from repro.datasets import SampleGenerator
from repro.eval import FAST
from repro.runtime.telemetry import span, telemetry


def test_noop_span_under_one_percent_of_frame_cube():
    telemetry().disable()

    # Cost of the disabled span path itself.
    iterations = 20_000
    start = time.perf_counter()
    for _ in range(iterations):
        with span("simulate.frame_cube", facets=0):
            pass
    per_span_s = (time.perf_counter() - start) / iterations

    # Cost of one instrumented frame simulation at the FAST preset.
    generator = SampleGenerator(FAST.generation_config(), seed=0)
    mesh = generator.sample_meshes("push", 1.2, 0.0)[0]
    simulator = generator.simulator
    simulator.frame_cube(mesh)  # warm caches
    repetitions = 5
    start = time.perf_counter()
    for _ in range(repetitions):
        simulator.frame_cube(mesh)
    per_frame_s = (time.perf_counter() - start) / repetitions

    ratio = per_span_s / per_frame_s
    print(
        f"\nno-op span: {per_span_s * 1e9:.0f} ns/call, "
        f"frame_cube: {per_frame_s * 1e3:.2f} ms/call, "
        f"overhead ratio: {ratio * 100:.4f}%"
    )
    assert ratio < 0.01
