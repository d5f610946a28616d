"""Peak memory and time of one taped training step of one architecture,
and the time of one untaped forward.

Builds ARCH at the default clip shape (35x64x64x1) with 4 classes and
seeded weights (the frozen extractor for cnn_rnn_lstm, as ``signet train``
builds it), then runs three taped steps on one seeded clip: forward,
cross-entropy, backward. Prints ``ru_maxrss`` before the first step (base)
and after the last (peak), and the fastest step. Then it runs three
untaped forwards of the same clip, the model work of ``signet grade``, and
prints the fastest; they run after the peak is read, so they cannot raise
it:

    python3 tools/step_memory.py cnn3d
    OPENBLAS_NUM_THREADS=1 python3 tools/step_memory.py cnn_lstm

``ru_maxrss`` is the high-water mark of the whole process, so run one
architecture per process; the BLAS thread count is the environment's.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from signet import models, train, tensor as tn
from signet.tensor import Rng, Tensor

NUM_CLASSES = 4
STEPS = 3


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("arch", choices=models.ARCHITECTURES)
    args = parser.parse_args(argv)

    spec = models.build(args.arch, num_classes=NUM_CLASSES)
    params = models.init_model(spec, Rng(2))
    shape = spec.input_shape
    clip = Tensor(Rng(3).uniforms(int(np.prod(shape))).astype(np.float32).reshape(shape))
    truth = np.eye(NUM_CLASSES, dtype=np.float32)[[1]]
    base = _rss_mb()
    times = []
    for _ in range(STEPS):
        params.zero_grads()
        start = time.perf_counter()
        with tn.record() as tape:
            probs = models.forward(spec, params, clip)
            loss = train.categorical_crossentropy(tn.reshape(probs, (1, NUM_CLASSES)), truth)
        tape.backward(loss)
        times.append(time.perf_counter() - start)
        nodes = len(tape.nodes)
    peak = _rss_mb()
    forwards = []
    for _ in range(STEPS):
        start = time.perf_counter()
        models.forward(spec, params, clip)
        forwards.append(time.perf_counter() - start)
    print(f"{args.arch}: base {base:.1f} MB, peak {peak:.1f} MB, "
          f"step {min(times) * 1e3:.1f} ms, untaped forward {min(forwards) * 1e3:.1f} ms "
          f"(min of {STEPS} each), {nodes} tape nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
