"""spark-submit entrypoint: REPT as a live Structured Streaming job.

Writes a dataset's edge stream into micro-batch files, then runs the
stateful streaming REPT and prints the final global estimate.

Usage: spark-submit jobs/rept_streaming.py [dataset] [m] [c]
"""
import sys
import tempfile

from repro.core.structured import rept_structured_counts, write_stream_files
from repro.graphs.datasets import load_stream, stream_pdf
from repro.session import get_session


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "YouTube"
    m = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    c = int(sys.argv[3]) if len(sys.argv) > 3 else 4
    spark = get_session("rept-streaming")
    stream = load_stream(dataset, scale=0.25, seed=7)
    with tempfile.TemporaryDirectory() as d:
        write_stream_files(stream_pdf(stream), f"{d}/in", n_files=5)
        counts = rept_structured_counts(
            spark, f"{d}/in", m, c, seed=7, checkpoint_dir=f"{d}/ckpt",
            max_files_per_trigger=1,
        )
    tau_hat = (m * m / c) * counts["tau"].sum()
    print(counts.to_string(index=False))
    print(f"REPT streaming estimate tau_hat = {tau_hat:.1f}")
    spark.stop()


if __name__ == "__main__":
    main()
