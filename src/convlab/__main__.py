"""`python -m convlab` and the `convlab` script: the CLI on one BLAS thread.

OpenBLAS reads its thread count once, as numpy loads, so main sets
OPENBLAS_NUM_THREADS=1 before it imports the CLI, unless the user gave
a count in it, GOTO_NUM_THREADS or OMP_NUM_THREADS.
"""

from convlab import _pin_one_blas_thread


def main() -> None:
    _pin_one_blas_thread()
    from convlab.cli import entry

    entry()


if __name__ == "__main__":
    main()
