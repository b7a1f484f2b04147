"""There is one codec path; ``benchmarks/perf/run.py`` still records it."""


def batch_enabled() -> bool:
    """Always True: the datapath has no scalar/batched mode."""
    return True
