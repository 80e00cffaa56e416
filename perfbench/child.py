"""One invocation of the eitmem CLI in a fresh interpreter, with its timings.

    python3 child.py RESULT_JSON MODE INVOCATION SAMPLE_MAIN -- CLI_ARGS...

MODE is ``plain`` (run ``eitmem.cli.main`` once), ``traced`` (the same,
with the layer wrappers of spans.py installed) or ``setup`` (import the CLI
and stop). The clock readings go to RESULT_JSON as CLOCK_MONOTONIC
nanoseconds, which the parent process reads on the same clock. Nothing is
imported ahead of ``eitmem.cli`` but ``sys``, ``time`` and ``signal``, so
the import reading is the import a user's ``eitmem`` command pays.

The host-speed sampler runs through the import, and through ``main`` too
when SAMPLE_MAIN is 1. Its readings and the time it took are in RESULT_JSON.
"""

import signal
import sys
import time

# Times are scaled to a host that does one sampler reading in this long:
# about what one took on the 2-vCPU host the benchmark was tuned on.
REFERENCE_S = 2.5e-3
SAMPLE_INTERVAL_S = 0.1


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class HostSampler:
    """Times a fixed piece of pure-Python work every SAMPLE_INTERVAL_S.

    A shared host's speed moves by up to 2x over seconds, and a reading taken
    in the invocation's own thread, between its bytecodes, slows with it.
    The work (a float loop and float-to-text formatting) takes about 2 ms, so
    sampling costs about 2% of the run; ``spent_ns`` holds that cost, which
    the timings subtract.
    """

    def __init__(self):
        self.readings_ns: list[int] = []
        self.spent_ns = 0

    def _on_alarm(self, signum, frame):
        start = _now()
        total = 0.0
        for i in range(15_000):
            total += (i * 0.5) ** 0.5
        ",".join(repr(i * 1e-3 + total) for i in range(300))
        end = _now()
        self.readings_ns.append(end - start)
        self.spent_ns += _now() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 1e-3, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    result_path, mode, invocation = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sample_main = sys.argv[4] == "1"
    cli_argv = sys.argv[6:]
    sampler = HostSampler()
    sampler.start()
    from eitmem import cli

    record = {"t_imported_ns": _now(), "sampler_import_ns": sampler.spent_ns}
    if not sample_main:
        sampler.stop()
    rc = 0
    if mode == "plain":
        record["t_main_start_ns"] = _now()
        spent = sampler.spent_ns
        rc = cli.main(cli_argv)
        record["sampler_main_ns"] = sampler.spent_ns - spent
        record["t_main_end_ns"] = _now()
    elif mode == "traced":
        import spans

        recorder = spans.Recorder(invocation)
        spans.install(recorder)
        record["t_main_start_ns"] = _now()
        spent = sampler.spent_ns
        rc = recorder.span("cli.main", cli.main, cli_argv)
        record["sampler_main_ns"] = sampler.spent_ns - spent
        record["t_main_end_ns"] = _now()
        record["trace"] = recorder.to_dict()
    sampler.stop()

    import json
    import resource

    record["rc"] = rc
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["sampler_readings_ns"] = sampler.readings_ns
    record["sampler_ns"] = sampler.spent_ns
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
