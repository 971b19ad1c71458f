"""Run the xbifix command line with the benchmark's instruments on it.

Usage: python3 perfbench/cli_runner.py spans|probes OUT_JSON [xbifix arguments...]

The command behaves exactly as ``python3 -m xbifix.cli``.  With `spans`
the layer functions record spans, and when the command exits its spans
and counters are written to OUT_JSON.  With `probes` the host-speed probe
runs on its timer all through the command, and when the command exits
the start and end of every probe are written to OUT_JSON.
"""

import json
import sys

import speed


def main() -> None:
    mode, out, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "probes":
        # before the program's imports, so they are probed too
        track = speed.Track()
        track.start_timer()
        try:
            import xbifix.cli

            xbifix.cli.main(args, prog_name="xbifix")
        finally:
            track.stop_timer()
            with open(out, "w") as fh:
                json.dump(track.marks, fh)
    else:
        import spans
        import xbifix.cli

        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            xbifix.cli.main(args, prog_name="xbifix")
        finally:
            tracer.write_json(out)


if __name__ == "__main__":
    main()
