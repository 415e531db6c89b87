"""Run the translit CLI in this process under the layer tracer.

    python traced_cli.py TRACE_JSON [translit arguments...]

Exits with the CLI's status after writing the trace to TRACE_JSON.
"""

import sys

from tracer import Tracer


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import hawar2sorani.cli as cli

    tracer = Tracer().install()
    status = cli.run(argv)
    tracer.uninstall()
    tracer.dump(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
