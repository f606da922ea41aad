#!/usr/bin/env python3
"""The port line of `wmatch_cli serve --listen=0` reaches stderr whole.

Clients such as perfbench/run.py learn the ephemeral port by polling the
server's stderr log for "listening on 127.0.0.1:<port>". If the line is
written in pieces, a poll can read it without its port and fail to parse
it. This probe starts the server many times with stderr going to a file,
re-reads the file in a tight loop (no sleep, to catch a write in
progress), and fails if it ever sees the line without its newline.

  serve_port_line.py path/to/wmatch_cli

Every server it starts is killed before the next one starts.
"""

import os
import subprocess
import sys
import tempfile
import time

STARTS = 300
MARKER = b"listening on 127.0.0.1:"
START_TIMEOUT_S = 10.0


def start_once(cli, log_path):
    """Starts one server and reads its log until the port line is whole.

    Returns True when some read saw the line without its newline."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([cli, "serve", "--listen=0"],
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
    try:
        torn = False
        deadline = time.monotonic() + START_TIMEOUT_S
        with open(log_path, "rb") as f:
            while True:
                f.seek(0)
                data = f.read()
                at = data.find(MARKER)
                if at >= 0:
                    end = data.find(b"\n", at)
                    if end >= 0:
                        port = data[at + len(MARKER):end].strip()
                        if not port.isdigit():
                            sys.exit(f"error: no port in {data[at:end]!r}")
                        return torn
                    torn = True
                if proc.poll() is not None:
                    sys.exit(f"error: serve exited with {proc.returncode} "
                             f"before its port line; log: {data!r}")
                if time.monotonic() > deadline:
                    sys.exit("error: serve printed no port line within "
                             f"{START_TIMEOUT_S} s; log: {data!r}")
    finally:
        proc.kill()
        proc.wait()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        log_path = os.path.join(tmp, "serve.log")
        torn = sum(start_once(cli, log_path) for _ in range(STARTS))
    print(f"{torn} of {STARTS} starts showed a partial port line")
    return 1 if torn else 0


if __name__ == "__main__":
    sys.exit(main())
