"""A ``repro.service.serve`` child process and a keep-alive JSON client."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from common import PYTHON, hermetic_env

HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    ready_s: float  # spawn until the first 200 from /healthz
    maxrss_mb: float = 0.0


def spawn_server(cwd: Path) -> Server:
    """Start the service with default flags on an ephemeral port and wait
    for ``/healthz``; raises ``RuntimeError`` if it never answers."""
    start = time.perf_counter()
    with open(cwd / ".server.stderr", "ab") as err:
        process = subprocess.Popen(
            [PYTHON, "-m", "repro.service.serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=err, cwd=cwd, env=hermetic_env(),
        )
    timer = threading.Timer(READY_TIMEOUT_S, process.kill)
    timer.start()
    try:
        banner = process.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"http://[^:]+:(\d+)", banner)
        if match is None:
            raise RuntimeError(f"service did not start: {banner!r}")
        port = int(match.group(1))
        while True:
            try:
                status, _ = Client(port).get("/healthz")
            except OSError:
                status = None
            if status == 200:
                break
            if process.poll() is not None:
                raise RuntimeError("service exited before /healthz answered")
            time.sleep(0.002)
    except BaseException:
        stop_server_process(process)
        raise
    finally:
        timer.cancel()
    return Server(process, port, time.perf_counter() - start)


def stop_server_process(process: subprocess.Popen) -> float:
    """Stop the child and reap it; returns its peak RSS in MB."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
    timer = threading.Timer(10.0, process.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
    except ChildProcessError:  # already reaped
        return 0.0
    finally:
        timer.cancel()
        process.stdout.close()
    return usage.ru_maxrss / 1024.0


def stop_server(server: Server) -> None:
    server.maxrss_mb = stop_server_process(server.process)


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.conn = http.client.HTTPConnection(HOST, port, timeout=timeout)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers: Dict[str, str] = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> Tuple[int, bytes]:
        try:
            return self.request("GET", path)
        finally:
            self.close()

    def get_json(self, path: str) -> Dict[str, object]:
        status, data = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def plan_text(response: bytes) -> str:
    """A plan response's ``plan`` block serialized the way the plan CLIs
    print it, for byte comparison with their ``--json`` output."""
    return json.dumps(json.loads(response)["plan"], indent=2)


def without_engine(response: bytes) -> str:
    """A plan response minus its ``engine`` block, the one part that
    legitimately differs between a cold request and its warm repeat."""
    payload = json.loads(response)
    payload.pop("engine", None)
    return json.dumps(payload, indent=2)
