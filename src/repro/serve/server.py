"""The ``repro serve`` daemon: a shared result cache over HTTP.

Built entirely on the stdlib (:mod:`http.server`), the daemon turns one
host's content-addressed :class:`~repro.engine.cache.ResultCache` into a
shared network store that ``repro sweep --server`` reads through and
writes behind (see :class:`~repro.serve.remote.RemoteCache`):

==========================  ==================================================
``GET  /api/ping``          liveness + server identity / code version
``GET  /cache/<key>``       one result-cache entry by content key (404 = miss)
``PUT  /cache/<key>``       store one entry payload (idempotent by key)
``GET  /stats``             cache statistics + request counters
==========================  ==================================================

Entries are stored in exactly the on-disk layout :class:`ResultCache`
uses, so the served directory doubles as a plain local cache: client
traffic and any co-located local runs deduplicate through one store,
under one LRU budget.

Content keys are validated against the sha256-hex shape before touching
the filesystem, so a malformed key can never escape the fan-out
directories.  Each connection serves one request (HTTP/1.0 semantics).
"""

from __future__ import annotations

import http.server
import json
import threading
import urllib.parse
from typing import Dict, Optional

from repro.engine.cache import PathLike, ResultCache, is_valid_key
from repro.engine.spec import params_key

__all__ = ["ServeDaemon"]

#: Reject request bodies beyond this size (a single result row is a few KB).
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _RequestHandler(http.server.BaseHTTPRequestHandler):
    """Routes one request against the owning :class:`ServeDaemon`."""

    #: Injected by :class:`ServeDaemon` (one bound subclass per daemon).
    daemon_ref: "ServeDaemon"

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.0"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.daemon_ref.quiet:
            super().log_message(format, *args)

    # ------------------------------------------------------------- plumbing
    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body_json(self) -> Optional[dict]:
        """The request body parsed as a JSON object (None after an error
        response has been sent)."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error_json(400, "malformed Content-Length")
            return None
        if length < 0 or length > _MAX_BODY_BYTES:
            self._send_error_json(413, "request body too large")
            return None
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._send_error_json(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        return payload

    # --------------------------------------------------------------- routes
    def _route(self, method: str) -> None:
        daemon = self.daemon_ref
        daemon.count("requests")
        path = urllib.parse.urlsplit(self.path).path
        parts = [p for p in path.split("/") if p]
        try:
            if method == "GET" and parts == ["api", "ping"]:
                self._send_json(200, {
                    "ok": True,
                    "server": "repro.serve/v1",
                    "code_version": daemon.cache.code_version,
                })
            elif method == "GET" and parts == ["stats"]:
                self._send_json(200, daemon.stats())
            elif method == "GET" and len(parts) == 2 and parts[0] == "cache":
                self._get_entry(parts[1])
            elif method == "PUT" and len(parts) == 2 and parts[0] == "cache":
                self._put_entry(parts[1])
            else:
                self._send_error_json(404, f"unknown path '{path}'")
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._route("PUT")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._route("POST")

    # ----------------------------------------------------------- cache tier
    def _get_entry(self, key: str) -> None:
        daemon = self.daemon_ref
        if not is_valid_key(key):
            self._send_error_json(400, f"malformed content key '{key}'")
            return
        payload = daemon.cache.get_by_key(key)
        if payload is None:
            daemon.count("cache_misses")
            self._send_error_json(404, "miss")
            return
        daemon.count("cache_hits")
        self._send_json(200, payload)

    def _put_entry(self, key: str) -> None:
        daemon = self.daemon_ref
        if not is_valid_key(key):
            self._send_error_json(400, f"malformed content key '{key}'")
            return
        payload = self._read_body_json()
        if payload is None:
            return
        if not isinstance(payload.get("row"), dict):
            self._send_error_json(400, "entry payload must carry a 'row' object")
            return
        # Integrity check: every entry must name the runner, params and code
        # version it was computed from, and they must hash to the key it is
        # stored under, so a buggy (or hostile) client cannot poison other
        # clients' lookups.
        runner = payload.get("runner")
        params = payload.get("params")
        code_version = payload.get("code_version")
        if not (isinstance(runner, str) and isinstance(params, dict)
                and isinstance(code_version, str)):
            self._send_error_json(400, "entry payload must carry 'runner' "
                                       "(str), 'params' (object) and "
                                       "'code_version' (str)")
            return
        try:
            expected = params_key(runner, params, salt=code_version)
        except (TypeError, ValueError) as exc:
            self._send_error_json(400, f"unhashable entry payload: {exc}")
            return
        if expected != key:
            self._send_error_json(400, "content key does not match the "
                                       "entry payload")
            return
        if daemon.cache.put_by_key(key, payload) is None:
            self._send_error_json(507, "cache directory is not writable")
            return
        daemon.count("cache_puts")
        self._send_json(200, {"stored": key})


class ServeDaemon:
    """One shared-cache daemon over a cache directory.

    Parameters
    ----------
    cache_dir:
        Directory of the served :class:`ResultCache` (created if missing).
    host / port:
        Bind address; port ``0`` picks an ephemeral port (see :attr:`url`).
    code_version / max_bytes:
        Forwarded to the served cache (``max_bytes`` bounds the store under
        the usual LRU policy; ``REPRO_CACHE_MAX_MB`` applies when unset).
    quiet:
        Suppress the per-request access log lines.

    Use :meth:`serve_forever` in a foreground process (the CLI), or
    :meth:`start` / :meth:`stop` to run the daemon on a background thread
    (tests, embedding).
    """

    def __init__(self, cache_dir: PathLike, host: str = "127.0.0.1",
                 port: int = 0, code_version: Optional[str] = None,
                 max_bytes: Optional[int] = None, quiet: bool = False) -> None:
        self.cache = ResultCache(cache_dir, code_version=code_version,
                                 max_bytes=max_bytes)
        self.quiet = quiet
        self._counters_lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "requests": 0, "cache_hits": 0, "cache_misses": 0,
            "cache_puts": 0,
        }
        handler = type("BoundRequestHandler", (_RequestHandler,),
                       {"daemon_ref": self})
        self.httpd = http.server.ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self.httpd.serve_forever()

    def start(self) -> "ServeDaemon":
        """Serve on a daemon background thread; returns ``self``."""
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name=f"repro-serve:{self.port}",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.cache.persist_stats()

    # ------------------------------------------------------------- services
    def count(self, key: str) -> None:
        with self._counters_lock:
            self.counters[key] = self.counters.get(key, 0) + 1

    def stats(self) -> dict:
        """The stats document of ``GET /stats``."""
        with self._counters_lock:
            counters = dict(self.counters)
        return {
            "server": "repro.serve/v1",
            "url": self.url,
            "counters": counters,
            "cache": self.cache.stats(),
        }
