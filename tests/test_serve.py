"""Tests for the design-space service: daemon, client, remote cache tier.

The failure-mode suite is the point of this file: a server that is
unreachable at start, dies mid-sweep or responds slowly must never fail a
sweep or lose rows -- only degrade it to local-only caching with a single
warning -- and the rows a remote-tier sweep produces must be byte-identical
to a purely local run.
"""

import json
import socket
import time

import pytest

from repro.engine import SweepSpec, execute_jobs, stream_jobs
from repro.engine.cache import ResultCache
from repro.engine.spec import params_key
from repro.serve import RemoteCache, ServeClient, ServeDaemon, ServerUnavailable
from repro.serve.client import env_remote_retries, env_remote_timeout_s


def _design_jobs(cores=(2, 4), freqs=(1.0, 1.4)):
    spec = SweepSpec().constants(nr=4).grid(cores=cores, frequency_ghz=freqs)
    return spec.jobs("design")


def _dead_url():
    """URL of a port that nothing listens on (bind, grab, release)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


@pytest.fixture
def daemon(tmp_path):
    daemon = ServeDaemon(tmp_path / "server", quiet=True).start()
    yield daemon
    daemon.stop()


def _client(daemon, retries=0):
    return ServeClient(daemon.url, timeout_s=5.0, retries=retries)


# ----------------------------------------------------------------- daemon
class TestDaemonEndpoints:
    def test_ping_reports_identity(self, daemon):
        doc = _client(daemon).ping()
        assert doc["ok"] is True
        assert doc["code_version"] == daemon.cache.code_version

    def test_entry_roundtrip_by_key(self, daemon):
        client = _client(daemon)
        params = {"cores": 4, "nr": 4}
        key = params_key("design", params, salt=daemon.cache.code_version)
        payload = {"runner": "design", "params": params,
                   "code_version": daemon.cache.code_version,
                   "row": {"cores": 4, "gflops": 1.5}}
        assert client.get_entry(key) is None  # miss first
        client.put_entry(key, payload)
        stored = client.get_entry(key)
        assert stored["row"] == payload["row"]
        assert daemon.counters["cache_puts"] == 1
        assert daemon.counters["cache_hits"] == 1
        assert daemon.counters["cache_misses"] == 1

    def test_entry_survives_daemon_restart(self, tmp_path):
        directory = tmp_path / "server"
        key = params_key("design", {"cores": 2}, salt="v1")
        payload = {"runner": "design", "params": {"cores": 2},
                   "code_version": "v1", "row": {"cores": 2}}
        daemon = ServeDaemon(directory, code_version="v1", quiet=True).start()
        try:
            _client(daemon).put_entry(key, payload)
        finally:
            daemon.stop()
        daemon = ServeDaemon(directory, code_version="v1", quiet=True).start()
        try:
            assert _client(daemon).get_entry(key)["row"] == {"cores": 2}
        finally:
            daemon.stop()

    def test_malformed_key_rejected(self, daemon):
        client = _client(daemon)
        for bad in ("nope", "AB" * 32, "0" * 63):
            with pytest.raises(ServerUnavailable, match="HTTP 400"):
                client.put_entry(bad, {"row": {}})
        # A traversal "key" splits into extra path segments and falls off
        # the route table (404); either way nothing reaches the filesystem.
        assert client.put_entry("../../etc/passwd", {"row": {}}) is None
        assert len(daemon.cache) == 0

    def test_entry_without_row_rejected(self, daemon):
        with pytest.raises(ServerUnavailable, match="HTTP 400"):
            _client(daemon).put_entry("0" * 64, {"runner": "design"})

    def test_key_payload_mismatch_rejected(self, daemon):
        """A payload naming runner/params must hash to the key it claims."""
        with pytest.raises(ServerUnavailable, match="HTTP 400"):
            _client(daemon).put_entry("0" * 64, {
                "runner": "design", "params": {"cores": 4},
                "code_version": "v1", "row": {"gflops": 1.0}})

    @pytest.mark.parametrize("missing", ["runner", "params", "code_version"])
    def test_incomplete_entry_cannot_poison_the_store(self, daemon, tmp_path,
                                                      missing):
        """An entry must name runner, params and code version to be stored.

        Otherwise the key-integrity check has nothing to hash, and a forged
        row under a real job's key would be served to every other client.
        """
        job = _design_jobs(cores=(4,), freqs=(1.0,))[0]
        key = ResultCache(tmp_path / "probe").key_for(job)
        forged = {"runner": job.runner, "params": job.params_dict,
                  "code_version": daemon.cache.code_version,
                  "row": {"gflops": 1e9}}
        del forged[missing]
        with pytest.raises(ServerUnavailable, match="HTTP 400"):
            _client(daemon).put_entry(key, forged)
        assert len(daemon.cache) == 0
        fresh = RemoteCache(tmp_path / "fresh", daemon.url, timeout_s=5.0,
                            retries=0)
        result = execute_jobs([job], mode="serial", cache=fresh)
        assert result.executed == 1
        assert result.rows[0]["gflops"] != 1e9

    def test_stats_document(self, daemon):
        client = _client(daemon)
        client.ping()
        stats = client.stats()
        assert stats["server"] == "repro.serve/v1"
        assert stats["counters"]["requests"] >= 1
        assert stats["cache"]["directory"] == str(daemon.cache.directory)

    @pytest.mark.parametrize("method, path", [
        ("GET", "/nope"),
        ("POST", "/sweeps"),
        ("GET", "/sweeps/sweep-1/status"),
        ("GET", "/replay/" + "0" * 64),
        ("POST", "/prune"),
    ])
    def test_unknown_path_is_a_miss(self, daemon, method, path):
        assert _client(daemon)._request(method, path) is None


# ----------------------------------------------------------------- client
class TestServeClient:
    def test_env_knobs_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_TIMEOUT_S", raising=False)
        monkeypatch.delenv("REPRO_REMOTE_RETRIES", raising=False)
        assert env_remote_timeout_s() == 5.0
        assert env_remote_retries() == 2

    def test_env_knobs_degrade_on_garbage(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_REMOTE_TIMEOUT_S", "forever")
        assert env_remote_timeout_s() == 5.0
        monkeypatch.setenv("REPRO_REMOTE_RETRIES", "-2")
        assert env_remote_retries() == 2
        err = capsys.readouterr().err
        assert "REPRO_REMOTE_TIMEOUT_S" in err
        assert "REPRO_REMOTE_RETRIES" in err

    def test_env_knobs_apply(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_TIMEOUT_S", "0.25")
        monkeypatch.setenv("REPRO_REMOTE_RETRIES", "5")
        client = ServeClient("http://127.0.0.1:1")
        assert client.timeout_s == 0.25
        assert client.retries == 5

    def test_bare_host_gets_scheme(self):
        assert ServeClient("127.0.0.1:80", timeout_s=1.0,
                           retries=0).base_url == "http://127.0.0.1:80"

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError, match="timeout_s"):
            ServeClient("http://x", timeout_s=0.0, retries=0)
        with pytest.raises(ValueError, match="retries"):
            ServeClient("http://x", timeout_s=1.0, retries=-1)

    def test_unreachable_server_retries_with_backoff(self):
        client = ServeClient(_dead_url(), timeout_s=0.5, retries=2,
                             backoff_s=0.05)
        sleeps = []
        client._sleep = sleeps.append
        with pytest.raises(ServerUnavailable):
            client.ping()
        assert client.attempts == 3
        assert client.retried == 2
        # Exponential base with jitter: sleep k is in [b*2^k, 2*b*2^k).
        assert 0.05 <= sleeps[0] < 0.10
        assert 0.10 <= sleeps[1] < 0.20

    def test_stalled_server_times_out(self):
        """A server that accepts but never answers trips the timeout."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            url = f"http://127.0.0.1:{sock.getsockname()[1]}"
            client = ServeClient(url, timeout_s=0.2, retries=1,
                                 backoff_s=0.01)
            client._sleep = lambda _seconds: None
            started = time.monotonic()
            with pytest.raises(ServerUnavailable):
                client.ping()
            assert client.attempts == 2
            assert time.monotonic() - started < 5.0

    def test_miss_is_none_not_an_error(self, daemon):
        client = _client(daemon)
        assert client.get_entry("f" * 64) is None
        assert client.attempts == 1  # a 404 never burns the retry budget


# ----------------------------------------------------------- remote cache
class TestRemoteCache:
    def test_needs_a_server_url(self, tmp_path):
        with pytest.raises(ValueError, match="server_url"):
            RemoteCache(tmp_path)

    def test_two_clients_deduplicate_through_the_server(self, daemon, tmp_path):
        jobs = _design_jobs()
        cache_a = RemoteCache(tmp_path / "a", daemon.url, timeout_s=5.0,
                              retries=0)
        first = execute_jobs(jobs, mode="serial", cache=cache_a)
        assert first.executed == len(jobs)
        assert cache_a.remote_puts == len(jobs)

        cache_b = RemoteCache(tmp_path / "b", daemon.url, timeout_s=5.0,
                              retries=0)
        second = execute_jobs(jobs, mode="serial", cache=cache_b)
        assert second.executed == 0
        assert second.cached == len(jobs)
        assert cache_b.remote_hits == len(jobs)
        assert json.dumps(second.rows) == json.dumps(first.rows)

    def test_remote_rows_byte_identical_to_local_run(self, daemon, tmp_path):
        jobs = _design_jobs()
        local = execute_jobs(jobs, mode="serial",
                             cache=ResultCache(tmp_path / "local"))
        RemoteCache(tmp_path / "warm", daemon.url, timeout_s=5.0,
                    retries=0)  # tier construction alone must not talk
        warm = RemoteCache(tmp_path / "a", daemon.url, timeout_s=5.0, retries=0)
        execute_jobs(jobs, mode="serial", cache=warm)
        remote = execute_jobs(jobs, mode="serial",
                              cache=RemoteCache(tmp_path / "b", daemon.url,
                                                timeout_s=5.0, retries=0))
        assert remote.executed == 0
        assert json.dumps(remote.rows) == json.dumps(local.rows)

    def test_remote_hit_fills_local_tier(self, daemon, tmp_path):
        jobs = _design_jobs()
        warm = RemoteCache(tmp_path / "a", daemon.url, timeout_s=5.0, retries=0)
        execute_jobs(jobs, mode="serial", cache=warm)
        cache = RemoteCache(tmp_path / "b", daemon.url, timeout_s=5.0,
                            retries=0)
        execute_jobs(jobs, mode="serial", cache=cache)
        assert cache.remote_hits == len(jobs)
        execute_jobs(jobs, mode="serial", cache=cache)
        # The second pass is pure local disk: no new remote traffic.
        assert cache.remote_hits == len(jobs)
        assert cache.hits == 2 * len(jobs)

    def test_server_unreachable_at_start_degrades_once(self, tmp_path, capsys):
        jobs = _design_jobs()
        cache = RemoteCache(tmp_path / "a", _dead_url(), timeout_s=0.5,
                            retries=0)
        result = execute_jobs(jobs, mode="serial", cache=cache)
        assert all(row is not None for row in result.rows)
        assert result.executed == len(jobs)
        assert cache.degraded
        assert cache.tier == "local"
        err = capsys.readouterr().err
        assert err.count("cache server unavailable") == 1

    def test_server_dies_mid_sweep_no_lost_rows(self, tmp_path, capsys):
        """The tentpole failure mode: killing the daemon mid-stream only
        degrades caching; the sweep completes with byte-identical rows."""
        jobs = _design_jobs(cores=(2, 4, 6), freqs=(1.0, 1.2))
        reference = execute_jobs(jobs, mode="serial",
                                 cache=ResultCache(tmp_path / "ref"))
        daemon = ServeDaemon(tmp_path / "server", quiet=True).start()
        cache = RemoteCache(tmp_path / "a", daemon.url, timeout_s=0.5,
                            retries=0)
        stream = stream_jobs(jobs, mode="serial", cache=cache)
        events = [next(stream)]
        daemon.stop()  # the server goes away while the sweep is running
        events.extend(stream)
        result = stream.result()
        assert len(events) == len(jobs)
        assert all(row is not None for row in result.rows)
        assert json.dumps(result.rows) == json.dumps(reference.rows)
        assert cache.degraded
        err = capsys.readouterr().err
        assert err.count("cache server unavailable") == 1

    def test_degraded_tier_reports_in_counters_and_manifest(self, tmp_path):
        from repro.obs.manifest import build_run_manifest

        jobs = _design_jobs()
        cache = RemoteCache(tmp_path / "a", _dead_url(), timeout_s=0.5,
                            retries=0)
        result = execute_jobs(jobs, mode="serial", cache=cache)
        assert result.cache_stats["tier"] == "local"
        assert result.cache_stats["degraded"] is True
        manifest = build_run_manifest(result)
        assert manifest["cache_tier"] == "local"

    def test_live_tier_reports_in_manifest(self, daemon, tmp_path):
        from repro.obs.manifest import build_run_manifest

        jobs = _design_jobs()
        cache = RemoteCache(tmp_path / "a", daemon.url, timeout_s=5.0,
                            retries=0)
        result = execute_jobs(jobs, mode="serial", cache=cache)
        assert result.cache_stats["tier"] == "local+remote"
        assert result.cache_stats["remote_puts"] == len(jobs)
        manifest = build_run_manifest(result)
        assert manifest["cache_tier"] == "local+remote"

    def test_uncached_manifest_tier_is_none(self):
        from repro.obs.manifest import build_run_manifest

        result = execute_jobs(_design_jobs(), mode="serial")
        assert build_run_manifest(result)["cache_tier"] == "none"

    def test_stats_name_the_server(self, daemon, tmp_path):
        cache = RemoteCache(tmp_path / "a", daemon.url, timeout_s=5.0,
                            retries=0)
        stats = cache.stats()
        assert stats["server"] == daemon.url
        assert stats["tier"] == "local+remote"
        assert stats["remote_hit_rate"] == 0.0
